"""Exact statevector simulator for the gate set used by the ansatz builders.

Conventions:
  - Qubit 0 is the most significant bit of a basis index, so basis state
    |b0 b1 ... b_{n-1}> has index sum(b_k << (n-1-k)); this matches the
    package-wide "qubit 0 is the leftmost bitstring character" rule.
  - Rotations follow RY(t) = exp(-i t Y / 2), so RY(t)|0> =
    cos(t/2)|0> + sin(t/2)|1>, and likewise for RX/RZ/RZZ.
  - csub is a controlled classical permutation: with the control set, an
    m-bit slack register (least significant qubit first) holding value r is
    mapped to (r - constant) mod 2^m.

Amplitudes are complex128; the norm is checked after every circuit run.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin
from typing import Mapping, Sequence

import numpy as np

from .encoder import IsingModel
from .errors import (
    DimensionMismatchError,
    QubitCountExceededError,
    UnboundParameterError,
)

DEFAULT_MAX_QUBITS = 24
NORM_TOLERANCE = 1e-9

GATE_NAMES = ("x", "h", "rx", "ry", "rz", "cx", "cry", "rzz", "mcx", "csub")


@dataclass(frozen=True)
class Param:
    """Named parameter slot; the bound angle is scale * value."""

    name: str
    scale: float = 1.0


@dataclass(frozen=True)
class Gate:
    """One gate application.

    qubits: operands in gate-specific order — (control, target) for cx/cry,
    (*controls, target) for mcx, (control, *register) for csub.
    """

    name: str
    qubits: tuple[int, ...]
    angle: float | Param | None = None
    constant: int | None = None


@dataclass(frozen=True)
class Circuit:
    qubit_count: int
    gates: tuple[Gate, ...]
    parameters: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class StateVector:
    qubit_count: int
    amplitudes: np.ndarray

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def bits_to_index(bits: str) -> int:
    return int(bits, 2)


def index_to_bits(index: int, qubit_count: int) -> str:
    return format(index, f"0{qubit_count}b")


def _resolve_angle(gate: Gate, binding: Mapping[str, float]) -> float:
    if isinstance(gate.angle, Param):
        try:
            return gate.angle.scale * binding[gate.angle.name]
        except KeyError:
            raise UnboundParameterError(f"parameter {gate.angle.name!r} is not bound")
    return float(gate.angle)


def _bind(circuit: Circuit, params) -> dict[str, float]:
    if params is None:
        binding: dict[str, float] = {}
    elif isinstance(params, Mapping):
        binding = {str(k): float(v) for k, v in params.items()}
    else:
        values = [float(v) for v in params]
        if len(values) != len(circuit.parameters):
            raise UnboundParameterError(
                f"expected {len(circuit.parameters)} parameter values, got {len(values)}"
            )
        binding = dict(zip(circuit.parameters, values))
    missing = [p for p in circuit.parameters if p not in binding]
    if missing:
        raise UnboundParameterError(f"unbound parameters: {', '.join(missing)}")
    return binding


def _rotation_matrix(name: str, angle: float) -> np.ndarray:
    c, s = cos(angle / 2.0), sin(angle / 2.0)
    if name == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if name == "ry":
        return np.array([[c, -s], [s, c]])
    raise ValueError(name)


_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def _slices(ndim: int, axis: int):
    lo = [slice(None)] * ndim
    hi = [slice(None)] * ndim
    lo[axis], hi[axis] = 0, 1
    return tuple(lo), tuple(hi)


def _apply_matrix(view: np.ndarray, matrix: np.ndarray, axis: int):
    lo, hi = _slices(view.ndim, axis)
    a0 = view[lo].copy()
    a1 = view[hi]
    view[lo] = matrix[0, 0] * a0 + matrix[0, 1] * a1
    view[hi] = matrix[1, 0] * a0 + matrix[1, 1] * a1


def _flip(view: np.ndarray, axis: int):
    lo, hi = _slices(view.ndim, axis)
    tmp = view[lo].copy()
    view[lo] = view[hi]
    view[hi] = tmp


def _control_view(nd: np.ndarray, controls: Sequence[int]):
    """View restricted to control qubits = 1, plus an axis renumbering map."""
    key: list = [slice(None)] * nd.ndim
    for c in controls:
        key[c] = 1
    fixed = sorted(controls)

    def adjust(axis: int) -> int:
        return axis - sum(1 for c in fixed if c < axis)

    return nd[tuple(key)], adjust


def apply_gate(amplitudes: np.ndarray, gate: Gate, qubit_count: int, angle: float | None = None):
    """Apply a single gate (with literal or pre-resolved angle) in place."""
    nd = amplitudes.reshape((2,) * qubit_count)
    name = gate.name
    if angle is None and gate.angle is not None:
        angle = _resolve_angle(gate, {})

    if name == "x":
        _flip(nd, gate.qubits[0])
    elif name == "h":
        _apply_matrix(nd, _H, gate.qubits[0])
    elif name in ("rx", "ry"):
        _apply_matrix(nd, _rotation_matrix(name, angle), gate.qubits[0])
    elif name == "rz":
        lo, hi = _slices(qubit_count, gate.qubits[0])
        nd[lo] *= np.exp(-0.5j * angle)
        nd[hi] *= np.exp(0.5j * angle)
    elif name == "cx":
        control, target = gate.qubits
        view, adjust = _control_view(nd, (control,))
        _flip(view, adjust(target))
    elif name == "cry":
        control, target = gate.qubits
        view, adjust = _control_view(nd, (control,))
        _apply_matrix(view, _rotation_matrix("ry", angle), adjust(target))
    elif name == "rzz":
        qa, qb = gate.qubits
        same, diff = np.exp(-0.5j * angle), np.exp(0.5j * angle)
        for va in (0, 1):
            for vb in (0, 1):
                key: list = [slice(None)] * qubit_count
                key[qa], key[qb] = va, vb
                nd[tuple(key)] *= same if va == vb else diff
    elif name == "mcx":
        *controls, target = gate.qubits
        view, adjust = _control_view(nd, controls)
        _flip(view, adjust(target))
    elif name == "csub":
        control, *register = gate.qubits
        _apply_csub(nd, control, register, gate.constant)
    else:
        raise ValueError(f"unknown gate {name!r}")
    return amplitudes


def _apply_csub(nd: np.ndarray, control: int, register: Sequence[int], constant: int):
    size = 1 << len(register)
    shift = constant % size
    if shift == 0:
        return
    view, adjust = _control_view(nd, (control,))
    axes = [adjust(q) for q in register]
    source = view.copy()

    def select(value: int):
        key: list = [slice(None)] * view.ndim
        for k, axis in enumerate(axes):
            key[axis] = (value >> k) & 1
        return tuple(key)

    for r in range(size):
        view[select((r - shift) % size)] = source[select(r)]


def run(circuit: Circuit, params=None, *, max_qubits: int = DEFAULT_MAX_QUBITS) -> StateVector:
    """Execute a circuit on |0...0> and return the final state."""
    n = circuit.qubit_count
    if n > max_qubits:
        raise QubitCountExceededError(f"{n} qubits exceeds the maximum of {max_qubits}")
    binding = _bind(circuit, params)
    amplitudes = np.zeros(1 << n, dtype=np.complex128)
    amplitudes[0] = 1.0
    for gate in circuit.gates:
        angle = _resolve_angle(gate, binding) if gate.angle is not None else None
        apply_gate(amplitudes, gate, n, angle)
    norm = float(np.vdot(amplitudes, amplitudes).real)
    if abs(norm - 1.0) > NORM_TOLERANCE:
        raise ArithmeticError(f"statevector norm drifted to {norm}")
    return StateVector(n, amplitudes)


def diagonal_energies(model: IsingModel) -> np.ndarray:
    """Energy of every basis state, ordered by basis index."""
    q = model.qubit_count
    index = np.arange(1 << q, dtype=np.int64)

    def spin(i: int) -> np.ndarray:
        return 1.0 - 2.0 * ((index >> (q - 1 - i)) & 1)

    energies = np.full(1 << q, float(model.constant))
    for i, coeff in enumerate(model.linear):
        if coeff:
            energies += float(coeff) * spin(i)
    for (i, j), coeff in model.pairwise.items():
        energies += float(coeff) * spin(i) * spin(j)
    return energies


def expectation_diagonal(state: StateVector, model: IsingModel) -> float:
    """<psi| H |psi> for a diagonal Hamiltonian, exactly from amplitudes."""
    if state.qubit_count != model.qubit_count:
        raise DimensionMismatchError(
            f"state has {state.qubit_count} qubits, model has {model.qubit_count}"
        )
    return float(state.probabilities() @ diagonal_energies(model))


@dataclass(frozen=True)
class Counts:
    counts: dict[str, int]
    shots: int


def sample_indices(state: StateVector, shots: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Multinomial measurement sample as (ascending basis indices, hits per index).

    Only indices hit at least once are returned; deterministic for a given seed.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = state.probabilities()
    probs = probs / probs.sum()
    draws = np.random.default_rng(seed).multinomial(shots, probs)
    indices = np.nonzero(draws)[0]
    return indices, draws[indices]


def sample(state: StateVector, shots: int, seed: int) -> Counts:
    """Multinomial measurement sample as bitstring counts; deterministic for a given seed."""
    indices, hits = sample_indices(state, shots, seed)
    n = state.qubit_count
    return Counts({index_to_bits(int(i), n): int(h) for i, h in zip(indices, hits)}, shots)


def circuit_to_text(circuit: Circuit) -> str:
    """One gate per line, for debugging and golden-file tests."""
    lines = [f"circuit qubits={circuit.qubit_count} params={','.join(circuit.parameters) or '-'}"]
    for gate in circuit.gates:
        fields = [gate.name, ",".join(str(q) for q in gate.qubits)]
        if isinstance(gate.angle, Param):
            scale = f"*{gate.angle.scale:g}" if gate.angle.scale != 1.0 else ""
            fields.append(f"{gate.angle.name}{scale}")
        elif gate.angle is not None:
            fields.append(f"{gate.angle:.12g}")
        if gate.constant is not None:
            fields.append(f"-{gate.constant}")
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"
