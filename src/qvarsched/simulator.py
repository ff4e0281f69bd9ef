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

run() compiles each Circuit once, on its first run, into a program that the
Circuit object keeps; every later run of that object executes the program:
  - leading x gates fold into the initial basis index;
  - a circuit that opens with an h on every qubit starts from the uniform
    state instead, whose amplitude is the chain of products by 1/sqrt(2)
    that those h gates compute;
  - each run of two or more parameter-free permutation gates (x, cx, mcx,
    csub) becomes one int32 gather index, built by applying apply_gate to
    an arange;
  - each rz and rzz that leaves out some qubit is one multiply by a
    broadcast table of its phases;
  - every other gate goes through apply_gate.
A circuit made only of real gates (x, h, ry, cx, cry, mcx, csub) runs on
float64 amplitudes, any other on complex128. Either way every probability
|a|^2 equals, bit for bit, the one from applying apply_gate gate by gate to a
complex128 |0...0>. The norm is checked after every run.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
_PERMUTATION_GATES = frozenset({"x", "cx", "mcx", "csub"})
_REAL_GATES = _PERMUTATION_GATES | {"h", "ry", "cry"}


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

    @cached_property
    def _program(self) -> _Program:
        return _compile(self)


@dataclass(frozen=True, eq=False)
class _Program:
    """A circuit compiled for run().

    start is the initial basis index, or None for the uniform state; each op
    is a gather index (np.ndarray) or a Gate.
    """

    dtype: type
    start: int | None
    ops: tuple[np.ndarray | Gate, ...]


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


def _apply_phase(amplitudes: np.ndarray, gate: Gate, qubit_count: int, angle: float):
    """rz or rzz as one multiply by a table of the phases apply_gate uses."""
    low, high = np.exp(-0.5j * angle), np.exp(0.5j * angle)
    table = np.array([low, high] if gate.name == "rz" else [[low, high], [high, low]])
    shape = [1] * qubit_count
    for q in gate.qubits:
        shape[q] = 2
    nd = amplitudes.reshape((2,) * qubit_count)
    nd *= table.reshape(shape)


def _gather_index(gates: Sequence[Gate], qubit_count: int) -> np.ndarray:
    """index such that state[index] is state after the permutation gates."""
    index = np.arange(1 << qubit_count, dtype=np.int32)
    for gate in gates:
        apply_gate(index, gate, qubit_count)
    return index


def _compile(circuit: Circuit) -> _Program:
    n, gates = circuit.qubit_count, circuit.gates
    dtype = np.float64 if all(g.name in _REAL_GATES for g in gates) else np.complex128
    start, k = 0, 0
    if n and {(g.name, g.qubits) for g in gates[:n]} == {("h", (q,)) for q in range(n)}:
        start, k = None, n
    else:
        while k < len(gates) and gates[k].name == "x":
            start ^= 1 << (n - 1 - gates[k].qubits[0])
            k += 1
    ops: list[np.ndarray | Gate] = []
    while k < len(gates):
        end = k
        while end < len(gates) and gates[end].name in _PERMUTATION_GATES:
            end += 1
        if end - k >= 2:
            ops.append(_gather_index(gates[k:end], n))
            k = end
        else:
            ops.append(gates[k])
            k += 1
    return _Program(dtype, start, tuple(ops))


def _initial_state(program: _Program, qubit_count: int) -> np.ndarray:
    if program.start is None:
        # What h on each qubit of |0...0> computes: every amplitude is
        # multiplied by 1/sqrt(2) once per gate (the other term adds zero).
        amplitude = 1.0
        for _ in range(qubit_count):
            amplitude = _H[0, 0] * amplitude
        return np.full(1 << qubit_count, amplitude, dtype=program.dtype)
    amplitudes = np.zeros(1 << qubit_count, dtype=program.dtype)
    amplitudes[program.start] = 1.0
    return amplitudes


def run(circuit: Circuit, params=None, *, max_qubits: int = DEFAULT_MAX_QUBITS) -> StateVector:
    """Execute a circuit on |0...0> and return the final state."""
    n = circuit.qubit_count
    if n > max_qubits:
        raise QubitCountExceededError(f"{n} qubits exceeds the maximum of {max_qubits}")
    binding = _bind(circuit, params)
    program = circuit._program
    amplitudes = _initial_state(program, n)
    spare = None
    for op in program.ops:
        if isinstance(op, np.ndarray):
            if spare is None:
                spare = np.empty_like(amplitudes)
            np.take(amplitudes, op, out=spare, mode="clip")
            amplitudes, spare = spare, amplitudes
            continue
        angle = _resolve_angle(op, binding) if op.angle is not None else None
        # On every qubit apply_gate multiplies single elements, which numpy
        # rounds differently from an array multiply, so it keeps that case.
        if op.name in ("rz", "rzz") and len(op.qubits) < n:
            _apply_phase(amplitudes, op, n, angle)
        else:
            apply_gate(amplitudes, op, n, angle)
    norm = float(np.vdot(amplitudes, amplitudes).real)
    if abs(norm - 1.0) > NORM_TOLERANCE:
        raise ArithmeticError(f"statevector norm drifted to {norm}")
    return StateVector(n, amplitudes)


def diagonal_energies(model: IsingModel) -> np.ndarray:
    """Energy of every basis state, ordered by basis index.

    Each term adds its table of +-coeff values, broadcast over the (2,)*Q
    view, in place: linear terms first, then pairwise in dict order.
    """
    q = model.qubit_count
    energies = np.full(1 << q, float(model.constant))
    view = energies.reshape((2,) * q)
    spin = np.array([1.0, -1.0])

    def along(i: int) -> np.ndarray:
        shape = [1] * q
        shape[i] = 2
        return spin.reshape(shape)

    for i, coeff in enumerate(model.linear):
        if coeff:
            view += float(coeff) * along(i)
    for (i, j), coeff in model.pairwise.items():
        view += float(coeff) * along(i) * along(j)
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
