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
  - cost is a QAOA cost layer exp(-i g H_C) (Farhi et al.,
    arXiv:1411.4028): it stands for one rz (one qubit) or rzz (two) gate
    per term (scale, qubits), at its angle times scale.

run() compiles each Circuit once, on its first run, into a program that the
Circuit object keeps; every later run of that object executes the program.

A circuit made only of real gates (x, h, ry, cx, cry, mcx, csub), as every
a1-a4 ansatz is, becomes a support program: it runs on the basis states the
circuit can reach from |0...0>. Compile tracks them as slots, labels[k]
being the basis index slot k holds, by bit arithmetic on the labels alone:
  - a permutation gate (x, cx, mcx, csub) relabels the slots and costs
    nothing at run time;
  - an h, ry or cry gate becomes slot arrays (lo, hi) for the pairs it mixes
    that have a member in the support; an absent partner gets a new slot
    holding 0.
Run evaluates m00*a0 + m01*a1 and m10*a0 + m11*a1 on the slots, the
expression _apply_matrix evaluates, and hands the slots, in the order of the
sorted labels, to the StateVector it returns, with those labels as its
support: every amplitude outside it is +0. The state scatters the slots into
a dense float64 vector only when its amplitudes are read. Outside the support
the dense loop holds +0 or -0 where a new slot holds +0, so each amplitude
agrees with the dense loop's up to the sign of a zero: a zero term
m*(+-0) = +-0 leaves a nonzero sum unchanged, and a sum of zeros is a zero.
As |+-0|^2 = +0, every probability equals the gate-by-gate loop's bit for
bit, whatever the size of the support.

Any other circuit (QAOA) becomes a dense program that updates all 2^Q
complex128 amplitudes:
  - a circuit that opens with an h on every qubit starts from the uniform
    state instead, whose amplitude is the chain of products by 1/sqrt(2)
    that those h gates compute;
  - each cost gate is one diagonal op: its terms' phases multiply amplitude z
    by exp(-0.5j * value * w(z)), w(z) the sum over its terms of p * s(z),
    p the term's scale times the Param's (value 1.0 and p times the angle if
    literal), s(z) = +1 at even parity of the term's qubits in z, -1 at odd.
    Compile builds w with _parity_sums, in term order, and keeps its
    distinct values (levels) and each amplitude's index into them, shared by
    cost gates with the same terms, as QAOA layers are. Run exponentiates
    the levels, gathers them into a spare buffer and multiplies the state
    by it;
  - each maximal run of consecutive rx gates at one angle (one Param name
    and scale, or one literal) is one mixer op, as a QAOA mixer layer is.
    Run builds its rx matrix once and, for each gate's qubit q in turn,
    copies the partner of every amplitude (a1 at a0, a0 at a1, on the
    (2^q, 2, 2^(Q-1-q)) view that pairs them) into the spare buffer with
    np.take, multiplies it by m01 and the state by m00, both in place and
    contiguous, and adds the two. As rx has m10 = m01 and m11 = m00, that
    is the m00*a0 + m01*a1 and m10*a0 + m11*a1 of _apply_matrix, the second
    sum with its terms in the other order, which IEEE addition does not
    round differently. The copy moves bytes, and numpy's array multiply
    rounds alike in contiguous and strided loops, so a mixer op gives the
    bytes of its rx gates applied one by one with apply_gate;
  - every other gate, rz and rzz included, goes through apply_gate, and so
    does an rx on every qubit (Q = 1), where apply_gate multiplies single
    elements, which numpy rounds differently from an array multiply.
Outside the diagonal ops each amplitude thus receives the same float
operations, in the same order, as from applying apply_gate gate by gate, so
a circuit with no cost gate gives that loop's amplitudes bit for bit. Only a
cost gate rounds differently from its phase gates one by one (at most
1.1e-14 apart on the QAOA circuits of problems/ at 1-3 layers, 50 random
points each); it equals bit for bit one multiply by
exp(-0.5j * (value * w)), w summed per basis state in term order.

Gate and Circuit check a circuit once, when it is built (see their
docstrings); compile and the kernels trust it. run() rejects a non-finite
parameter value or resolved angle (Param scale times value) with
ArithmeticError before any gate, and checks the norm after every run, on the
support for a support program: a norm that is not finite, as when a finite
value times a cost gate's w overflows, fails that check too.

A support state's probabilities_into squares only the support and writes
it into a vector that is +0 elsewhere, which is |a|^2 of every amplitude bit
for bit; the exact objective keeps one such vector for all its evaluations,
and probabilities() writes into new zeros. sample, which returns the basis
indices hit and the hits on each (the package's one form of a sample),
draws one multinomial over ascending basis indices, the support of a
support state, up to the last with p > 0. Generator.multinomial draws a
binomial for every category but the last, which gets the draws left over;
for p = 0 that binomial returns 0 and uses no random numbers. So every hit
has p > 0, and every index before the last gets the draws of one
multinomial over all 2^Q indices.

_parity_sums, which builds diagonal_energies and each diagonal op's w,
views the 2^Q sums as rows of 2^k contiguous entries (k = _ROW_QUBITS, or Q
if smaller): the first Q - k qubits pick the row and the last k the entry in
it. For each sign pattern of a term's qubits above the row it adds, with +=,
one row holding the term's +-coeff values over its qubits inside the row to
the rows with that pattern. Each sum receives the same float adds, in the
same order, as from one broadcast table per term over the (2,)*Q view;
coeff times +-1.0 is exact, sign of zero included, in any order of the
factors. energies_at makes the same adds, term by term, at given basis
indices only, from one row of +-1.0 per qubit, so it equals the table there
bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import groupby, product
from math import cos, isfinite, sin
from typing import Mapping, Sequence

import numpy as np

from .encoder import IsingModel, to_terms
from .errors import UnboundParameterError, check_count, check_integer, check_real, check_seed

NORM_TOLERANCE = 1e-9

# Each kind's operand count: (fewest, most), most None for no limit.
_OPERANDS = {
    **dict.fromkeys(("x", "h", "rx", "ry", "rz"), (1, 1)),
    **dict.fromkeys(("cx", "cry", "rzz"), (2, 2)),
    "mcx": (1, None),
    "csub": (2, None),
    "cost": (1, None),
}
GATE_NAMES = tuple(_OPERANDS)
_PERMUTATION_GATES = frozenset({"x", "cx", "mcx", "csub"})
_REAL_GATES = _PERMUTATION_GATES | {"h", "ry", "cry"}
_ANGLE_GATES = frozenset({"rx", "ry", "rz", "cry", "rzz", "cost"})
# diagonal_energies adds rows of 2^_ROW_QUBITS entries (32 KiB of float64).
_ROW_QUBITS = 12


@dataclass(frozen=True)
class Param:
    """Named parameter slot; the bound angle is scale * value, scale a float by check_real."""

    name: str
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "scale", check_real(f"parameter {self.name!r}: scale", self.scale))


@dataclass(frozen=True)
class Gate:
    """One gate application.

    qubits: operands in gate-specific order — (control, target) for cx/cry,
    (*controls, target) for mcx, (control, *register) for csub.
    terms: a cost gate's (scale, qubits) pairs, each standing for an rz (one
    qubit) or rzz (two) gate at angle times scale.

    Built, it checks (ValueError naming the gate) its name (a str in
    GATE_NAMES) and operand count, distinct operands >= 0 (a sequence of
    integers by check_integer, so no bool; kept as a tuple of ints), an angle
    just for rx/ry/rz/cry/rzz/cost, an integer constant just for csub, and
    terms just for cost, each on one or two of its qubits; and a literal
    angle and every term scale by check_real, kept as floats.
    """

    name: str
    qubits: tuple[int, ...]
    angle: float | Param | None = None
    constant: int | None = None
    terms: tuple[tuple[float, tuple[int, ...]], ...] = ()

    def __post_init__(self):
        gate = f"gate {self.name!r} on {self.qubits!r}"
        if not isinstance(self.name, str) or self.name not in _OPERANDS:
            raise ValueError(f"unknown {gate}")
        operand, real = partial(check_integer, f"{gate}: operand"), partial(check_real, f"{gate}: term scale")
        try:
            qubits = tuple(map(operand, self.qubits))
            terms = tuple((real(scale), tuple(map(operand, t))) for scale, t in self.terms)
        except TypeError:
            raise ValueError(f"{gate}: operands and terms must be sequences") from None
        distinct, (fewest, most) = set(qubits), _OPERANDS[self.name]
        if min(qubits, default=0) < 0 or len(distinct) < len(qubits):
            raise ValueError(f"{gate}: operands must be distinct and >= 0")
        if not fewest <= len(qubits) <= (most or len(qubits)):
            raise ValueError(f"{gate}: takes {fewest if most else f'at least {fewest}'} operands")
        exactly = (("angle", self.angle, _ANGLE_GATES), ("constant", self.constant, {"csub"}))
        for field, value, kinds in exactly:
            if (value is None) == (self.name in kinds):
                raise ValueError(f"{gate}: {field} is {'missing' if value is None else 'not allowed'}")
        if terms and self.name != "cost":
            raise ValueError(f"{gate}: terms are not allowed")
        if not all(1 <= len(set(t)) == len(t) <= 2 and set(t) <= distinct for _, t in terms):
            raise ValueError(f"{gate}: a term is not on one or two of its qubits")
        angle = self.angle
        if angle is not None and not isinstance(angle, Param):
            angle = check_real(f"{gate}: angle", angle)
        constant = None if self.constant is None else check_integer(f"{gate}: constant", self.constant)
        for field, value in (("qubits", qubits), ("angle", angle), ("constant", constant), ("terms", terms)):
            object.__setattr__(self, field, value)


@dataclass(frozen=True)
class Circuit:
    """Gates on qubit_count qubits, and the Param names values bind, in order.
    Built, it checks (ValueError naming the gate's index) that each gate is a
    Gate, that qubit_count is an integer >= 0 above every operand, and that
    the parameter names are unique and name every Param; gates and
    parameters are kept as tuples."""

    qubit_count: int
    gates: tuple[Gate, ...]
    parameters: tuple[str, ...]

    def __post_init__(self):
        n = check_count("qubit_count", self.qubit_count, 0, None)
        gates, parameters = tuple(self.gates), tuple(self.parameters)
        if len(set(parameters)) < len(parameters):
            raise ValueError(f"parameter names repeat in {parameters}")
        for i, g in enumerate(gates):
            if not isinstance(g, Gate):
                raise ValueError(f"gate {i} is not a Gate: {g!r}")
            if max(g.qubits) >= n:
                raise ValueError(f"gate {i} ({g.name} on {g.qubits}) acts on a qubit >= {n}")
            if isinstance(g.angle, Param) and g.angle.name not in parameters:
                raise ValueError(f"gate {i} ({g.name} on {g.qubits}): {g.angle.name!r} is not a parameter")
        for field, value in (("qubit_count", n), ("gates", gates), ("parameters", parameters)):
            object.__setattr__(self, field, value)

    @cached_property
    def _program(self) -> _DenseProgram | _SupportProgram:
        return _compile(self)

    @property
    def support(self) -> np.ndarray | None:
        """Ascending basis indices outside which every state it runs to is +0;
        None for a dense program."""
        return self._program.support


class StateVector:
    """A state of qubit_count qubits.

    support, when set, holds ascending basis indices outside which every
    amplitude is +0, and held the amplitudes at them; otherwise held is every
    amplitude. amplitudes is the dense vector: held, or, for a support state,
    held scattered when first read.
    """

    def __init__(self, qubit_count: int, amplitudes: np.ndarray, support: np.ndarray | None = None):
        size = 1 << qubit_count if support is None else len(support)
        if len(amplitudes) != size:
            raise ValueError(f"{len(amplitudes)} amplitudes for {size} basis states")
        self.qubit_count, self.support, self.held = qubit_count, support, amplitudes

    @cached_property
    def amplitudes(self) -> np.ndarray:
        if self.support is None:
            return self.held
        amplitudes = np.zeros(1 << self.qubit_count, dtype=self.held.dtype)
        amplitudes[self.support] = self.held
        return amplitudes

    def probabilities(self) -> np.ndarray:
        """|a|^2 of every amplitude, in a new vector."""
        return self.probabilities_into(np.zeros(1 << self.qubit_count))

    def probabilities_into(self, out: np.ndarray) -> np.ndarray:
        """Write |a|^2 of every amplitude into the float64 vector out and
        return it. With a support only the support is squared and written,
        so out must already be +0 outside it (see the module docstring)."""
        if self.support is None:
            np.abs(self.held, out=out)
            out **= 2
        else:
            out[self.support] = np.abs(self.held) ** 2
        return out


def index_to_bits(index: int, qubit_count: int) -> str:
    return format(index, f"0{qubit_count}b")


def _resolve_angle(gate: Gate, binding: Mapping[str, float]) -> float | None:
    if not isinstance(gate.angle, Param):
        return gate.angle  # None, or a float by construction
    try:
        return gate.angle.scale * binding[gate.angle.name]
    except KeyError:
        raise UnboundParameterError(f"parameter {gate.angle.name!r} is not bound")


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
    unknown = [name for name in binding if name not in circuit.parameters]
    if unknown:
        raise UnboundParameterError(f"unknown parameters: {', '.join(unknown)}")
    return binding


_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
_SWAP = np.array([1, 0])  # a mixer's swap takes the halves in this order


def _matrix(name: str, angle: float | None) -> np.ndarray:
    """The 2x2 matrix a mixer applies to its target: H, RX or, for ry and
    cry, RY. Callers pass only mixer names."""
    if name == "h":
        return _H
    c, s = cos(angle / 2.0), sin(angle / 2.0)
    if name == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]])
    return np.array([[c, -s], [s, c]])


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
    """Apply a single gate (with literal or pre-resolved angle) in place.

    The gates fall into three families plus csub and cost:
      - parity phases (rz, rzz) multiply each slice of the gate's qubits by
        exp(-0.5j * angle) at even parity and exp(0.5j * angle) at odd;
      - controlled flips (x, cx, mcx) swap the target's halves of the view
        where every control is 1, all of it for no controls;
      - controlled 2x2 mixers (h, rx, ry, cry) apply _matrix to the target
        on that view;
      - a cost gate applies each term's parity phase at angle * scale; an
        rz or rzz is one term of scale 1.0.
    """
    nd = amplitudes.reshape((2,) * qubit_count)
    name = gate.name
    if angle is None and gate.angle is not None:
        angle = _resolve_angle(gate, {})

    if name in ("rz", "rzz", "cost"):
        for scale, qubits in gate.terms if name == "cost" else ((1.0, gate.qubits),):
            for bits in product((0, 1), repeat=len(qubits)):
                key: list = [slice(None)] * qubit_count
                for q, bit in zip(qubits, bits):
                    key[q] = bit
                nd[tuple(key)] *= np.exp((0.5j if sum(bits) % 2 else -0.5j) * (angle * scale))
    elif name == "csub":
        control, *register = gate.qubits
        _apply_csub(nd, control, register, gate.constant)
    else:
        *controls, target = gate.qubits
        view, adjust = _control_view(nd, controls)
        if name in _PERMUTATION_GATES:
            _flip(view, adjust(target))
        else:
            _apply_matrix(view, _matrix(name, angle), adjust(target))
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


def _bits(qubits: Sequence[int], qubit_count: int) -> int:
    """The basis-index bits that stand for qubits."""
    return sum(1 << (qubit_count - 1 - q) for q in qubits)


def _relabel(labels: np.ndarray, gate: Gate, qubit_count: int) -> np.ndarray:
    """The basis index each of labels moves to under a permutation gate."""
    if gate.name != "csub":
        *controls, target = gate.qubits
        mask = _bits(controls, qubit_count)
        return np.where((labels & mask) == mask, labels ^ _bits((target,), qubit_count), labels)
    control, *register = gate.qubits
    value = np.zeros_like(labels)
    for k, q in enumerate(register):
        value |= ((labels >> (qubit_count - 1 - q)) & 1) << k
    value = (value - gate.constant) % (1 << len(register))
    moved = labels & ~_bits(register, qubit_count)
    for k, q in enumerate(register):
        moved |= ((value >> k) & 1) << (qubit_count - 1 - q)
    return np.where(labels & _bits((control,), qubit_count), moved, labels)


@dataclass(frozen=True, eq=False)
class _SupportProgram:
    """A real-gate circuit run on the basis states it can reach from |0...0>.

    Slot 0 starts as |0...0> with amplitude 1; support[k] is the basis index
    slot order[k] holds at the end. Each op is an h, ry or cry gate, its
    position and the slot arrays (lo, hi) of the amplitude pairs it mixes.
    """

    order: np.ndarray
    support: np.ndarray
    ops: tuple[tuple[Gate, int, np.ndarray, np.ndarray], ...]

    def execute(self, qubit_count: int, binding: Mapping[str, float], angles: list) -> np.ndarray:
        """The amplitudes at the support, in its order."""
        slots = np.zeros(len(self.order))
        slots[0] = 1.0
        for gate, position, lo, hi in self.ops:
            matrix = _matrix(gate.name, angles[position])
            # The expression _apply_matrix evaluates, on the slots.
            a0, a1 = slots[lo], slots[hi]
            slots[lo] = matrix[0, 0] * a0 + matrix[0, 1] * a1
            slots[hi] = matrix[1, 0] * a0 + matrix[1, 1] * a1
        return slots[self.order]


@dataclass(frozen=True, eq=False)
class _DenseProgram:
    """A circuit run on all 2^Q complex128 amplitudes (see the module docstring).

    uniform marks a circuit whose leading h on every qubit is folded into
    the uniform state. ops are (kernel, gate, position, data), one per gate
    after that prefix, position being the gate's index in the circuit:
      - ("diagonal", cost, (levels, inverse)): a cost gate; levels are the
        distinct values of its w, which holds its angle's scale or literal
        value, and inverse each amplitude's level;
      - ("mixer", rx, shapes): a run of rx gates at one angle, rx the
        first; shapes holds, per gate on qubit q, the (2^q, 2, 2^(Q-1-q))
        view that pairs the amplitudes it mixes;
      - ("gate", gate, None): a call to apply_gate.
    """

    uniform: bool
    ops: tuple[tuple[str, Gate, int, object], ...]
    support = None

    def execute(self, qubit_count: int, binding: Mapping[str, float], angles: list) -> np.ndarray:
        if self.uniform:
            # What h on each qubit of |0...0> computes: every amplitude is
            # multiplied by 1/sqrt(2) once per gate (the other term adds zero).
            amplitude = 1.0
            for _ in range(qubit_count):
                amplitude = _H[0, 0] * amplitude
            amplitudes = np.full(1 << qubit_count, amplitude, dtype=np.complex128)
        else:
            amplitudes = np.zeros(1 << qubit_count, dtype=np.complex128)
            amplitudes[0] = 1.0
        # A mixer's partner products and a diagonal's phases.
        spare = np.empty_like(amplitudes)
        for kernel, gate, position, data in self.ops:
            if kernel == "diagonal":
                # exp(-0.5j * value * w) at every amplitude; mode="clip" lets
                # take write into spare, where "raise" buffers its output.
                value = binding[gate.angle.name] if isinstance(gate.angle, Param) else 1.0
                levels, inverse = data
                np.take(np.exp(-0.5j * (value * levels)), inverse, out=spare, mode="clip")
                np.multiply(amplitudes, spare, out=amplitudes)
            elif kernel == "mixer":
                # Per qubit, spare gets a1 at a0 and a0 at a1, then times
                # m01; the state m00 * a0 and m11 * a1 in place.
                # 0-d views: numpy would convert scalars on every call.
                matrix = _matrix("rx", angles[position])
                m00, m01 = matrix[0, 0, ...], matrix[0, 1, ...]
                for shape in data:
                    swapped = spare.reshape(shape)
                    np.take(amplitudes.reshape(shape), _SWAP, axis=1, out=swapped, mode="clip")
                    np.multiply(m01, spare, out=spare)
                    np.multiply(m00, amplitudes, out=amplitudes)
                    np.add(amplitudes, spare, out=amplitudes)
            else:
                apply_gate(amplitudes, gate, qubit_count, angles[position])
        return amplitudes


def _mixer_key(gate: Gate, n: int):
    """Equal for consecutive rx gates that share a mixer op: their Param's
    name and scale, or their literal, to the bit; None for any other gate,
    and for rx on a single qubit, which stays with apply_gate."""
    if gate.name != "rx" or n == 1:
        return None
    angle = gate.angle
    if isinstance(angle, Param):
        return "param", angle.name, angle.scale.hex()
    return "literal", angle.hex()


def _compile_dense(circuit: Circuit) -> _DenseProgram:
    n, gates = circuit.qubit_count, circuit.gates
    prefix = {(g.name, g.qubits) for g in gates[:n]}
    uniform = n > 0 and prefix == {("h", (q,)) for q in range(n)}
    start = n if uniform else 0
    ops: list = []
    # (levels, inverse) per cost gate's w terms: every QAOA layer shares one.
    diagonals: dict = {}
    for key, group in groupby(enumerate(gates[start:], start), lambda item: _mixer_key(item[1], n)):
        group = list(group)
        if key is not None:
            position, gate = group[0]
            shapes = tuple((1 << g.qubits[0], 2, 1 << (n - 1 - g.qubits[0])) for _, g in group)
            ops.append(("mixer", gate, position, shapes))
            continue
        for position, gate in group:
            if gate.name != "cost":
                ops.append(("gate", gate, position, None))
                continue
            # Each term's angle scale; run multiplies by the value.
            scale = gate.angle.scale if isinstance(gate.angle, Param) else gate.angle
            terms = tuple((scale * s, qubits) for s, qubits in gate.terms)
            if terms not in diagonals:
                # unique then searchsorted: half the time of return_inverse
                # at Q=23, same indices.
                weights = _parity_sums(n, 0.0, terms)
                levels = np.unique(weights)
                diagonals[terms] = levels, np.searchsorted(levels, weights)
            ops.append(("diagonal", gate, position, diagonals[terms]))
    return _DenseProgram(uniform, tuple(ops))


def _compile_support(circuit: Circuit) -> _SupportProgram:
    n = circuit.qubit_count
    labels = np.zeros(1, dtype=np.int64)
    ops = []
    for position, gate in enumerate(circuit.gates):
        if gate.name in _PERMUTATION_GATES:
            labels = _relabel(labels, gate, n)
            continue
        *controls, target = gate.qubits
        mask, bit = _bits(controls, n), _bits((target,), n)
        slots = np.flatnonzero((labels & mask) == mask)
        held = labels[slots]
        partners = held ^ bit
        order = np.argsort(labels)
        found = np.searchsorted(labels, partners, sorter=order).clip(max=len(labels) - 1)
        partner_slots = order[found]
        missing = labels[partner_slots] != partners
        partner_slots[missing] = len(labels) + np.arange(np.count_nonzero(missing))
        labels = np.concatenate((labels, partners[missing]))
        # Each pair once: from its low member, or from a high member alone.
        low = (held & bit) == 0
        pairs = low | missing
        lo = np.where(low, slots, partner_slots)[pairs]
        hi = np.where(low, partner_slots, slots)[pairs]
        ops.append((gate, position, lo, hi))
    order = np.argsort(labels)
    return _SupportProgram(order, labels[order], tuple(ops))


def _compile(circuit: Circuit) -> _DenseProgram | _SupportProgram:
    if all(g.name in _REAL_GATES for g in circuit.gates):
        return _compile_support(circuit)
    return _compile_dense(circuit)


def run(circuit: Circuit, params=None) -> StateVector:
    """Execute a circuit on |0...0> and return the final state. No width is
    checked: a dense program allocates two 2^Q complex128 vectors, and the
    caller is responsible for the circuit's size."""
    n = circuit.qubit_count
    binding = _bind(circuit, params)
    if not all(map(isfinite, binding.values())):
        bad = ", ".join(f"{name}={value}" for name, value in binding.items() if not isfinite(value))
        raise ArithmeticError(f"non-finite parameter values: {bad}")
    # Each gate's angle, resolved once; every op reads its own by position.
    angles = [None if g.angle is None else _resolve_angle(g, binding) for g in circuit.gates]
    bad = [(g, a) for g, a in zip(circuit.gates, angles) if isinstance(g.angle, Param) and not isfinite(a)]
    if bad:
        text = ", ".join(f"{g.name}({g.angle.scale} * {g.angle.name} = {a}) on {g.qubits}" for g, a in bad)
        raise ArithmeticError(f"non-finite resolved angles: {text}")
    program = circuit._program
    # Every amplitude, or a support program's amplitudes at its support,
    # outside which every amplitude is +0.
    held = program.execute(n, binding, angles)
    norm = float(np.vdot(held, held).real)
    # Written so that a NaN norm fails it too.
    if not abs(norm - 1.0) <= NORM_TOLERANCE:
        raise ArithmeticError(f"statevector norm drifted to {norm}")
    return StateVector(n, held, program.support)


def _parity_sums(qubit_count: int, start: float, terms) -> np.ndarray:
    """start plus, term by term, coeff times the parity sign of the term's
    qubits (+1 at even parity, -1 at odd) at every basis index: terms are
    (coeff, qubits) pairs of floats and qubit tuples.

    Each term adds its +-coeff values in place, as rows of 2^_ROW_QUBITS
    contiguous entries (see the module docstring).
    """
    q = qubit_count
    width = min(q, _ROW_QUBITS)
    top = q - width  # qubits 0..top-1 pick the row
    sums = np.full(1 << q, start)
    rows = sums.reshape((2,) * top + (1 << width,))
    entry = np.arange(1 << width)
    spin = (1.0, -1.0)
    for coeff, qubits in terms:
        row = coeff
        for i in qubits:
            if i >= top:
                row = row * (1.0 - 2.0 * ((entry >> (q - 1 - i)) & 1))
        above = [i for i in qubits if i < top]
        for bits in product((0, 1), repeat=len(above)):
            key: list = [slice(None)] * top
            value = row
            for i, bit in zip(above, bits):
                key[i] = bit
                value = value * spin[bit]
            rows[tuple(key)] += value
    return sums


def diagonal_energies(model: IsingModel) -> np.ndarray:
    """Energy of every basis state, ordered by basis index: the constant,
    then the other terms in to_terms order, added by _parity_sums."""
    (_, constant), *terms = to_terms(model)
    terms = [(float(coeff), qubits) for qubits, coeff in terms]
    return _parity_sums(model.qubit_count, float(constant), terms)


def energies_at(model: IsingModel, indices) -> np.ndarray:
    """diagonal_energies(model)[indices], bit for bit, without the 2^Q table.

    Each term adds its +-coeff values in the order diagonal_energies adds
    them, one elementwise += per term, and coeff times +-1.0 is exact. The
    +-1.0 of every qubit at every index is built once, as spins[qubit].
    """
    indices = np.asarray(indices, dtype=np.int64)
    q = model.qubit_count
    shifts = np.arange(q - 1, -1, -1, dtype=np.int64)[:, None]
    spins = 1.0 - 2.0 * ((indices >> shifts) & 1)
    (_, constant), *terms = to_terms(model)
    energies = np.full(len(indices), float(constant))
    for qubits, coeff in terms:
        value = float(coeff)
        for i in qubits:
            value = value * spins[i]
        energies += value
    return energies


@dataclass(frozen=True, eq=False)
class Counts:
    """A measurement sample: the ascending basis indices hit and the hits on each."""

    qubit_count: int
    indices: np.ndarray
    counts: np.ndarray

    @property
    def shots(self) -> int:
        return int(self.counts.sum())


def sample(state: StateVector, shots: int, seed: int, out: np.ndarray | None = None) -> Counts:
    """Multinomial measurement sample; deterministic for a given seed, an
    integer >= 0 by check_seed (None, which draws OS entropy, is a ValueError).

    Every index hit has p > 0 (see the module docstring). Given out, the
    probabilities are written into it by state.probabilities_into.
    """
    check_count("shots", shots)
    check_seed("seed", seed)
    probs = state.probabilities() if out is None else state.probabilities_into(out)
    total = probs.sum()
    if state.support is not None:
        probs = probs[state.support]
    probs = probs[: len(probs) - np.argmax(probs[::-1] != 0)]
    draws = np.random.default_rng(seed).multinomial(shots, probs / total)
    hit = np.nonzero(draws)[0]
    indices = hit if state.support is None else state.support[hit]
    return Counts(state.qubit_count, indices, draws[hit])
