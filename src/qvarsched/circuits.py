"""Ansatz and QAOA builders, the algorithm names that select them, and gate accounting.

All four variational ansatzes share the same one-hot preparation per process
block of K = N - 1 + c + 1 qubits: an X on the first qubit, a chain of K - 1
CRY gates cascading down the block, then the reversed CNOT chain. The result
is a Hamming-weight-1 superposition whose amplitudes are
(cos t1/2, sin t1/2 cos t2/2, ..., sin t1/2 ... sin t_{K-1}/2).

Slack preparation differs per ansatz:
  a1  independent RY on every slack qubit;
  a2  two repetitions of [RY layer, ring-CNOT layer] across all slack qubits
      (ring entanglers are emitted brick-wise so disjoint pairs schedule in
      parallel);
  a3  as a2 but with a linear CNOT chain inside each node's register;
  a4  no slack parameters: registers are initialised to the node capacity
      (mod register size) with X gates, then a csub controlled on each
      assignment qubit subtracts the process weight from the node register.

Accounting (metrics): csub has no native two-qubit cost; it is expanded, for
counting only, into controlled ripple decrements — one decrement of the top
m - t register bits per set bit t of the subtrahend, each a chain of
multi-controlled X gates. An MCX with c controls is charged 1 gate / depth 1
for c = 1 and 2c^2 - 2c + 2 gates / depth 2c for c >= 2 (quadratic size,
linear depth); cx, cry and rzz are charged as an MCX with one control, and
a QAOA cost gate by its terms, as one rzz per pair term. Depth is greedy
as-soon-as-possible layering of two-qubit work; single-qubit gates are
ignored.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .encoder import IsingModel, to_terms
from .errors import check_count
from .problem import VariableLayout
from .simulator import Circuit, Gate, Param


@dataclass(frozen=True)
class CircuitMetrics:
    parameter_count: int
    two_qubit_gates: int
    two_qubit_depth: int


class _Builder:
    def __init__(self, qubit_count: int):
        self.qubit_count = qubit_count
        self.gates: list[Gate] = []
        self.parameters: list[str] = []

    def fresh_param(self) -> Param:
        name = f"t{len(self.parameters)}"
        self.parameters.append(name)
        return Param(name)

    def done(self) -> Circuit:
        return Circuit(self.qubit_count, tuple(self.gates), tuple(self.parameters))


def _one_hot_block(b: _Builder, qubits: tuple[int, ...]):
    """Prepare a weight-1 superposition over a process block."""
    b.gates.append(Gate("x", (qubits[0],)))
    for t in range(len(qubits) - 1):
        b.gates.append(Gate("cry", (qubits[t], qubits[t + 1]), b.fresh_param()))
    for t in range(len(qubits) - 1):
        b.gates.append(Gate("cx", (qubits[t + 1], qubits[t])))


def _assignment_blocks(b: _Builder, layout: VariableLayout):
    for i in range(layout.problem.num_processes):
        _one_hot_block(b, layout.process_block(i))


def _all_slack(layout: VariableLayout) -> tuple[int, ...]:
    return tuple(
        q for j in range(layout.problem.num_nodes) for q in layout.slack_qubits(j)
    )


def _ring_pairs(qubits: tuple[int, ...]) -> list[tuple[int, int]]:
    """Ring entangler pairs, even-start pairs first so bricks overlap less."""
    size = len(qubits)
    if size < 2:
        return []
    pairs = [(qubits[i], qubits[(i + 1) % size]) for i in range(size)]
    return pairs[0::2] + pairs[1::2]


def build_a1(layout: VariableLayout) -> Circuit:
    """One-hot blocks plus an independent RY on every slack qubit."""
    b = _Builder(layout.qubit_count)
    _assignment_blocks(b, layout)
    for q in _all_slack(layout):
        b.gates.append(Gate("ry", (q,), b.fresh_param()))
    return b.done()


def build_a2(layout: VariableLayout) -> Circuit:
    """One-hot blocks plus a two-local layer entangling all slack qubits."""
    b = _Builder(layout.qubit_count)
    _assignment_blocks(b, layout)
    slack = _all_slack(layout)
    for _ in range(2):
        for q in slack:
            b.gates.append(Gate("ry", (q,), b.fresh_param()))
        for control, target in _ring_pairs(slack):
            b.gates.append(Gate("cx", (control, target)))
    return b.done()


def build_a3(layout: VariableLayout) -> Circuit:
    """As a2, but entanglement stays inside each node's slack register."""
    b = _Builder(layout.qubit_count)
    _assignment_blocks(b, layout)
    for _ in range(2):
        for j in range(layout.problem.num_nodes):
            register = layout.slack_qubits(j)
            for q in register:
                b.gates.append(Gate("ry", (q,), b.fresh_param()))
            for t in range(len(register) - 1):
                b.gates.append(Gate("cx", (register[t], register[t + 1])))
    return b.done()


def build_a4(layout: VariableLayout) -> Circuit:
    """One-hot blocks; slack registers computed from the assignment qubits.

    Each register starts at the node capacity (mod register size) and one
    csub per (process, node) pair subtracts the weight when the assignment
    qubit is set, so every supported basis state carries
    slack = (capacity - load) mod 2^m. Cloud qubits touch no register.
    """
    problem = layout.problem
    b = _Builder(layout.qubit_count)
    _assignment_blocks(b, layout)
    for j, node in enumerate(problem.nodes):
        register = layout.slack_qubits(j)
        initial = node.capacity % (1 << len(register))
        for k, q in enumerate(register):
            if (initial >> k) & 1:
                b.gates.append(Gate("x", (q,)))
    for i in range(problem.num_processes):
        weight = problem.processes[i].weight
        for j in range(problem.num_nodes):
            register = layout.slack_qubits(j)
            b.gates.append(
                Gate("csub", (layout.assign_qubit(i, j), *register), constant=weight)
            )
    return b.done()


ANSATZ_BUILDERS = {"a1": build_a1, "a2": build_a2, "a3": build_a3, "a4": build_a4}
ALGORITHMS = (*ANSATZ_BUILDERS, "qaoa")  # the names vqa.build_circuit takes


def check_algorithm(algorithm: str, reps: int = 1):
    """Raise ValueError unless algorithm is in ALGORITHMS as written and reps fits it."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    check_count("reps", reps, maximum=None)
    if reps != 1 and algorithm != "qaoa":
        raise ValueError(f"reps applies to qaoa only, got reps {reps} for {algorithm}")


def build_ansatz(kind: str, layout: VariableLayout) -> Circuit:
    if not isinstance(kind, str) or kind not in ANSATZ_BUILDERS:
        raise ValueError(f"unknown ansatz {kind!r}, expected one of {sorted(ANSATZ_BUILDERS)}")
    return ANSATZ_BUILDERS[kind](layout)


def build_qaoa(model: IsingModel, reps: int) -> Circuit:
    """Uniform superposition, then reps blocks of cost layer + RX mixer.

    Cost layer: one cost gate at angle g with a term (2 coeff, qubits) per
    linear and pair term of to_terms, so RZ(2 g coeff) and RZZ(2 g coeff);
    mixer: RX(2 b) on every qubit. Parameters are (g0, b0, g1, b1, ...).
    """
    check_algorithm("qaoa", reps)
    n = model.qubit_count
    terms = tuple((2.0 * float(coeff), qubits) for qubits, coeff in to_terms(model)[1:])
    gates = [Gate("h", (q,)) for q in range(n)]
    parameters: list[str] = []
    for r in range(reps):
        gamma, beta = f"g{r}", f"b{r}"
        parameters += [gamma, beta]
        gates.append(Gate("cost", tuple(range(n)), Param(gamma), terms=terms))
        gates += [Gate("rx", (q,), Param(beta, 2.0)) for q in range(n)]
    return Circuit(n, tuple(gates), tuple(parameters))


def _mcx_cost(controls: int) -> tuple[int, int]:
    """(gate cost, depth cost) of a flip with that many controls: none is an
    x and costs nothing, one is a cx."""
    if controls <= 1:
        return controls, controls
    return 2 * controls * controls - 2 * controls + 2, 2 * controls


def _accounting_units(circuit: Circuit) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """(qubits, gate cost, depth cost) per two-qubit unit, cost and csub expanded."""
    for gate in circuit.gates:
        if gate.name == "cost":  # an rzz per pair term
            yield from ((qubits, *_mcx_cost(1)) for _, qubits in gate.terms if len(qubits) == 2)
        elif gate.name in ("cx", "cry", "rzz", "mcx"):
            cost, duration = _mcx_cost(len(gate.qubits) - 1)
            yield gate.qubits, cost, duration
        elif gate.name == "csub":
            control, *register = gate.qubits
            m = len(register)
            shift = gate.constant % (1 << m)
            for t in range(m):
                if not (shift >> t) & 1:
                    continue
                # Decrement of register bits t..m-1, controlled on `control`:
                # one MCX per affected bit, borrowing from the bits below it.
                for u in range(t, m):
                    qubits = (control, *register[t:u], register[u])
                    cost, duration = _mcx_cost(len(qubits) - 1)
                    yield qubits, cost, duration


def metrics(circuit: Circuit) -> CircuitMetrics:
    """Parameter count, two-qubit gate count, two-qubit ASAP depth."""
    total = 0
    finish = [0] * circuit.qubit_count
    depth = 0
    for qubits, cost, duration in _accounting_units(circuit):
        total += cost
        start = max(finish[q] for q in qubits)
        end = start + duration
        for q in qubits:
            finish[q] = end
        depth = max(depth, end)
    return CircuitMetrics(len(circuit.parameters), total, depth)
