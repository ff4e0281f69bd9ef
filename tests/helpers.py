"""Shared instances and independent evaluation oracles for the tests.

direct_objective evaluates the penalized objective straight from the binary
variables (gain plus squared equality residuals); it never touches the
encoder's polynomial expansion, so it serves as the independent route when
checking IsingModel energies. brute_force_oracle is the per-string
counterpart of enumerate_solutions: check_feasible and gain on all 2^Q
strings; product_walk_oracle is its unpruned counterpart, which visits every
one of the (N + c)^P target tuples. reference_run and reference_energies
are the slow counterparts of simulator.run and simulator.diagonal_energies:
the gate-by-gate complex128 loop and the per-term energy sum, whose results
the fast paths must equal bit for bit (run: within 1e-12 once a circuit has
a cost gate). expand_cost_gates writes each cost gate as the rz/rzz gates it
stands for, and fused_run is the gate-by-gate loop with each run of rz/rzz
gates applied as one diagonal multiply: run of a circuit whose cost gates
are each followed by another kind of gate equals fused_run of its expansion
bit for bit.
reference_sample is the dense counterpart of simulator.sample: a
multinomial over every one of the 2^Q indices.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import groupby, product

import numpy as np

from qvarsched import (
    AssignmentProblem,
    OracleReport,
    VariableLayout,
    check_feasible,
    decode,
    gain,
    make_problem,
)
from qvarsched.encoder import IsingModel, penalty_weight
from qvarsched.problem import CLOUD, Assignment, assignment_index, parse_bits
from qvarsched.simulator import Circuit, Gate, Param, _bind, _resolve_angle, apply_gate

REFERENCE_WEIGHTS = (2, 1, 1)
REFERENCE_VALUES = ((2, 1), (3, 1), (2, 1))


def reference_problem(variant: str) -> AssignmentProblem:
    """The 3-process, 2-node instance used throughout the experiments."""
    thresholds = (2, 1) if variant.upper().endswith("HL") else (0, 0)
    return make_problem(variant, REFERENCE_WEIGHTS, REFERENCE_VALUES, (3, 2), thresholds)


# Printed golden Hamiltonian of the EOHL reference instance (1-based labels).
GOLDEN_CONSTANT = Fraction("55.5")
GOLDEN_LINEAR = tuple(
    Fraction(s) for s in ("12", "-10.5", "7", "-5", "6.5", "-5", "5.5", "-5.5")
)
GOLDEN_PAIRS_1BASED = {
    (1, 2): Fraction("5.5"),
    (1, 3): Fraction(11),
    (1, 5): Fraction(11),
    (1, 7): Fraction(11),
    (2, 4): Fraction(11),
    (2, 6): Fraction(11),
    (2, 8): Fraction(11),
    (3, 4): Fraction("5.5"),
    (3, 5): Fraction("5.5"),
    (3, 7): Fraction("5.5"),
    (4, 6): Fraction("5.5"),
    (4, 8): Fraction("5.5"),
    (5, 6): Fraction("5.5"),
    (5, 7): Fraction("5.5"),
    (6, 8): Fraction("5.5"),
}
GOLDEN_PAIRS = {(i - 1, j - 1): c for (i, j), c in GOLDEN_PAIRS_1BASED.items()}

# Ground truth (Q, best, feasible, total) for the four reference instances.
REFERENCE_COUNTS = {
    "EOHL": (8, 2, 4, 256),
    "EOFL": (10, 2, 4, 1024),
    "ECHL": (11, 2, 6, 2048),
    "ECFL": (13, 2, 21, 8192),
}


def direct_objective(layout: VariableLayout, bits: str) -> Fraction:
    """Penalized objective evaluated directly on the binary variables."""
    problem = layout.problem
    values = parse_bits(bits, layout.qubit_count)
    a = penalty_weight(problem)
    total = Fraction(0)
    for i, proc in enumerate(problem.processes):
        for j, v in enumerate(proc.values):
            total -= v * values[layout.assign_qubit(i, j)]
    for i in range(problem.num_processes):
        residual = 1 - sum(values[q] for q in layout.process_block(i))
        total += a * residual * residual
    for j, node in enumerate(problem.nodes):
        load = sum(
            problem.processes[i].weight * values[layout.assign_qubit(i, j)]
            for i in range(problem.num_processes)
        )
        slack = sum(values[q] << k for k, q in enumerate(layout.slack_qubits(j)))
        residual = node.capacity - load - slack
        total += a * residual * residual
    return total


def brute_force_oracle(layout: VariableLayout) -> OracleReport:
    """The oracle's report from check_feasible and gain on every one of the 2^Q strings."""
    problem, q = layout.problem, layout.qubit_count
    gains = {}
    for index in range(1 << q):
        bits = format(index, f"0{q}b")
        if check_feasible(layout, bits):
            gains[index] = gain(problem, decode(layout, bits))
    best = max(gains.values(), default=None)
    optimal = frozenset(index for index, value in gains.items() if value == best)
    return OracleReport(best, optimal, frozenset(gains), q)


def product_walk_oracle(layout: VariableLayout) -> OracleReport:
    """The oracle's report from every one of the (N + c)^P target tuples,
    each dropped only once its residuals are found not to fit."""
    problem, q = layout.problem, layout.qubit_count
    options = list(range(problem.num_nodes))
    if problem.variant.cloud_allowed:
        options.append(CLOUD)
    register_sizes = [1 << len(layout.slack_qubits(j)) for j in range(problem.num_nodes)]
    feasible: list[int] = []
    best: Fraction | None = None
    optimal: list[int] = []
    for targets in product(options, repeat=problem.num_processes):
        loads = [0] * problem.num_nodes
        for i, target in enumerate(targets):
            if target != CLOUD:
                loads[target] += problem.processes[i].weight
        residuals = [node.capacity - load for node, load in zip(problem.nodes, loads)]
        if any(not 0 <= r < size for r, size in zip(residuals, register_sizes)):
            continue
        assignment = Assignment(tuple(targets), tuple(loads), tuple(residuals))
        index = assignment_index(layout, assignment)
        feasible.append(index)
        value = gain(problem, assignment)
        if best is None or value > best:
            best = value
            optimal = []
        if value == best:
            optimal.append(index)
    return OracleReport(best, frozenset(optimal), frozenset(feasible), q)


def feasible_mask(report: OracleReport) -> np.ndarray:
    """Feasibility of every basis index, read from the oracle's feasible indices."""
    mask = np.zeros(report.total, dtype=bool)
    mask[list(report.feasible)] = True
    return mask


def direct_objective_vector(layout: VariableLayout) -> np.ndarray:
    """direct_objective for every bitstring, vectorised (exact in float64)."""
    problem, q = layout.problem, layout.qubit_count
    index = np.arange(1 << q, dtype=np.int64)

    def bit(qubit: int) -> np.ndarray:
        return ((index >> (q - 1 - qubit)) & 1).astype(np.float64)

    a = float(penalty_weight(problem))
    total = np.zeros(1 << q)
    for i, proc in enumerate(problem.processes):
        for j, v in enumerate(proc.values):
            total -= float(v) * bit(layout.assign_qubit(i, j))
    for i in range(problem.num_processes):
        residual = 1.0 - sum(bit(qb) for qb in layout.process_block(i))
        total += a * residual * residual
    for j, node in enumerate(problem.nodes):
        load = sum(
            problem.processes[i].weight * bit(layout.assign_qubit(i, j))
            for i in range(problem.num_processes)
        )
        slack = sum(
            float(1 << k) * bit(qb) for k, qb in enumerate(layout.slack_qubits(j))
        )
        residual = node.capacity - load - slack
        total += a * residual * residual
    return total


def random_problem(
    rng: np.random.Generator,
    max_qubits: int = 14,
    pow2_slack: bool = False,
    variants=("ECFL", "EOFL", "ECHL", "EOHL"),
) -> AssignmentProblem:
    """Random valid instance with at most max_qubits binary variables.

    With pow2_slack the usable capacity is drawn from {1, 3, 7} so the slack
    register range matches the residual interval exactly.
    """
    from qvarsched import qubit_count

    while True:
        variant = str(rng.choice(list(variants)))
        p = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        weights = [int(rng.integers(1, 4)) for _ in range(p)]
        choices = (0, 1, 2, 3, Fraction(1, 2), Fraction(3, 2))
        values = [
            [choices[int(rng.integers(len(choices)))] for _ in range(n)] for _ in range(p)
        ]
        high_load = variant.endswith("HL")
        capacities, thresholds = [], []
        for _ in range(n):
            if high_load:
                usable = int(rng.choice([1, 3, 7])) if pow2_slack else int(rng.integers(1, 7))
                threshold = int(rng.integers(0, 4))
                capacities.append(usable + threshold)
                thresholds.append(threshold)
            else:
                capacities.append(int(rng.choice([1, 3, 7])) if pow2_slack else int(rng.integers(1, 8)))
                thresholds.append(0)
        problem = make_problem(variant, weights, values, capacities, thresholds)
        if qubit_count(problem) <= max_qubits:
            return problem


def spy_calls(monkeypatch, module, name: str) -> list:
    """Replace module.name with a pass-through wrapper; returns its call list."""
    calls = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def reference_run(circuit: Circuit, params=None) -> np.ndarray:
    """Final amplitudes from apply_gate once per gate on a complex128 |0...0>."""
    n = circuit.qubit_count
    binding = _bind(circuit, params)
    amplitudes = np.zeros(1 << n, dtype=np.complex128)
    amplitudes[0] = 1.0
    for gate in circuit.gates:
        angle = _resolve_angle(gate, binding) if gate.angle is not None else None
        apply_gate(amplitudes, gate, n, angle)
    return amplitudes


def expand_cost_gates(circuit: Circuit) -> Circuit:
    """circuit with each cost gate replaced by one rz (one qubit) or rzz (two)
    per term (scale, qubits), in term order: at angle Param(name, p * scale)
    for a cost angle Param(name, p), at the literal angle times scale
    otherwise."""
    gates = []
    for gate in circuit.gates:
        if gate.name != "cost":
            gates.append(gate)
            continue
        for scale, qubits in gate.terms:
            angle = gate.angle
            if isinstance(angle, Param):
                angle = Param(angle.name, angle.scale * scale)
            else:
                angle = angle * scale
            gates.append(Gate("rz" if len(qubits) == 1 else "rzz", qubits, angle))
    return Circuit(circuit.qubit_count, tuple(gates), circuit.parameters)


def _fusion_key(gate):
    """Equal for consecutive rz/rzz gates that fuse: the name of the Param
    their angles scale, or "literal"; None for any other gate."""
    if gate.name not in ("rz", "rzz"):
        return None
    return gate.angle.name if isinstance(gate.angle, Param) else "literal"


def fused_run(circuit: Circuit, params=None) -> np.ndarray:
    """reference_run with each maximal run of rz/rzz gates whose angles all
    scale one Param, or are all literal, applied as one multiply by
    exp(-0.5j * (value * w)): w sums, per basis state and in gate order,
    scale times +1 where the gate's qubits have even parity and -1 at odd
    (value 1.0 and scale the angle when literal)."""
    n = circuit.qubit_count
    binding = _bind(circuit, params)
    index = np.arange(1 << n, dtype=np.int64)
    amplitudes = np.zeros(1 << n, dtype=np.complex128)
    amplitudes[0] = 1.0
    for key, group in groupby(circuit.gates, _fusion_key):
        if key is None:
            for gate in group:
                angle = _resolve_angle(gate, binding) if gate.angle is not None else None
                apply_gate(amplitudes, gate, n, angle)
            continue
        weights = np.zeros(1 << n)
        for gate in group:
            parity = sum((index >> (n - 1 - q)) & 1 for q in gate.qubits) & 1
            scale = float(gate.angle) if key == "literal" else gate.angle.scale
            weights += scale * (1.0 - 2.0 * parity)
        value = 1.0 if key == "literal" else binding[key]
        amplitudes *= np.exp(-0.5j * (value * weights))
    return amplitudes


def reference_energies(model: IsingModel) -> np.ndarray:
    """Energy of every basis index, one full-length spin product per term."""
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


def reference_sample(amplitudes: np.ndarray, shots: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(indices hit, hits) of one multinomial draw over all 2^Q basis indices."""
    probs = np.abs(amplitudes) ** 2
    draws = np.random.default_rng(seed).multinomial(shots, probs / probs.sum())
    indices = np.nonzero(draws)[0]
    return indices, draws[indices]
