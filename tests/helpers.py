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
gate_unitary and dense_state are the explicit-matrix counterparts of
simulator.apply_gate and simulator.run: gate_unitary builds one gate as a
2^n x 2^n matrix by basis-state mapping, and dense_state multiplies |0...0>
by those matrices in gate order (up to DENSE_MAX_QUBITS qubits unless told
otherwise). They share no kernel code with the simulator; they read
phase_gates only for the gates a cost gate stands for.
qaoa1_expectation is the closed-form counterpart of the exact objective of
a one-layer QAOA circuit: <H> from products of cosines over each qubit's
pair terms, with no state and no 2^Q work.
a1_basis_angles, phase_gates and format_problem build test inputs: a1
parameters for a basis state, the rz/rzz gates of a cost gate, and the text
of a problem file.
reference_sample is the dense counterpart of simulator.sample: a
multinomial over every one of the 2^Q indices, which hands the draws left
after its last category with p > 0 to index 2^Q - 1 even at p = 0, where
sample gives them to that last category.
"""
from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from itertools import groupby, product
from math import cos, pi, sin

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
from qvarsched.errors import QubitCountExceededError
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


def bits_to_index(bits: str) -> int:
    """The basis index of a bitstring, qubit 0 its leftmost character."""
    return int(bits, 2)


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


DENSE_MAX_QUBITS = 6


def _target_matrix(name: str, angle: float | None) -> np.ndarray:
    """The 2x2 matrix a controlled flip or mixer applies to its target."""
    if name in ("x", "cx", "mcx"):
        return np.array([[0, 1], [1, 0]], dtype=np.complex128)
    if name == "h":
        return np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
    c, s = cos(angle / 2), sin(angle / 2)
    if name == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]])
    return np.array([[c, -s], [s, c]])


def gate_unitary(gate: Gate, qubit_count: int, angle: float | None = None) -> np.ndarray:
    """Explicit 2^n x 2^n matrix for one gate, built by basis-state mapping.

    The gates fall into three families plus csub and cost: parity phases
    (rz, rzz) are diagonal, exp(-0.5j * angle) at even parity of the gate's
    qubits and exp(0.5j * angle) at odd; controlled flips (x, cx, mcx) and
    controlled 2x2 mixers (h, rx, ry, cry) apply _target_matrix to the last
    qubit where every other one is 1 and leave the rest of the basis in
    place; a cost gate is the product of its phase_gates' matrices.
    """
    n = qubit_count
    dim = 1 << n
    if angle is None:
        angle = _resolve_angle(gate, {})

    def bit(state: int, qubit: int) -> int:
        return (state >> (n - 1 - qubit)) & 1

    def flipped(state: int, qubit: int) -> int:
        return state ^ (1 << (n - 1 - qubit))

    name = gate.name
    if name == "cost":
        matrix = np.eye(dim, dtype=np.complex128)
        for phase in phase_gates(replace(gate, angle=angle)):
            matrix = gate_unitary(phase, n) @ matrix
        return matrix
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    if name in ("rz", "rzz"):
        for col in range(dim):
            odd = sum(bit(col, q) for q in gate.qubits) % 2
            matrix[col, col] = np.exp((0.5j if odd else -0.5j) * angle)
    elif name == "csub":
        control, *register = gate.qubits
        size = 1 << len(register)
        shift = gate.constant % size
        for col in range(dim):
            if not bit(col, control):
                matrix[col, col] = 1.0
                continue
            value = sum(bit(col, q) << k for k, q in enumerate(register))
            target_value = (value - shift) % size
            row = col
            for k, q in enumerate(register):
                if bit(row, q) != (target_value >> k) & 1:
                    row = flipped(row, q)
            matrix[row, col] = 1.0
    elif name in ("x", "cx", "mcx", "h", "rx", "ry", "cry"):
        *controls, target = gate.qubits
        local = _target_matrix(name, angle)
        for col in range(dim):
            if not all(bit(col, c) for c in controls):
                matrix[col, col] = 1.0
                continue
            b = bit(col, target)
            matrix[col if b == 0 else flipped(col, target), col] += local[0, b]
            matrix[col if b == 1 else flipped(col, target), col] += local[1, b]
    else:
        raise ValueError(f"unknown gate {name!r}")
    return matrix


def dense_state(
    circuit: Circuit, params=None, *, max_qubits: int = DENSE_MAX_QUBITS
) -> np.ndarray:
    """Final state by explicit matrix products; verification-grade only."""
    n = circuit.qubit_count
    if n > max_qubits:
        raise QubitCountExceededError(f"{n} qubits exceeds the dense maximum of {max_qubits}")
    binding = _bind(circuit, params)
    state = np.zeros(1 << n, dtype=np.complex128)
    state[0] = 1.0
    for gate in circuit.gates:
        state = gate_unitary(gate, n, _resolve_angle(gate, binding)) @ state
    return state


def phase_gates(cost: Gate) -> list[Gate]:
    """The rz (one qubit) and rzz (two) gates a cost gate stands for, one per
    term (scale, qubits) in term order: at angle Param(name, p * scale) for a
    cost angle Param(name, p), at the literal angle times scale otherwise."""
    angle, gates = cost.angle, []
    for s, qubits in cost.terms:
        scaled = replace(angle, scale=angle.scale * s) if isinstance(angle, Param) else angle * s
        gates.append(Gate("rz" if len(qubits) == 1 else "rzz", qubits, scaled))
    return gates


def expand_cost_gates(circuit: Circuit) -> Circuit:
    """circuit with each cost gate replaced by its phase_gates."""
    gates = []
    for gate in circuit.gates:
        gates += phase_gates(gate) if gate.name == "cost" else [gate]
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


def qaoa1_expectation(model: IsingModel, g: float, b: float) -> float:
    """<H> after one QAOA layer of build_qaoa, exp(-i g (H - c)) and then
    RX(2b) on every qubit, on |+>^Q, from the closed forms of <Z_u> and
    <Z_u Z_v> for a model with local fields h and pair terms J (Ozaeta, van
    Dam and McMahon, arXiv:2012.03421, with gamma = g and beta = b):

        <Z_u> = sin 2b sin 2gh_u prod_w cos 2gJ_uw
        <Z_u Z_v> = (sin 4b / 2) sin 2gJ_uv (cos 2gh_u prod' cos 2gJ_uw
                                             + cos 2gh_v prod' cos 2gJ_vw)
                  + (sin^2 2b / 2) (cos 2g(h_u - h_v) prod' cos 2g(J_uw - J_vw)
                                    - cos 2g(h_u + h_v) prod' cos 2g(J_uw + J_vw))

    prod_w over every other qubit, prod' over every qubit but u and v; a
    missing pair has J = 0. In float64, O(Q) work per term.
    """
    q = model.qubit_count
    h = np.array([float(coeff) for coeff in model.linear])
    pairs = np.zeros((q, q))
    for (u, v), coeff in model.pairwise.items():
        pairs[u, v] = pairs[v, u] = float(coeff)

    def mean_cos(offset, couplings) -> float:
        """The mean over uniform spins z of cos 2g(offset + couplings . z)."""
        return cos(2 * g * offset) * float(np.prod(np.cos(2 * g * couplings)))

    energy = float(model.constant)
    for u in range(q):  # pairs[u, u] = 0 adds a factor cos 0 = 1
        energy += h[u] * sin(2 * b) * sin(2 * g * h[u]) * float(np.prod(np.cos(2 * g * pairs[u])))
    for (u, v), coeff in model.pairwise.items():
        rest = [w for w in range(q) if w not in (u, v)]
        ju, jv = pairs[u, rest], pairs[v, rest]
        cross = mean_cos(h[u], ju) + mean_cos(h[v], jv)
        spread = mean_cos(h[u] - h[v], ju - jv) - mean_cos(h[u] + h[v], ju + jv)
        zz = sin(4 * b) / 2 * sin(2 * g * pairs[u, v]) * cross + sin(2 * b) ** 2 / 2 * spread
        energy += float(coeff) * zz
    return float(energy)


def a1_basis_angles(layout: VariableLayout, bits: str) -> tuple[float, ...]:
    """a1 parameters that prepare a structurally consistent basis state.

    Within a block the CRY cascade selects option t exactly when the first t
    angles are pi and the next is 0; slack RY angles are 0 or pi per bit.
    """
    problem = layout.problem
    values = parse_bits(bits, layout.qubit_count)
    angles: list[float] = []
    for i in range(problem.num_processes):
        block = layout.process_block(i)
        chosen = [t for t, q in enumerate(block) if values[q]]
        if len(chosen) != 1:
            raise ValueError(f"process {i} block is not one-hot in {bits!r}")
        option = chosen[0]
        angles.extend(pi if t < option else 0.0 for t in range(len(block) - 1))
    for j in range(problem.num_nodes):
        angles.extend(pi if values[q] else 0.0 for q in layout.slack_qubits(j))
    return tuple(angles)


def format_problem(problem: AssignmentProblem) -> str:
    """The problem file text that parse_problem reads back as problem."""
    lines = ["qvarsched-v1 problem", f"variant {problem.variant.name}"]
    for proc in problem.processes:
        values = ",".join(str(v) for v in proc.values)
        lines.append(f"process weight={proc.weight} values={values}")
    for node in problem.nodes:
        lines.append(f"node capacity={node.capacity} threshold={node.threshold}")
    return "\n".join(lines) + "\n"
