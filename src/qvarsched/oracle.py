"""Classical ground truth: exact enumeration and dense-matrix circuits.

enumerate_solutions takes a VariableLayout alone and reads its problem. It
walks the target tuples depth first, leaving out every tuple whose prefix
already loads a node past its capacity, derives each slack register and sums
exact Fraction gains into a report of basis indices; it never visits the 2^Q
basis states. Per-string check_feasible(layout, bits) over all of them, and
the full walk over every tuple in tests/helpers.py, are its independent
counterparts. dense_state rebuilds every gate as an
explicit 2^n x 2^n matrix, sharing no kernel code with the fast simulator.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import cos, sin

import numpy as np

from .errors import QubitCountExceededError, check_qubit_count
from .problem import CLOUD, Assignment, VariableLayout, assignment_index, gain
from .simulator import DEFAULT_MAX_QUBITS, Circuit, Gate, _bind, _resolve_angle, phase_gates

DENSE_MAX_QUBITS = 6


@dataclass(frozen=True)
class OracleReport:
    """Exact ground truth; optimal and feasible hold basis indices."""

    optimal_gain: Fraction | None
    optimal: frozenset[int]
    feasible: frozenset[int]
    qubit_count: int

    @property
    def best_count(self) -> int:
        return len(self.optimal)

    @property
    def feasible_count(self) -> int:
        return len(self.feasible)

    @property
    def total(self) -> int:
        return 1 << self.qubit_count

    @property
    def infeasible_instance(self) -> bool:
        return not self.feasible


def enumerate_solutions(
    layout: VariableLayout, *, max_qubits: int = DEFAULT_MAX_QUBITS
) -> OracleReport:
    """Exact optima and feasibility counts of layout.problem from a walk over
    target tuples.

    Each process goes to one of the N nodes or, where allowed, the Cloud, so
    there are (N + c)^P tuples (c = 1 with a Cloud, else 0): at most
    3^8 = 6,561 under the default 24-qubit cap, against 2^Q strings for a
    full scan. Weights are positive, so a node's load only grows along a
    tuple and the walk drops a prefix at the first node it loads past its
    capacity. A tuple is feasible exactly when every residual capacity fits
    its slack register, in which case the register value is unique, so each
    feasible tuple gives exactly one feasible basis index. Gains are exact
    Fractions.
    """
    problem, q = layout.problem, layout.qubit_count
    check_qubit_count(q, max_qubits)
    options = list(range(problem.num_nodes))
    if problem.variant.cloud_allowed:
        options.append(CLOUD)
    register_sizes = [1 << len(layout.slack_qubits(j)) for j in range(problem.num_nodes)]

    def fitting(targets: tuple, loads: tuple):
        """Each full tuple that extends targets, with its loads, keeping
        every load within its node's capacity."""
        i = len(targets)
        if i == problem.num_processes:
            yield targets, loads
            return
        weight = problem.processes[i].weight
        for target in options:
            grown = loads
            if target != CLOUD:
                load = loads[target] + weight
                if load > problem.nodes[target].capacity:
                    continue
                grown = loads[:target] + (load,) + loads[target + 1 :]
            yield from fitting(targets + (target,), grown)

    feasible: list[int] = []
    best: Fraction | None = None
    optimal: list[int] = []
    for targets, loads in fitting((), (0,) * problem.num_nodes):
        residuals = [node.capacity - load for node, load in zip(problem.nodes, loads)]
        if any(not 0 <= r < size for r, size in zip(residuals, register_sizes)):
            continue
        assignment = Assignment(targets, loads, tuple(residuals))
        index = assignment_index(layout, assignment)
        feasible.append(index)
        value = gain(problem, assignment)
        if best is None or value > best:
            best = value
            optimal = []
        if value == best:
            optimal.append(index)
    return OracleReport(best, frozenset(optimal), frozenset(feasible), q)


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
