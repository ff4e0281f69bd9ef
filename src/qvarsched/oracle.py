"""Classical ground truth: exact enumeration of a problem's solutions.

enumerate_solutions takes a VariableLayout alone and reads its problem. It
walks the target tuples depth first, leaving out every tuple whose prefix
already loads a node past its capacity, derives each slack register and sums
exact Fraction gains into a report of basis indices; it never visits the 2^Q
basis states. Per-string check_feasible(layout, bits) over all of them, and
the full walk over every tuple in tests/helpers.py, are its independent
counterparts.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .problem import CLOUD, Assignment, VariableLayout, assignment_index, gain


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


def enumerate_solutions(layout: VariableLayout) -> OracleReport:
    """Exact optima and feasibility counts of layout.problem from a walk over
    target tuples.

    Each process goes to one of the N nodes or, where allowed, the Cloud, so
    there are (N + c)^P tuples (c = 1 with a Cloud, else 0). That bounds the
    walk, whatever Q, against 2^Q strings for a full scan; it checks no
    qubit cap. Weights are positive, so a node's load only grows along a
    tuple and the walk drops a prefix at the first node it loads past its
    capacity. A tuple is feasible exactly when every residual capacity fits
    its slack register, in which case the register value is unique, so each
    feasible tuple gives exactly one feasible basis index. Gains are exact
    Fractions.
    """
    problem, q = layout.problem, layout.qubit_count
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
