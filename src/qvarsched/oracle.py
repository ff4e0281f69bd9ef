"""Classical ground truth: exact enumeration of a problem's solutions.

enumerate_solutions takes a VariableLayout alone and reads its problem. It
walks the target tuples depth first, leaving out every tuple whose prefix
already loads a node past its capacity, and derives each feasible tuple's
basis index, slack registers included (problem.slack_index); it never visits
the 2^Q basis states. Its arithmetic is on Python ints: each prefix carries
its gain times the problem's gain_scale g, and the one Fraction it builds is
the report's optimal_gain, best / g. check_feasible(layout, bits) with the
Fraction gain of problem.gain on every one of the 2^Q strings, and the full
walk over every tuple, both in tests/helpers.py, are its independent
counterparts.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .problem import CLOUD, VariableLayout, slack_index


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
    feasible tuple gives exactly one feasible basis index.
    """
    problem, q = layout.problem, layout.qubit_count
    options = list(range(problem.num_nodes))
    if problem.variant.cloud_allowed:
        options.append(CLOUD)
    # Per process, each target with the basis-index bit of its qubit and its
    # gain times g: process_block lists the qubits, and values the gains, in
    # the order of options, and the Cloud (last where allowed) gains 0.
    choices = [
        [(t, 1 << (q - 1 - qubit), v) for t, qubit, v in zip(options, layout.process_block(i), values + (0,))]
        for i, values in enumerate(problem.scaled_values)
    ]
    capacities = [node.capacity for node in problem.nodes]
    register_sizes = [1 << len(layout.slack_qubits(j)) for j in range(problem.num_nodes)]
    gains: dict[int, int] = {}  # each feasible basis index's gain times g

    @cache
    def slack_bits(loads: tuple) -> int | None:
        """The slack registers' index bits at a full tuple's loads, or None
        when a residual capacity does not fit its register."""
        fits = all(0 <= c - load < size for c, load, size in zip(capacities, loads, register_sizes))
        return slack_index(layout, loads) if fits else None

    def walk(i: int, loads: tuple, value: int, index: int):
        """Visit every full tuple that extends a prefix of i targets with
        these loads, gain times g and target bits, keeping every load within
        its node's capacity."""
        if i == len(choices):
            bits = slack_bits(loads)
            if bits is not None:
                gains[index | bits] = value
            return
        weight = problem.processes[i].weight
        for target, bit, gain in choices[i]:
            grown = loads
            if target != CLOUD:
                load = loads[target] + weight
                if load > capacities[target]:
                    continue
                grown = loads[:target] + (load,) + loads[target + 1 :]
            walk(i + 1, grown, value + gain, index | bit)

    walk(0, (0,) * problem.num_nodes, 0, 0)
    best = max(gains.values(), default=None)
    optimal = frozenset(index for index, value in gains.items() if value == best)
    optimal_gain = None if best is None else Fraction(best, problem.gain_scale)
    return OracleReport(optimal_gain, optimal, frozenset(gains), q)
