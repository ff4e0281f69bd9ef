"""Edge/Cloud assignment problem model.

Four problem variants are supported, named by two flags: whether processes
may be placed on the Cloud in addition to the edge nodes (``cloud_allowed``)
and whether each node must carry at least a minimum load (``high_load``).
Weights and capacities are integers; per-node gains are exact rationals so
that the penalty encoding downstream stays exact.

Bitstring convention used everywhere in the package: qubit 0 is the leftmost
character of a bitstring.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import MalformedBitstringError, check_count

#: Sentinel target meaning "process runs on the Cloud".
CLOUD = -1


@dataclass(frozen=True)
class ProblemVariant:
    cloud_allowed: bool
    high_load: bool

    @property
    def name(self) -> str:
        return ("EC" if self.cloud_allowed else "EO") + ("HL" if self.high_load else "FL")

    @classmethod
    def from_name(cls, name: str) -> "ProblemVariant":
        try:
            return VARIANTS[name.upper()]
        except KeyError:
            raise ValueError(f"unknown variant {name!r}, expected one of {sorted(VARIANTS)}")


ECFL = ProblemVariant(cloud_allowed=True, high_load=False)
EOFL = ProblemVariant(cloud_allowed=False, high_load=False)
ECHL = ProblemVariant(cloud_allowed=True, high_load=True)
EOHL = ProblemVariant(cloud_allowed=False, high_load=True)
VARIANTS = {"ECFL": ECFL, "EOFL": EOFL, "ECHL": ECHL, "EOHL": EOHL}


def as_fraction(value) -> Fraction:
    """A gain as an exact Fraction: a rational or a string like "0.5" exactly,
    any other real (numpy floats too) by its float's shortest repr, so 0.1 is
    1/10. A bool, or what Fraction rejects ("1/0", NaN, None), is a ValueError."""
    real = isinstance(value, numbers.Real) and not isinstance(value, numbers.Rational)
    try:  # Fraction takes a bool as 0 or 1, so a bool is tried as None
        return Fraction(None if isinstance(value, bool) else repr(float(value)) if real else value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"process value must be a rational number, got {value!r}") from None


@dataclass(frozen=True)
class ProcessSpec:
    """One process: integer resource demand and per-node gains (as_fraction)."""

    weight: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "weight", check_count("process weight", self.weight, maximum=None))
        object.__setattr__(self, "values", tuple(as_fraction(v) for v in self.values))
        if any(v < 0 for v in self.values):
            raise ValueError("process values must be non-negative")


@dataclass(frozen=True)
class NodeSpec:
    """One edge node: capacity and (for high-load variants) minimum load."""

    capacity: int
    threshold: int = 0

    def __post_init__(self):
        object.__setattr__(self, "capacity", check_count("node capacity", self.capacity, maximum=None))
        object.__setattr__(self, "threshold", check_count("node threshold", self.threshold, 0, None))

    @property
    def usable_capacity(self) -> int:
        """Capacity left above the mandatory minimum load."""
        return self.capacity - self.threshold


@dataclass(frozen=True)
class AssignmentProblem:
    variant: ProblemVariant
    processes: tuple[ProcessSpec, ...]
    nodes: tuple[NodeSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "processes", tuple(self.processes))
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.processes:
            raise ValueError("at least one process is required")
        if not self.nodes:
            raise ValueError("at least one node is required")
        n = len(self.nodes)
        for i, proc in enumerate(self.processes):
            if len(proc.values) != n:
                raise ValueError(
                    f"process {i}: expected {n} values, got {len(proc.values)}"
                )
        for j, node in enumerate(self.nodes):
            if self.variant.high_load:
                if not 0 <= node.threshold < node.capacity:
                    raise ValueError(
                        f"node {j}: threshold must satisfy 0 <= T < capacity under high load"
                    )
            elif node.threshold != 0:
                raise ValueError(f"node {j}: threshold must be 0 for free-load variants")

    @property
    def num_processes(self) -> int:
        return len(self.processes)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


def slack_bit_count(node: NodeSpec) -> int:
    """Number of slack bits for a node's capacity equality.

    The residual capacity ranges over [0, B^] with B^ = capacity - threshold
    (AssignmentProblem holds threshold at 0 for free-load variants), so
    ceil(log2(B^ + 1)) bits.
    """
    return node.usable_capacity.bit_length()


def qubit_count(problem: AssignmentProblem) -> int:
    """Total binary variables: assignment bits, cloud bits, slack bits."""
    return build_layout(problem).qubit_count


@dataclass(frozen=True, eq=False)
class VariableLayout:
    """Canonical variable-to-qubit mapping for a problem.

    Ordering: per-process blocks first (x_i1..x_iN, then p_i when the Cloud
    is allowed), followed by the per-node slack registers, least significant
    bit first.
    """

    problem: AssignmentProblem
    qubit_count: int
    _assign: tuple[tuple[int, ...], ...]
    _cloud: tuple[int, ...]
    _slack: tuple[tuple[int, ...], ...]

    def assign_qubit(self, process: int, node: int) -> int:
        return self._assign[process][node]

    def cloud_qubit(self, process: int) -> int:
        if not self.problem.variant.cloud_allowed:
            raise ValueError("variant has no cloud slack variables")
        return self._cloud[process]

    def slack_qubits(self, node: int) -> tuple[int, ...]:
        """Slack register of a node, least significant bit first."""
        return self._slack[node]

    def process_block(self, process: int) -> tuple[int, ...]:
        """Qubits of one process's one-hot block (x_i1..x_iN, then p_i)."""
        block = self._assign[process]
        if self.problem.variant.cloud_allowed:
            block = block + (self._cloud[process],)
        return block


def build_layout(problem: AssignmentProblem) -> VariableLayout:
    """Deterministic layout; every qubit index in [0, Q) used exactly once."""
    cloud = problem.variant.cloud_allowed
    assign: list[tuple[int, ...]] = []
    cloud_qubits: list[int] = []
    q = 0
    for _ in range(problem.num_processes):
        assign.append(tuple(range(q, q + problem.num_nodes)))
        q += problem.num_nodes
        if cloud:
            cloud_qubits.append(q)
            q += 1
    slack: list[tuple[int, ...]] = []
    for node in problem.nodes:
        size = slack_bit_count(node)
        slack.append(tuple(range(q, q + size)))
        q += size
    return VariableLayout(
        problem=problem,
        qubit_count=q,
        _assign=tuple(assign),
        _cloud=tuple(cloud_qubits),
        _slack=tuple(slack),
    )


def parse_bits(bits: str, expected_length: int) -> tuple[int, ...]:
    """Validate a bitstring and return it as a tuple of ints."""
    if len(bits) != expected_length:
        raise MalformedBitstringError(
            f"expected {expected_length} bits, got {len(bits)}"
        )
    if set(bits) - {"0", "1"}:
        raise MalformedBitstringError(f"bitstring contains non-binary characters: {bits!r}")
    return tuple(int(b) for b in bits)


@dataclass(frozen=True)
class Assignment:
    """Decoded placement: per-process target, node loads, residual capacities.

    targets[i] is a node index, CLOUD, or None when the process's one-hot
    equality is violated (structurally inconsistent string).
    """

    targets: tuple[int | None, ...]
    loads: tuple[int, ...]
    residuals: tuple[int, ...]

    @property
    def consistent(self) -> bool:
        return None not in self.targets


def decode(layout: VariableLayout, bits: str) -> Assignment:
    """Decode a bitstring into an Assignment; feasibility is not required."""
    problem = layout.problem
    values = parse_bits(bits, layout.qubit_count)
    targets: list[int | None] = []
    for i in range(problem.num_processes):
        chosen = [j for j in range(problem.num_nodes) if values[layout.assign_qubit(i, j)]]
        on_cloud = problem.variant.cloud_allowed and values[layout.cloud_qubit(i)]
        if len(chosen) == 1 and not on_cloud:
            targets.append(chosen[0])
        elif not chosen and on_cloud:
            targets.append(CLOUD)
        else:
            targets.append(None)
    loads = [0] * problem.num_nodes
    for i, target in enumerate(targets):
        if target is not None and target != CLOUD:
            loads[target] += problem.processes[i].weight
    residuals = [node.capacity - load for node, load in zip(problem.nodes, loads)]
    return Assignment(tuple(targets), tuple(loads), tuple(residuals))


def assignment_index(layout: VariableLayout, assignment: Assignment) -> int:
    """Basis index of a structurally consistent assignment.

    Slack registers are set to the residual capacity modulo the register
    size, which is the unique value satisfying the node equality whenever one
    exists.
    """
    problem = layout.problem
    if not assignment.consistent:
        raise ValueError("assignment is structurally inconsistent")
    top = layout.qubit_count - 1  # qubit 0 is the most significant bit
    index = 0
    for i, target in enumerate(assignment.targets):
        qubit = layout.cloud_qubit(i) if target == CLOUD else layout.assign_qubit(i, target)
        index |= 1 << (top - qubit)
    for j, node in enumerate(problem.nodes):
        reg = layout.slack_qubits(j)
        residual = (node.capacity - assignment.loads[j]) % (1 << len(reg))
        for k, q in enumerate(reg):
            index |= ((residual >> k) & 1) << (top - q)
    return index


def check_feasible(layout: VariableLayout, bits: str) -> bool:
    """Whether bits meets every per-process one-hot equality and every
    per-node load-plus-slack equality."""
    problem = layout.problem
    values = parse_bits(bits, layout.qubit_count)
    for i in range(problem.num_processes):
        if sum(values[q] for q in layout.process_block(i)) != 1:
            return False
    for j, node in enumerate(problem.nodes):
        load = sum(
            problem.processes[i].weight * values[layout.assign_qubit(i, j)]
            for i in range(problem.num_processes)
        )
        slack = sum(values[q] << k for k, q in enumerate(layout.slack_qubits(j)))
        if load + slack != node.capacity:
            return False
    return True


def gain(problem: AssignmentProblem, assignment: Assignment) -> Fraction:
    """Total gain of the edge-assigned processes; the Cloud contributes 0."""
    total = Fraction(0)
    for i, target in enumerate(assignment.targets):
        if target is not None and target != CLOUD:
            total += problem.processes[i].values[target]
    return total


def make_problem(
    variant: ProblemVariant | str,
    weights: Iterable[int],
    values: Iterable[Iterable],
    capacities: Iterable[int],
    thresholds: Iterable[int] | None = None,
) -> AssignmentProblem:
    """Convenience constructor from plain sequences."""
    if isinstance(variant, str):
        variant = ProblemVariant.from_name(variant)
    capacities = tuple(capacities)
    thresholds = tuple(thresholds) if thresholds is not None else (0,) * len(capacities)
    processes = tuple(
        ProcessSpec(w, tuple(row))
        for w, row in zip(weights, values, strict=True)
    )
    nodes = tuple(
        NodeSpec(b, t) for b, t in zip(capacities, thresholds, strict=True)
    )
    return AssignmentProblem(variant, processes, nodes)
