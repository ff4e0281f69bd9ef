"""Penalty encoding of an assignment problem into a diagonal Ising model.

The extended objective is the negated gain plus, for every equality
constraint, the squared residual scaled by the penalty weight A. Substituting
x = (1 - z)/2 turns it into a polynomial in spin variables z in {+1, -1};
coefficients are collected exactly with Fractions. ``IsingModel`` stores the
expanded polynomial directly:

    E(z) = constant + sum_i linear[i] * z_i + sum_{i<j} pairwise[(i,j)] * z_i z_j

For every bitstring that satisfies all constraints E equals minus the gain;
any violated equality contributes at least A, so infeasible strings sit at
energy >= 1 above every feasible one.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .problem import AssignmentProblem, VariableLayout, parse_bits

Term = tuple[tuple[int, ...], Fraction]


@dataclass(frozen=True, eq=True)
class IsingModel:
    qubit_count: int
    constant: Fraction
    linear: tuple[Fraction, ...]
    pairwise: dict[tuple[int, int], Fraction]
    penalty: Fraction

    def __post_init__(self):
        if len(self.linear) != self.qubit_count:
            raise ValueError("linear coefficient vector has wrong length")
        for i, j in self.pairwise:
            if not 0 <= i < j < self.qubit_count:
                raise ValueError(f"pairwise key ({i}, {j}) is not upper-triangular")
        object.__setattr__(self, "pairwise", dict(sorted(self.pairwise.items())))


def penalty_weight(problem: AssignmentProblem) -> Fraction:
    """A = 1 + total gain, so one violated constraint outweighs all gains."""
    return Fraction(1) + sum(
        (v for proc in problem.processes for v in proc.values), Fraction(0)
    )


class _Polynomial:
    """Accumulator for constant/linear/pairwise terms over spin variables."""

    def __init__(self, qubit_count: int):
        self.constant = Fraction(0)
        self.linear = [Fraction(0)] * qubit_count
        self.pairwise: dict[tuple[int, int], Fraction] = {}

    def add_affine_square(self, scale: Fraction, constant: Fraction, coeffs: dict[int, Fraction]):
        """Add scale * (constant + sum coeffs[q] * z_q)^2, using z_q^2 = 1."""
        self.constant += scale * constant * constant
        items = sorted(coeffs.items())
        for q, a in items:
            self.constant += scale * a * a
            self.linear[q] += scale * 2 * constant * a
        for idx, (q1, a1) in enumerate(items):
            for q2, a2 in items[idx + 1 :]:
                key = (q1, q2)
                self.pairwise[key] = self.pairwise.get(key, Fraction(0)) + scale * 2 * a1 * a2


def encode(layout: VariableLayout) -> IsingModel:
    """Expand the penalized objective of layout.problem into an IsingModel."""
    problem = layout.problem
    a = penalty_weight(problem)
    half = Fraction(1, 2)
    poly = _Polynomial(layout.qubit_count)

    # Gain term: -v * x = -v/2 + (v/2) z for each assignment variable.
    for i, proc in enumerate(problem.processes):
        for j, v in enumerate(proc.values):
            if v:
                poly.constant -= v * half
                poly.linear[layout.assign_qubit(i, j)] += v * half

    # Process one-hot penalties: A * (1 - sum of block variables)^2.
    for i in range(problem.num_processes):
        block = layout.process_block(i)
        constant = Fraction(1) - Fraction(len(block), 2)
        poly.add_affine_square(a, constant, {q: half for q in block})

    # Node capacity penalties: A * (B_j - load_j - slack_j)^2 with slack bit
    # k carrying weight 2^k; high-load registers are sized by the usable
    # capacity but the equality keeps the full capacity on the right side.
    for j, node in enumerate(problem.nodes):
        coeffs: dict[int, Fraction] = {}
        total = Fraction(0)
        for i in range(problem.num_processes):
            w = Fraction(problem.processes[i].weight)
            coeffs[layout.assign_qubit(i, j)] = w * half
            total += w
        for k, q in enumerate(layout.slack_qubits(j)):
            weight = Fraction(1 << k)
            coeffs[q] = weight * half
            total += weight
        constant = Fraction(node.capacity) - total * half
        poly.add_affine_square(a, constant, coeffs)

    return IsingModel(
        qubit_count=layout.qubit_count,
        constant=poly.constant,
        linear=tuple(poly.linear),
        pairwise={key: c for key, c in poly.pairwise.items() if c},
        penalty=a,
    )


def energy(model: IsingModel, bits: str) -> Fraction:
    """Exact energy of a bitstring; bit 0 maps to z = +1, bit 1 to z = -1."""
    z = [1 - 2 * b for b in parse_bits(bits, model.qubit_count)]
    return sum((c * prod(z[q] for q in qubits) for qubits, c in to_terms(model)), Fraction(0))


def to_terms(model: IsingModel) -> list[Term]:
    """(qubits, coeff) of the constant (no qubits), each nonzero linear term
    and every pair term, in ascending pair order as the model keeps them: the
    one term order that every energy, QAOA and the text form read."""
    terms: list[Term] = [((), model.constant)]
    terms += [((i,), c) for i, c in enumerate(model.linear) if c]
    terms += model.pairwise.items()
    return terms


def format_fraction(x: Fraction) -> str:
    """Exact text form: integer, finite decimal, or p/q."""
    if x.denominator == 1:
        return str(x.numerator)
    rest = x.denominator
    twos = fives = 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{x.numerator}/{x.denominator}"
    digits = max(twos, fives)
    scaled = abs(x.numerator) * 10**digits // x.denominator
    text = f"{scaled:0{digits + 1}d}"
    sign = "-" if x < 0 else ""
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def model_to_text(model: IsingModel) -> str:
    """Plain-text term list, one term per line (0-based qubit indices)."""
    lines = [
        "qvarsched-v1 ising",
        f"qubits {model.qubit_count}",
        f"penalty {format_fraction(model.penalty)}",
        f"constant {format_fraction(model.constant)}",
    ]
    for qubits, coeff in to_terms(model)[1:]:
        lines.append(" ".join(str(q) for q in qubits) + f" {format_fraction(coeff)}")
    return "\n".join(lines) + "\n"

