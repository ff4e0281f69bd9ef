"""Penalty encoding of an assignment problem into a diagonal Ising model.

The extended objective is the negated gain plus, for every equality
constraint, the squared residual scaled by the penalty weight A. Substituting
x = (1 - z)/2 turns it into a polynomial in spin variables z in {+1, -1}.
encode collects its coefficients exactly as Python ints over the one
denominator 4g, g being the problem's gain_scale (the lcm of the gains'
denominators), and builds a Fraction only for each finished coefficient and
the penalty. ``IsingModel`` stores the expanded polynomial directly:

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
    g = problem.gain_scale
    return Fraction(g + sum(map(sum, problem.scaled_values)), g)


def encode(layout: VariableLayout) -> IsingModel:
    """Expand the penalized objective of layout.problem into an IsingModel."""
    problem = layout.problem
    g = problem.gain_scale
    a = penalty_weight(problem)
    scale = a.numerator * (g // a.denominator)  # A * g
    # Each term's coefficient times 4g, keyed by its qubits as in to_terms.
    sums = {(): 0} | {(q,): 0 for q in range(layout.qubit_count)}

    def add_square(constant: int, coeffs: dict[int, int]):
        """Add 4g * A * (constant/2 + sum coeffs[q]/2 * z_q)^2, using z_q^2 = 1."""
        items = sorted(coeffs.items())
        sums[()] += scale * (constant * constant + sum(c * c for _, c in items))
        for idx, (q1, a1) in enumerate(items):
            sums[(q1,)] += scale * 2 * constant * a1
            for q2, a2 in items[idx + 1 :]:
                sums[q1, q2] = sums.get((q1, q2), 0) + scale * 2 * a1 * a2

    # Gain term: -v * x = -v/2 + (v/2) z for each assignment variable.
    for i, values in enumerate(problem.scaled_values):
        for j, v in enumerate(values):
            sums[()] -= 2 * v
            sums[(layout.assign_qubit(i, j),)] += 2 * v

    # Process one-hot penalties: A * (1 - sum of block variables)^2.
    for i in range(problem.num_processes):
        block = layout.process_block(i)
        add_square(2 - len(block), {q: 1 for q in block})

    # Node capacity penalties: A * (B_j - load_j - slack_j)^2 with slack bit
    # k carrying weight 2^k; high-load registers are sized by the usable
    # capacity but the equality keeps the full capacity on the right side.
    for j, node in enumerate(problem.nodes):
        coeffs = {layout.assign_qubit(i, j): proc.weight for i, proc in enumerate(problem.processes)}
        coeffs |= {q: 1 << k for k, q in enumerate(layout.slack_qubits(j))}
        add_square(2 * node.capacity - sum(coeffs.values()), coeffs)

    d = 4 * g
    return IsingModel(
        qubit_count=layout.qubit_count,
        constant=Fraction(sums[()], d),
        linear=tuple(Fraction(sums[(q,)], d) for q in range(layout.qubit_count)),
        pairwise={key: Fraction(c, d) for key, c in sums.items() if len(key) == 2 and c},
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

