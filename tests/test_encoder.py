from fractions import Fraction
from math import prod

import numpy as np
import pytest

from qvarsched import build_layout, encode, energy, make_problem, penalty_weight, to_terms
from qvarsched.encoder import IsingModel, format_fraction, model_to_text
from qvarsched.errors import MalformedBitstringError
from qvarsched.oracle import enumerate_solutions
from qvarsched.simulator import diagonal_energies

from helpers import (
    GOLDEN_CONSTANT,
    GOLDEN_LINEAR,
    GOLDEN_PAIRS,
    direct_objective,
    direct_objective_vector,
    feasible_mask,
    random_problem,
    reference_problem,
)


def test_penalty_weight_reference():
    assert penalty_weight(reference_problem("EOHL")) == 11
    assert penalty_weight(reference_problem("ECFL")) == 11
    zero = make_problem("EOFL", [1, 1], [(0, 0), (0, 0)], (2, 2))
    assert penalty_weight(zero) == 1


def test_golden_hamiltonian_exact():
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    model = encode(layout)
    assert model.qubit_count == 8
    assert model.penalty == 11
    assert model.constant == GOLDEN_CONSTANT
    assert model.linear == GOLDEN_LINEAR
    assert model.pairwise == GOLDEN_PAIRS


def test_energy_reference_strings():
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    model = encode(layout)
    assert energy(model, "10100101") == -6
    infeasible = energy(model, "11100000")
    assert infeasible >= 1
    assert infeasible == direct_objective(layout, "11100000")
    with pytest.raises(MalformedBitstringError):
        energy(model, "101")


def test_energy_matches_direct_objective_exhaustive_eohl():
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    model = encode(layout)
    for i in range(256):
        bits = format(i, "08b")
        assert energy(model, bits) == direct_objective(layout, bits)


@pytest.mark.parametrize("variant", ["EOHL", "EOFL", "ECHL", "ECFL"])
def test_energy_vector_matches_direct_objective_all_strings(variant):
    problem = reference_problem(variant)
    layout = build_layout(problem)
    model = encode(layout)
    computed = diagonal_energies(model)
    expected = direct_objective_vector(layout)
    # Every coefficient is dyadic, so float64 comparison is exact.
    assert np.array_equal(computed, expected)


def test_single_process_toy_expansion():
    # One process, one node, capacity 1: feasible strings have x + b = 1.
    problem = make_problem("EOFL", [1], [(1,)], (1,))
    layout = build_layout(problem)
    model = encode(layout)
    for i in range(4):
        bits = format(i, "02b")
        assert energy(model, bits) == direct_objective(layout, bits)
    assert energy(model, "10") == -1  # assigned, slack 0: feasible, gain 1
    assert energy(model, "01") == 2  # one-hot violated: exactly the penalty A
    assert energy(model, "00") >= 1 and energy(model, "11") >= 1


def test_zero_gain_instance_feasible_energy_is_zero():
    problem = make_problem("EOFL", [1], [(0,)], (1,))
    layout = build_layout(problem)
    model = encode(layout)
    assert energy(model, "10") == 0


def test_penalty_separation_randomized():
    rng = np.random.default_rng(37)
    for _ in range(25):
        problem = random_problem(rng)
        layout = build_layout(problem)
        model = encode(layout)
        energies = diagonal_energies(model)
        report = enumerate_solutions(layout)
        mask = feasible_mask(report)
        if mask.any():
            assert energies[mask].max() <= 0
        if (~mask).any():
            assert energies[~mask].min() >= 1
        argmin = set(np.nonzero(energies == energies.min())[0].tolist())
        if report.infeasible_instance:
            assert not mask.any()
        else:
            assert argmin == report.optimal


def _summed_terms(terms, bits: str) -> Fraction:
    """The sum of every term at bits; bit 0 maps to z = +1, bit 1 to z = -1."""
    z = [1 - 2 * int(b) for b in bits]
    return sum((c * prod(z[q] for q in qubits) for qubits, c in terms), Fraction(0))


def test_to_terms_reference():
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    model = encode(layout)
    terms = to_terms(model)
    assert terms == [
        ((), GOLDEN_CONSTANT),
        *(((i,), c) for i, c in enumerate(GOLDEN_LINEAR)),
        *sorted(GOLDEN_PAIRS.items()),
    ]
    singles = [t for t in terms if len(t[0]) == 1]
    pairs = [t for t in terms if len(t[0]) == 2]
    assert len(singles) == 8 and len(pairs) == 15
    for i in range(256):
        bits = format(i, "08b")
        assert _summed_terms(terms, bits) == energy(model, bits)


def test_to_terms_singleton_only_model():
    model = IsingModel(2, Fraction(1), (Fraction(2), Fraction(-3)), {}, Fraction(1))
    terms = to_terms(model)
    assert terms == [((), 1), ((0,), 2), ((1,), -3)]
    for bits in ("00", "01", "10", "11"):
        assert _summed_terms(terms, bits) == energy(model, bits)


def test_example_hamiltonian_terms_and_text():
    # 1*Z1 + 2*Z3 - 4*Z1Z2 - 2*Z2Z3 in 1-based labels.
    model = IsingModel(
        3,
        Fraction(0),
        (Fraction(1), Fraction(0), Fraction(2)),
        {(0, 1): Fraction(-4), (1, 2): Fraction(-2)},
        Fraction(1),
    )
    assert to_terms(model) == [((), 0), ((0,), 1), ((2,), 2), ((0, 1), -4), ((1, 2), -2)]
    assert model_to_text(model) == (
        "qvarsched-v1 ising\nqubits 3\npenalty 1\nconstant 0\n0 1\n2 2\n0 1 -4\n1 2 -2\n"
    )


def test_a_model_keeps_its_pair_terms_in_ascending_order():
    pairs = {(1, 2): Fraction(-2), (0, 2): Fraction(0), (0, 1): Fraction(-4)}
    model = IsingModel(3, Fraction(1), (Fraction(0), Fraction(5), Fraction(0)), pairs, Fraction(1))
    assert list(model.pairwise) == [(0, 1), (0, 2), (1, 2)]
    # Every pair term is listed, a zero one too; a zero linear term is not.
    assert to_terms(model) == [((), 1), ((1,), 5), ((0, 1), -4), ((0, 2), 0), ((1, 2), -2)]


def test_model_text_reference_matches_golden_lines():
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    text = model_to_text(encode(layout))
    expected = [
        "qvarsched-v1 ising",
        "qubits 8",
        "penalty 11",
        "constant 55.5",
        *(f"{i} {format_fraction(c)}" for i, c in enumerate(GOLDEN_LINEAR)),
        *(f"{i} {j} {format_fraction(c)}" for (i, j), c in sorted(GOLDEN_PAIRS.items())),
    ]
    assert text.splitlines() == expected
    assert text.endswith("\n")


def test_format_fraction():
    assert format_fraction(Fraction(111, 2)) == "55.5"
    assert format_fraction(Fraction(-21, 2)) == "-10.5"
    assert format_fraction(Fraction(12)) == "12"
    assert format_fraction(Fraction(1, 3)) == "1/3"
    assert format_fraction(Fraction(3, 40)) == "0.075"
    assert Fraction("0.075") == Fraction(3, 40)


def test_randomized_encode_matches_direct_objective():
    # Dyadic gains, then the wide ones of helpers.random_gain, so that the
    # common denominator 4g of the encoding is not a power of two.
    rng = np.random.default_rng(91)
    for wide_gains in (False, True):
        for _ in range(15):
            problem = random_problem(rng, max_qubits=10, wide_gains=wide_gains)
            layout = build_layout(problem)
            model = encode(layout)
            for _ in range(25):
                index = int(rng.integers(1 << layout.qubit_count))
                bits = format(index, f"0{layout.qubit_count}b")
                assert energy(model, bits) == direct_objective(layout, bits)
