from fractions import Fraction

import numpy as np
import pytest

from qvarsched import build_layout, encode, energy, make_problem, penalty_weight, to_terms
from qvarsched.encoder import (
    IsingModel,
    format_fraction,
    from_terms,
    model_from_text,
    model_to_text,
)
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


def test_to_terms_reference():
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    model = encode(layout)
    terms = to_terms(model)
    assert terms[0] == ((), GOLDEN_CONSTANT)
    singles = [t for t in terms if len(t[0]) == 1]
    pairs = [t for t in terms if len(t[0]) == 2]
    assert len(singles) == 8 and len(pairs) == 15
    assert from_terms(8, terms, model.penalty) == model


def test_to_terms_singleton_only_model():
    model = IsingModel(2, Fraction(1), (Fraction(2), Fraction(-3)), {}, Fraction(1))
    terms = to_terms(model)
    assert all(len(t[0]) <= 1 for t in terms)
    assert from_terms(2, terms, Fraction(1)) == model


def test_example_hamiltonian_round_trips():
    # 1*Z1 + 2*Z3 - 4*Z1Z2 - 2*Z2Z3 in 1-based labels.
    model = IsingModel(
        3,
        Fraction(0),
        (Fraction(1), Fraction(0), Fraction(2)),
        {(0, 1): Fraction(-4), (1, 2): Fraction(-2)},
        Fraction(1),
    )
    assert from_terms(3, to_terms(model), Fraction(1)) == model
    assert model_from_text(model_to_text(model)) == model


def test_model_text_round_trip_reference():
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    model = encode(layout)
    text = model_to_text(model)
    assert "constant 55.5" in text
    assert model_from_text(text) == model


def test_format_fraction():
    assert format_fraction(Fraction(111, 2)) == "55.5"
    assert format_fraction(Fraction(-21, 2)) == "-10.5"
    assert format_fraction(Fraction(12)) == "12"
    assert format_fraction(Fraction(1, 3)) == "1/3"
    assert format_fraction(Fraction(3, 40)) == "0.075"
    assert Fraction("0.075") == Fraction(3, 40)


def test_randomized_encode_matches_direct_objective():
    rng = np.random.default_rng(91)
    for _ in range(15):
        problem = random_problem(rng, max_qubits=10)
        layout = build_layout(problem)
        model = encode(layout)
        for _ in range(25):
            index = int(rng.integers(1 << layout.qubit_count))
            bits = format(index, f"0{layout.qubit_count}b")
            assert energy(model, bits) == direct_objective(layout, bits)
