from fractions import Fraction
from math import pi

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qvarsched import (
    build_layout,
    build_qaoa,
    encode,
    make_problem,
    qubit_count,
    run,
)
from qvarsched.encoder import IsingModel
from qvarsched.errors import QubitCountExceededError
from qvarsched.oracle import enumerate_solutions
from qvarsched.simulator import Circuit, Gate, diagonal_energies, index_to_bits

from helpers import (
    REFERENCE_COUNTS,
    WIDE_DENOMINATORS,
    WIDE_NUMERATORS,
    bits_to_index,
    brute_force_oracle,
    dense_state,
    feasible_mask,
    product_walk_oracle,
    random_problem,
    reference_problem,
)


@pytest.mark.parametrize("variant", sorted(REFERENCE_COUNTS))
def test_reference_counts(variant):
    problem = reference_problem(variant)
    layout = build_layout(problem)
    report = enumerate_solutions(layout)
    q, best, feasible, total = REFERENCE_COUNTS[variant]
    assert layout.qubit_count == q
    assert (report.best_count, report.feasible_count, report.total) == (best, feasible, total)
    assert report.optimal_gain == 6
    assert not report.infeasible_instance


def test_reference_optima_strings():
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    report = enumerate_solutions(layout)
    optima = {index_to_bits(index, layout.qubit_count) for index in report.optimal}
    assert optima == {"10100101", "01101010"}


def test_infeasible_instance():
    problem = make_problem("EOHL", [2], [(1,)], (1,), (0,))
    layout = build_layout(problem)
    report = enumerate_solutions(layout)
    assert report.infeasible_instance
    assert report.feasible_count == 0 and report.best_count == 0
    assert report.optimal_gain is None
    assert brute_force_oracle(layout) == report


def test_enumeration_matches_brute_force_oracle():
    rng = np.random.default_rng(41)
    for _ in range(30):
        problem = random_problem(rng, max_qubits=10)
        layout = build_layout(problem)
        assert enumerate_solutions(layout) == brute_force_oracle(layout)


def test_feasible_indices_match_check_feasible():
    rng = np.random.default_rng(53)
    for _ in range(8):
        problem = random_problem(rng, max_qubits=9)
        layout = build_layout(problem)
        report = enumerate_solutions(layout)
        expected = brute_force_oracle(layout).feasible
        assert report.feasible == expected
        assert np.flatnonzero(feasible_mask(report)).tolist() == sorted(expected)


# Gains with denominators near 2^31 (see helpers.WIDE_DENOMINATORS).
_WIDE_GAINS = st.builds(Fraction, st.integers(*WIDE_NUMERATORS), st.integers(*WIDE_DENOMINATORS))


@st.composite
def wide_gain_problems(draw):
    variant = draw(st.sampled_from(["ECFL", "EOFL", "ECHL", "EOHL"]))
    processes = draw(st.integers(1, 3))
    nodes = draw(st.integers(1, 2))
    weights = draw(st.lists(st.integers(1, 3), min_size=processes, max_size=processes))
    values = draw(
        st.lists(
            st.lists(_WIDE_GAINS, min_size=nodes, max_size=nodes),
            min_size=processes,
            max_size=processes,
        )
    )
    thresholds = [draw(st.integers(0, 2)) if variant.endswith("HL") else 0 for _ in range(nodes)]
    capacities = [t + draw(st.integers(1, 4)) for t in thresholds]
    problem = make_problem(variant, weights, values, capacities, thresholds)
    assume(qubit_count(problem) <= 10)
    return problem


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(wide_gain_problems())
def test_enumeration_is_exact_on_wide_denominators(problem):
    layout = build_layout(problem)
    assert enumerate_solutions(layout) == brute_force_oracle(layout)


@st.composite
def walk_problems(draw):
    """Problems of every variant with one process heavier than some node's
    capacity, so that process never fits on that node."""
    variant = draw(st.sampled_from(["ECFL", "EOFL", "ECHL", "EOHL"]))
    processes = draw(st.integers(1, 6))
    nodes = draw(st.integers(1, 3))
    thresholds = [draw(st.integers(0, 3)) if variant.endswith("HL") else 0 for _ in range(nodes)]
    capacities = [t + draw(st.integers(1, 6)) for t in thresholds]
    weights = draw(st.lists(st.integers(1, 10), min_size=processes, max_size=processes))
    heavy = draw(st.integers(0, processes - 1))
    weights[heavy] = min(capacities) + draw(st.integers(1, 4))
    gains = st.sampled_from([0, 1, 2, 3, Fraction(1, 2), Fraction(7, 3)])
    values = draw(
        st.lists(st.lists(gains, min_size=nodes, max_size=nodes), min_size=processes, max_size=processes)
    )
    return make_problem(variant, weights, values, capacities, thresholds)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(walk_problems())
def test_the_pruned_walk_equals_the_product_walk(problem):
    layout = build_layout(problem)
    assert enumerate_solutions(layout) == product_walk_oracle(layout)


def test_optimum_matches_energy_argmin():
    rng = np.random.default_rng(67)
    for _ in range(10):
        problem = random_problem(rng)
        layout = build_layout(problem)
        report = enumerate_solutions(layout)
        if report.infeasible_instance:
            continue
        energies = diagonal_energies(encode(layout))
        assert set(np.nonzero(energies == energies.min())[0].tolist()) == report.optimal
        assert abs(energies.min() + float(report.optimal_gain)) < 1e-9


def test_dense_single_gates_match_simulator():
    rng = np.random.default_rng(2)
    for gate in (
        Gate("x", (1,)),
        Gate("h", (0,)),
        Gate("ry", (2,), 1.1),
        Gate("rz", (1,), 0.4),
        Gate("cx", (0, 2)),
        Gate("cry", (2, 0), 2.2),
        Gate("rzz", (0, 1), 0.9),
        Gate("mcx", (0, 1, 2)),
        Gate("csub", (0, 1, 2), constant=1),
    ):
        prep = tuple(Gate("ry", (q,), float(rng.uniform(0, pi))) for q in range(3))
        circuit = Circuit(3, prep + (gate,), ())
        assert np.max(np.abs(dense_state(circuit) - run(circuit).amplitudes)) < 1e-12


def test_dense_qaoa_matches_simulator():
    from fractions import Fraction

    model = IsingModel(
        3,
        Fraction(0),
        (Fraction(1), Fraction(0), Fraction(2)),
        {(0, 1): Fraction(-4), (1, 2): Fraction(-2)},
        Fraction(1),
    )
    circuit = build_qaoa(model, 1)
    rng = np.random.default_rng(29)
    for _ in range(5):
        binding = {"g0": float(rng.uniform(0, 2 * pi)), "b0": float(rng.uniform(0, 2 * pi))}
        dense = dense_state(circuit, binding)
        fast = run(circuit, binding).amplitudes
        assert np.max(np.abs(dense - fast)) < 1e-9


def test_dense_a1_block_closed_form():
    theta1, theta2 = 1.3, 0.8
    circuit = Circuit(
        3,
        (
            Gate("x", (0,)),
            Gate("cry", (0, 1), theta1),
            Gate("cry", (1, 2), theta2),
            Gate("cx", (1, 0)),
            Gate("cx", (2, 1)),
        ),
        (),
    )
    amps = dense_state(circuit)
    assert abs(amps[bits_to_index("100")] - np.cos(theta1 / 2)) < 1e-12
    assert abs(amps[bits_to_index("010")] - np.sin(theta1 / 2) * np.cos(theta2 / 2)) < 1e-12
    assert abs(amps[bits_to_index("001")] - np.sin(theta1 / 2) * np.sin(theta2 / 2)) < 1e-12


def test_dense_qubit_cap():
    with pytest.raises(QubitCountExceededError):
        dense_state(Circuit(7, (), ()))
