import re
import warnings
from dataclasses import replace
from functools import partial
from math import pi

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import rosen

from qvarsched import (
    OptimizerConfig,
    build_layout,
    encode,
    make_problem,
    run_qaoa,
    run_vqe,
    vqa,
)
from qvarsched.bench import ExperimentConfig, scaling_instance
from qvarsched.circuits import build_ansatz, build_qaoa
from qvarsched.errors import (
    InstanceMismatchError,
    NonFiniteObjectiveError,
    QubitCountExceededError,
)
from qvarsched.oracle import enumerate_solutions
from qvarsched.simulator import diagonal_energies, run, sample
from qvarsched.vqa import COUNT_LIMIT, minimize

from helpers import (
    a1_basis_angles,
    bits_to_index,
    dense_state,
    qaoa1_expectation,
    random_problem,
    reference_problem,
    spy_calls,
)


def test_minimize_quadratic():
    config = OptimizerConfig(max_iterations=200)
    result = minimize(lambda x: (x[0] - 1.0) ** 2, (0.0,), config)
    assert abs(result.parameters[0] - 1.0) < 1e-3
    assert len(result.trace) <= 200
    assert result.value == min(result.trace)


def test_minimize_rosenbrock():
    # COBYLA at the documented defaults needs ~5000 evaluations to reach the
    # valley floor.
    config = OptimizerConfig(max_iterations=5000, tolerance=1e-8)
    assert minimize(rosen, (-1.0, 1.0), config).value < 1e-2


def test_minimize_constant_function():
    config = OptimizerConfig(max_iterations=500)
    result = minimize(lambda x: 1.5, (0.3, 0.7), config)
    assert result.value == 1.5
    assert len(result.trace) < 500  # tolerance stop, not budget exhaustion
    assert result.parameters == (0.3, 0.7)


def test_minimize_rejects_non_finite():
    config = OptimizerConfig(max_iterations=50)
    with pytest.raises(NonFiniteObjectiveError):
        minimize(lambda x: float("nan"), (0.0,), config)


def test_minimize_running_minimum_is_monotone():
    config = OptimizerConfig(max_iterations=300)
    x0 = np.random.default_rng(9).uniform(0.0, pi, 3)
    result = minimize(lambda x: float(np.sum((x - 0.5) ** 2)), x0, config)
    best = np.minimum.accumulate(result.trace)
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
    assert result.value == best[-1]


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(max_iterations=0)
    for field in ("max_iterations", "restarts"):
        with pytest.raises(ValueError, match=f"{field} must be <= {COUNT_LIMIT}"):
            OptimizerConfig(**{field: COUNT_LIMIT + 1})
        OptimizerConfig(**{field: COUNT_LIMIT})
        for value in (1.5, 12.5, "10"):
            message = f"{field} must be an integer, got {value!r}"
            with pytest.raises(ValueError, match=re.escape(message) + "$"):
                OptimizerConfig(**{field: value})
    with pytest.raises(ValueError):
        OptimizerConfig(tolerance=0.0)


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1e-4, 1e300, 1.5])
def test_config_rejects_tolerance_cobyla_would_reset(tolerance):
    with pytest.raises(ValueError, match="tolerance"):
        OptimizerConfig(tolerance=tolerance)


def test_cobyla_tolerance_bound_is_the_initial_trust_radius():
    config = OptimizerConfig(tolerance=1.0, max_iterations=50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        minimize(lambda x: float(x @ x), (0.5, 0.5), config)


def test_cobyla_budget_below_dim_plus_two_is_raised_and_recorded():
    config = OptimizerConfig(max_iterations=1)
    with pytest.warns(UserWarning, match="max_iterations 1 raised to 4"):
        result = minimize(lambda x: float(x @ x), (0.5, 0.5), config)
    assert result.budget == 4 and len(result.trace) == 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert minimize(lambda x: float(x @ x), (0.5, 0.5), replace(config, max_iterations=4)).budget == 4
    problem = reference_problem("EOHL")
    with pytest.warns(UserWarning, match="raised to 4"):
        assert run_qaoa(problem, 1, replace(config, restarts=2)).budget == 4
    assert run_qaoa(problem, 1, replace(config, max_iterations=7)).budget == 7


def test_run_vqe_deterministic_in_exact_mode():
    problem = reference_problem("EOHL")
    config = OptimizerConfig(restarts=2, max_iterations=60)
    first = run_vqe(problem, "a4", config, seed=4)
    second = run_vqe(problem, "a4", config, seed=4)
    assert first.parameters == second.parameters
    assert first.trace == second.trace
    assert first.counts.indices.tobytes() == second.counts.indices.tobytes()
    assert first.counts.counts.tobytes() == second.counts.counts.tobytes()
    assert first.iterations == second.iterations


def test_run_vqe_reaches_optimum_from_closed_form_point():
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    model = encode(layout)
    circuit = build_ansatz("a1", layout)
    angles = a1_basis_angles(layout, "10100101")
    state = run(circuit, angles)
    assert abs(float(state.probabilities() @ diagonal_energies(model)) + 6.0) < 1e-9
    instance = vqa.Instance(problem)
    objective = vqa.Objective(instance, vqa.build_circuit("a1", instance))
    # Exact mode reads no rng.
    result = minimize(partial(objective, rng=None), angles, OptimizerConfig(max_iterations=50))
    assert result.value <= -6.0 + 1e-9
    counts = objective.sample(result.parameters, 0)
    assert counts.indices.tolist() == [bits_to_index("10100101")]
    assert counts.counts.tolist() == [4096]


def test_zero_initial_point_is_valid_for_all_ansatzes():
    instance = vqa.Instance(reference_problem("EOHL"))
    for kind in ("a1", "a2", "a3", "a4"):
        objective = vqa.Objective(instance, vqa.build_circuit(kind, instance))
        x0 = (0.0,) * len(objective.circuit.parameters)
        result = minimize(partial(objective, rng=None), x0, OptimizerConfig(max_iterations=5))
        assert np.isfinite(result.value)
        assert objective.sample(result.parameters, 0).shots == 4096


def test_qaoa_gamma_zero_objective_is_constant():
    instance = vqa.Instance(reference_problem("EOHL"))
    objective = vqa.Objective(instance, vqa.build_circuit("qaoa", instance))
    result = minimize(partial(objective, rng=None), (0.0, 0.9), OptimizerConfig(max_iterations=1))
    assert abs(result.trace[0] - float(instance.model.constant)) < 1e-9
    assert qaoa1_expectation(instance.model, 0.0, 0.9) == float(instance.model.constant)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(("ECFL", "EOFL", "ECHL", "EOHL")),
    st.integers(0, 2**32 - 1),
    st.floats(-pi, pi),
    st.floats(-pi, pi),
)
def test_the_closed_form_p1_energy_equals_the_exact_objective(variant, seed, g, b):
    # The closed form shares no code with the diagonal op, the mixer or the energies.
    instance = vqa.Instance(random_problem(np.random.default_rng(seed), max_qubits=12, variants=(variant,)))
    objective = vqa.Objective(instance, vqa.build_circuit("qaoa", instance))
    exact = objective(np.array([g, b]), None)
    assert abs(qaoa1_expectation(instance.model, g, b) - exact) <= 1e-12 * float(instance.energy_bound)


def test_the_closed_form_p1_energy_equals_the_exact_objective_at_23_qubits():
    # One circuit, compiled once, at three points of the scaling family's P=7.
    instance = vqa.Instance(scaling_instance(7))
    objective = vqa.Objective(instance, vqa.build_circuit("qaoa", instance))
    assert instance.layout.qubit_count == 23
    for g, b in ((0.013, 0.7), (-0.05, 2.1), (1.3, -0.4)):
        exact = objective(np.array([g, b]), None)
        assert abs(qaoa1_expectation(instance.model, g, b) - exact) <= 1e-12 * float(instance.energy_bound)


def test_qaoa_expectation_matches_dense_evolution():
    from fractions import Fraction

    from qvarsched.encoder import IsingModel

    model = IsingModel(
        3,
        Fraction(0),
        (Fraction(1), Fraction(0), Fraction(2)),
        {(0, 1): Fraction(-4), (1, 2): Fraction(-2)},
        Fraction(1),
    )
    circuit = build_qaoa(model, 1)
    energies = diagonal_energies(model)
    rng = np.random.default_rng(31)
    for _ in range(5):
        binding = {"g0": float(rng.uniform(0, np.pi)), "b0": float(rng.uniform(0, np.pi))}
        fast = float(run(circuit, binding).probabilities() @ energies)
        dense = float(np.abs(dense_state(circuit, binding)) ** 2 @ energies)
        assert abs(fast - dense) < 1e-9


def _reparsed_energy(counts, energies):
    """Sampled energy as a plain left-to-right sum over the (index, count) pairs."""
    value = sum(
        count * energies[index]
        for index, count in zip(counts.indices.tolist(), counts.counts.tolist())
    )
    return value / counts.shots


def test_sampled_mode_estimator_is_unbiased():
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    model = encode(layout)
    circuit = build_ansatz("a1", layout)
    rng = np.random.default_rng(77)
    theta = rng.uniform(0, np.pi, len(circuit.parameters))
    state = run(circuit, theta)
    energies = diagonal_energies(model)
    exact = float(state.probabilities() @ energies)
    shots = 512
    estimates = []
    for batch in range(100):
        estimates.append(_reparsed_energy(sample(state, shots, seed=batch), energies))
    probs = state.probabilities()
    variance = float(probs @ (energies - exact) ** 2)
    sem = (variance / shots / 100) ** 0.5
    assert abs(np.mean(estimates) - exact) < 3 * sem + 1e-12


def test_run_vqe_sampled_mode_runs():
    problem = reference_problem("EOHL")
    config = OptimizerConfig(restarts=1, max_iterations=40)
    result = run_vqe(problem, "a4", config, mode="sampled", shots=256, seed=2)
    assert result.counts.shots == 256
    assert len(result.trace) == result.iterations
    with pytest.raises(ValueError):
        run_vqe(problem, "a4", config, mode="approximate")


def test_trace_best_value_consistency():
    problem = reference_problem("EOHL")
    config = OptimizerConfig(restarts=3, max_iterations=80)
    result = run_qaoa(problem, 2, config, seed=6)
    assert result.value == min(result.trace)
    assert result.iterations == len(result.trace)
    assert result.counts.shots == 4096


def test_sampled_energy_matches_a_plain_sum_bit_for_bit():
    # Fractional gains make the energies inexact binary fractions, so any change
    # in summation order shows up in the last bits.
    problem = make_problem(
        "EOFL", [1, 1, 1], [("7/3", "1/7"), ("3/11", "5/9"), ("1/7", "7/3")], (2, 2)
    )
    instance = vqa.Instance(problem)
    circuit = vqa.build_circuit("a1", instance)
    # The objective reads the circuit's energy view; the plain sum reads the full table.
    objective = vqa.Objective(instance, circuit, "sampled", 4096)
    energies = diagonal_energies(instance.model)
    rng = np.random.default_rng(5)
    for seed in range(300):
        theta = rng.uniform(0, np.pi, len(circuit.parameters))
        indexed = objective(theta, np.random.default_rng(seed))
        drawn = int(np.random.default_rng(seed).integers(2**31))
        assert indexed == _reparsed_energy(sample(run(circuit, theta), 4096, drawn), energies)


@pytest.mark.parametrize("algorithm", ["a4", "qaoa"])
@pytest.mark.parametrize("mode", vqa.MODES)
def test_the_final_counts_equal_a_sample_of_a_fresh_run_bit_for_bit(algorithm, mode):
    instance = vqa.Instance(reference_problem("ECHL"))
    circuit = vqa.build_circuit(algorithm, instance)
    config = OptimizerConfig(max_iterations=40, restarts=2)
    result = vqa.optimize(vqa.Objective(instance, circuit, mode, shots=512), config, 3)
    final_seed = int(np.random.default_rng(3).integers(vqa.SEED_RANGE))
    expected = sample(run(circuit, result.parameters), 512, final_seed)
    assert result.counts.indices.tobytes() == expected.indices.tobytes()
    assert result.counts.counts.tobytes() == expected.counts.tobytes()


def _eohl_a4_objective():
    instance = vqa.Instance(reference_problem("EOHL"))
    return vqa.Objective(instance, vqa.build_circuit("a4", instance))


def test_each_restart_starts_from_a_point_its_own_seed_draws(monkeypatch):
    minimized = spy_calls(monkeypatch, vqa, "minimize")
    objective = _eohl_a4_objective()
    vqa.optimize(objective, OptimizerConfig(max_iterations=10, restarts=3), 5)
    master = np.random.default_rng(5)
    master.integers(vqa.SEED_RANGE)  # the final measurement's seed comes first
    restart_seeds = master.integers(vqa.SEED_RANGE, size=3).tolist()
    dim = len(objective.circuit.parameters)
    starts = [x0 for _, x0, _ in minimized]
    for x0, seed in zip(starts, restart_seeds, strict=True):
        assert x0.tobytes() == np.random.default_rng(seed).uniform(0.0, pi, dim).tobytes()
    assert len({x0.tobytes() for x0 in starts}) == 3


@pytest.mark.parametrize(
    "seed, message", [(-1, "seed must be >= 0, got -1"), (1.5, "seed must be an integer, got 1.5")]
)
def test_optimize_and_an_experiment_config_check_a_seed_by_one_rule(monkeypatch, seed, message):
    minimized = spy_calls(monkeypatch, vqa, "minimize")
    pattern = re.escape(message) + "$"
    with pytest.raises(ValueError, match=pattern):
        vqa.optimize(_eohl_a4_objective(), OptimizerConfig(restarts=1), seed)
    with pytest.raises(ValueError, match=pattern):
        ExperimentConfig("a4", OptimizerConfig(), seed=seed)
    assert minimized == []


def test_a_seed_has_no_maximum():
    config = OptimizerConfig(max_iterations=10, restarts=1)
    first = vqa.optimize(_eohl_a4_objective(), config, 2**70)
    assert first.parameters == vqa.optimize(_eohl_a4_objective(), config, 2**70).parameters
    ExperimentConfig("a4", config, seed=2**70)


def test_qubit_cap_is_checked_before_any_encoding(monkeypatch):
    encoded = spy_calls(monkeypatch, vqa, "encode")
    energies = spy_calls(monkeypatch, vqa, "diagonal_energies")
    with pytest.raises(QubitCountExceededError, match="11 qubits"):
        vqa.Instance(scaling_instance(3), max_qubits=8)
    assert encoded == [] and energies == []
    # The cap is checked once, so nothing keeps it.
    instance = vqa.Instance(scaling_instance(3), max_qubits=11)
    objective = vqa.Objective(instance, vqa.build_circuit("a4", instance))
    assert "max_qubits" not in vars(instance) and "max_qubits" not in vars(objective)


@pytest.mark.parametrize("algorithm", ["a4", "qaoa"])
def test_an_objective_rejects_a_circuit_of_another_instance_width(monkeypatch, algorithm):
    runs = spy_calls(monkeypatch, vqa, "run")
    instance = vqa.Instance(reference_problem("ECHL"))
    circuit = vqa.build_circuit(algorithm, vqa.Instance(reference_problem("EOHL")))
    with pytest.raises(InstanceMismatchError, match="circuit has 8 qubits, instance has 11"):
        vqa.Objective(instance, circuit)
    assert runs == []


@pytest.mark.parametrize("mode", vqa.MODES)
def test_an_objective_rejects_zero_shots_before_any_run(monkeypatch, mode):
    runs = spy_calls(monkeypatch, vqa, "run")
    instance = vqa.Instance(reference_problem("EOHL"))
    with pytest.raises(ValueError, match="shots must be >= 1"):
        vqa.Objective(instance, vqa.build_circuit("a4", instance), mode, 0)
    with pytest.raises(ValueError, match="shots must be an integer, got 2.5"):
        vqa.Objective(instance, vqa.build_circuit("a4", instance), mode, 2.5)
    assert runs == []


@pytest.mark.parametrize(
    "name, reps, message",
    [
        *(pytest.param(name, 1, f"unknown algorithm {name!r}, expected one of {vqa.ALGORITHMS}", id=name)
          for name in ("A4", "QAOA", "a5")),
        pytest.param("a4", 3, "reps applies to qaoa only, got reps 3 for a4", id="a4-3"),
        pytest.param("qaoa", 0, "reps must be >= 1, got 0", id="qaoa-0"),
        pytest.param("qaoa", 1.5, "reps must be an integer, got 1.5", id="qaoa-1.5"),
    ],
)
def test_build_circuit_rejects_a_name_outside_algorithms_before_caching(name, reps, message):
    # One rule, circuits.check_algorithm: ExperimentConfig and, for reps,
    # build_qaoa give build_circuit's message word for word.
    instance = vqa.Instance(reference_problem("EOHL"))
    pattern = re.escape(message) + "$"
    with pytest.raises(ValueError, match=pattern):
        vqa.build_circuit(name, instance, reps)
    assert instance.circuits == {} and instance.views == {}
    with pytest.raises(ValueError, match=pattern):
        ExperimentConfig(name, OptimizerConfig(), reps=reps)
    if name == "qaoa":
        with pytest.raises(ValueError, match=pattern):
            build_qaoa(instance.model, reps)
