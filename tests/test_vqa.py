import warnings
from dataclasses import replace

import numpy as np
import pytest
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
from qvarsched.bench import scaling_instance
from qvarsched.circuits import a1_basis_angles, build_ansatz, build_qaoa
from qvarsched.errors import (
    InstanceMismatchError,
    NonFiniteObjectiveError,
    QubitCountExceededError,
)
from qvarsched.oracle import enumerate_solutions
from qvarsched.simulator import diagonal_energies, run, sample
from qvarsched.vqa import COUNT_LIMIT, minimize

from helpers import bits_to_index, dense_state, reference_problem, spy_calls


def test_minimize_quadratic():
    config = OptimizerConfig(max_iterations=200, initial_point=(0.0,))
    result = minimize(lambda x: (x[0] - 1.0) ** 2, 1, config)
    assert abs(result.parameters[0] - 1.0) < 1e-3
    assert len(result.trace) <= 200
    assert result.value == min(result.trace)


def test_minimize_rosenbrock():
    # COBYLA at the documented defaults needs ~5000 evaluations to reach the
    # valley floor.
    config = OptimizerConfig(max_iterations=5000, tolerance=1e-8, initial_point=(-1.0, 1.0))
    assert minimize(rosen, 2, config).value < 1e-2


def test_minimize_constant_function():
    config = OptimizerConfig(max_iterations=500, initial_point=(0.3, 0.7))
    result = minimize(lambda x: 1.5, 2, config)
    assert result.value == 1.5
    assert len(result.trace) < 500  # tolerance stop, not budget exhaustion
    assert result.parameters == (0.3, 0.7)


def test_minimize_rejects_non_finite():
    config = OptimizerConfig(max_iterations=50, initial_point=(0.0,))
    with pytest.raises(NonFiniteObjectiveError):
        minimize(lambda x: float("nan"), 1, config)


def test_minimize_running_minimum_is_monotone():
    config = OptimizerConfig(max_iterations=300, seed=9)
    result = minimize(lambda x: float(np.sum((x - 0.5) ** 2)), 3, config)
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
    with pytest.raises(ValueError):
        OptimizerConfig(tolerance=0.0)


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1e-4, 1e300, 1.5])
def test_config_rejects_tolerance_cobyla_would_reset(tolerance):
    with pytest.raises(ValueError, match="tolerance"):
        OptimizerConfig(tolerance=tolerance)


def test_cobyla_tolerance_bound_is_the_initial_trust_radius():
    config = OptimizerConfig(tolerance=1.0, max_iterations=50, initial_point=(0.5, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        minimize(lambda x: float(x @ x), 2, config)


def test_cobyla_budget_below_dim_plus_two_is_raised_and_recorded():
    config = OptimizerConfig(max_iterations=1, initial_point=(0.5, 0.5))
    with pytest.warns(UserWarning, match="max_iterations 1 raised to 4"):
        result = minimize(lambda x: float(x @ x), 2, config)
    assert result.budget == 4 and len(result.trace) == 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert minimize(lambda x: float(x @ x), 2, replace(config, max_iterations=4)).budget == 4
    problem = reference_problem("EOHL")
    with pytest.warns(UserWarning, match="raised to 4"):
        assert run_qaoa(problem, 1, replace(config, restarts=2)).budget == 4
    assert run_qaoa(problem, 1, replace(config, max_iterations=7)).budget == 7


def test_run_vqe_deterministic_in_exact_mode():
    problem = reference_problem("EOHL")
    config = OptimizerConfig(seed=4, restarts=2, max_iterations=60)
    first = run_vqe(problem, "a4", config)
    second = run_vqe(problem, "a4", config)
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
    config = OptimizerConfig(
        seed=0, restarts=1, max_iterations=50, initial_point=tuple(angles)
    )
    result = run_vqe(problem, "a1", config)
    assert result.value <= -6.0 + 1e-9
    assert result.counts.indices.tolist() == [bits_to_index("10100101")]
    assert result.counts.counts.tolist() == [4096]


def test_zero_initial_point_is_valid_for_all_ansatzes():
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    for kind in ("a1", "a2", "a3", "a4"):
        circuit = build_ansatz(kind, layout)
        config = OptimizerConfig(
            seed=0,
            restarts=1,
            max_iterations=5,
            initial_point=(0.0,) * len(circuit.parameters),
        )
        result = run_vqe(problem, kind, config)
        assert np.isfinite(result.value)


def test_qaoa_gamma_zero_objective_is_constant():
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    model = encode(layout)
    config = OptimizerConfig(
        seed=1, restarts=1, max_iterations=1, initial_point=(0.0, 0.9)
    )
    result = run_qaoa(problem, 1, config)
    assert abs(result.trace[0] - float(model.constant)) < 1e-9


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
    config = OptimizerConfig(seed=2, restarts=1, max_iterations=40)
    result = run_vqe(problem, "a4", config, mode="sampled", shots=256)
    assert result.counts.shots == 256
    assert len(result.trace) == result.iterations
    with pytest.raises(ValueError):
        run_vqe(problem, "a4", config, mode="approximate")


def test_trace_best_value_consistency():
    problem = reference_problem("EOHL")
    config = OptimizerConfig(seed=6, restarts=3, max_iterations=80)
    result = run_qaoa(problem, 2, config)
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
    config = OptimizerConfig(max_iterations=40, restarts=2, seed=3)
    result = vqa.optimize(vqa.Objective(instance, circuit, mode, shots=512), config)
    final_seed = int(np.random.default_rng(config.seed).integers(vqa.SEED_RANGE))
    expected = sample(run(circuit, result.parameters), 512, final_seed)
    assert result.counts.indices.tobytes() == expected.indices.tobytes()
    assert result.counts.counts.tobytes() == expected.counts.tobytes()


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
    assert runs == []
