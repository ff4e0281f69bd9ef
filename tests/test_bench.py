from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvarsched import (
    OptimizerConfig,
    bench,
    build_layout,
    check_feasible,
    decode,
    gain,
    qubit_count,
    run_experiment,
    scaling_instance,
    score,
    simulator,
    vqa,
)
from qvarsched.bench import (
    CSV_COLUMNS,
    ExperimentConfig,
    Metrics,
    report_csv,
    scaling_sweep,
    sweep_csv,
)
from qvarsched.errors import InstanceMismatchError
from qvarsched.oracle import enumerate_solutions
from qvarsched.simulator import Circuit, Counts, Gate, index_to_bits, run, sample

from helpers import bits_to_index, brute_force_oracle, random_problem, reference_problem, spy_calls


@pytest.fixture(scope="module")
def report():
    problem = reference_problem("EOHL")
    return enumerate_solutions(build_layout(problem))


def _counts(qubit_count, hits):
    """A Counts of {basis index: hits}."""
    indices = sorted(hits)
    return Counts(qubit_count, np.array(indices), np.array([hits[i] for i in indices]))


def test_score_all_shots_on_one_optimum(report):
    counts = _counts(8, {bits_to_index("10100101"): 4096})
    metrics = score(counts, report)
    assert metrics.p_best == 1.0 and metrics.p_feas == 1.0
    assert metrics.c_best == 256 / 2 == 128.0
    assert metrics.c_feas == 256 / 4


def test_score_uniform_counts(report):
    counts = Counts(8, np.arange(256), np.full(256, 16))
    metrics = score(counts, report)
    assert metrics.p_feas == 4 / 256
    assert metrics.c_feas == 1.0
    assert metrics.c_best == 1.0


def test_score_infeasible_only_counts(report):
    counts = _counts(8, {bits_to_index("11111111"): 4096})
    metrics = score(counts, report)
    assert metrics == type(metrics)(0.0, 0.0, 0.0, 0.0)


def test_score_is_pure(report):
    counts = _counts(8, {bits_to_index("10100101"): 100, bits_to_index("11100000"): 28})
    assert score(counts, report) == score(counts, report)


def test_score_instance_mismatch(report):
    with pytest.raises(InstanceMismatchError):
        score(_counts(3, {bits_to_index("101"): 1}), report)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_score_equals_a_per_hit_count_over_check_feasible_and_gain(problem_seed, data):
    problem = random_problem(np.random.default_rng(problem_seed), max_qubits=10)
    layout = build_layout(problem)
    q = layout.qubit_count
    oracle = brute_force_oracle(layout)
    # Optimal and feasible indices are rare among all 2^Q, so draw them too.
    index = st.integers(0, (1 << q) - 1)
    for chosen in (oracle.feasible, oracle.optimal):
        if chosen:
            index = index | st.sampled_from(sorted(chosen))
    hits = data.draw(st.dictionaries(index, st.integers(1, 1000), min_size=1, max_size=40))
    best_hits = feasible_hits = 0
    for index, count in hits.items():
        bits = index_to_bits(index, q)
        if check_feasible(layout, bits):
            feasible_hits += count
            if gain(problem, decode(layout, bits)) == oracle.optimal_gain:
                best_hits += count
    shots = sum(hits.values())
    p_best, p_feas = best_hits / shots, feasible_hits / shots
    expected = Metrics(
        p_best,
        p_feas,
        p_best * 2**q / oracle.best_count if oracle.best_count else 0.0,
        p_feas * 2**q / oracle.feasible_count if oracle.feasible_count else 0.0,
    )
    assert score(_counts(q, hits), enumerate_solutions(layout)) == expected


def test_c_feas_of_uniform_sampler_is_one(report):
    circuit = Circuit(8, tuple(Gate("h", (q,)) for q in range(8)), ())
    counts = sample(run(circuit), 4096, seed=101)
    metrics = score(counts, report)
    p = report.feasible_count / report.total
    sigma_c = (p * (1 - p) / 4096) ** 0.5 * report.total / report.feasible_count
    assert abs(metrics.c_feas - 1.0) < 3 * sigma_c


def _tiny_config(algorithm="a4", runs=3, seed=11, **kwargs):
    return ExperimentConfig(
        algorithm=algorithm,
        optimizer=OptimizerConfig(restarts=1, max_iterations=30),
        runs=runs,
        seed=seed,
        **kwargs,
    )


def _eohl():
    return vqa.Instance(reference_problem("EOHL"))


def test_run_experiment_structure():
    report = run_experiment(_eohl(), _tiny_config())
    assert len(report.runs) == 3
    assert report.qubit_count == 8
    assert report.algorithm == "a4"
    for field in ("p_best", "p_feas", "c_best", "c_feas"):
        values = [getattr(r.metrics, field) for r in report.runs]
        assert min(values) <= report.mean[field] <= max(values)


def test_run_experiment_deterministic_modulo_timing():
    first = run_experiment(_eohl(), _tiny_config())
    second = run_experiment(_eohl(), _tiny_config())
    for a, b in zip(first.runs, second.runs):
        assert a.seed == b.seed
        assert a.parameters == b.parameters
        assert (a.metrics.p_best, a.metrics.p_feas) == (b.metrics.p_best, b.metrics.p_feas)
        assert a.iterations == b.iterations


def test_run_experiment_qaoa_label():
    config = _tiny_config(algorithm="qaoa", runs=1, reps=2)
    report = run_experiment(_eohl(), config)
    assert report.algorithm == "qaoa-2"
    assert len(report.runs[0].parameters) == 4


def test_ansatz_comparison_shape():
    instance = _eohl()
    reports = [
        run_experiment(instance, _tiny_config(algorithm=kind, runs=2))
        for kind in ("a1", "a2", "a3", "a4")
    ]
    assert [r.algorithm for r in reports] == ["a1", "a2", "a3", "a4"]
    csv_text = report_csv(reports)
    lines = csv_text.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 8


def test_scaling_instance_qubit_growth():
    for processes in range(3, 8):
        problem = scaling_instance(processes)
        assert problem.variant.name == "ECHL"
        assert qubit_count(problem) == 3 * processes + 2
    base = scaling_instance(3)
    weights = tuple(p.weight for p in base.processes)
    assert weights == (2, 1, 1)
    assert [tuple(v) for v in (p.values for p in base.processes)] == [
        (2, 1),
        (3, 1),
        (2, 1),
    ]


def test_scaling_sweep_small():
    points = scaling_sweep(
        range(3, 5),
        replace(bench.SWEEP_CONFIG, optimizer=OptimizerConfig(restarts=1, max_iterations=5), seed=3),
    )
    assert [p.processes for p in points] == [3, 4]
    assert [p.qubit_count for p in points] == [11, 14]
    assert all(p.sim_seconds > 0 for p in points)
    csv_text = sweep_csv(points)
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("processes,qubits,sim_seconds")
    assert len(lines) == 3


def test_instance_is_built_once_per_experiment_and_sweep_point(monkeypatch):
    encoded = spy_calls(monkeypatch, vqa, "encode")
    energies = spy_calls(monkeypatch, vqa, "diagonal_energies")
    config = ExperimentConfig("a4", OptimizerConfig(max_iterations=10, restarts=2), runs=3)
    # a1-a4 read energies only where their program reaches: no 2^Q table,
    # in the runs, restarts or the sweep's timing probe.
    for kind in ("a1", "a2", "a3", "a4"):
        run_experiment(_eohl(), replace(config, algorithm=kind))
    assert len(encoded) == 4 and energies == []
    scaling_sweep([3], replace(config, optimizer=OptimizerConfig(max_iterations=5, restarts=1)))
    assert len(encoded) == 5 and energies == []
    run_experiment(_eohl(), replace(config, algorithm="qaoa"))
    assert len(encoded) == 6 and len(energies) == 1


@pytest.mark.parametrize("algorithm", ["a4", "qaoa"])
@pytest.mark.parametrize("mode", vqa.MODES)
def test_one_objective_serves_every_run_and_each_equals_a_fresh_optimize(
    monkeypatch, algorithm, mode
):
    objectives = spy_calls(monkeypatch, bench, "Objective")
    runs = []

    def recording(objective, config):
        result = vqa.optimize(objective, config)
        runs.append((objective, result))
        return result

    monkeypatch.setattr(bench, "optimize", recording)
    config = _tiny_config(algorithm, runs=3, mode=mode, shots=256)
    config = replace(config, optimizer=replace(config.optimizer, restarts=2))
    report = run_experiment(_eohl(), config)
    assert len(objectives) == 1 and len({id(objective) for objective, _ in runs}) == 1
    assert len({record.seed for record in report.runs}) == 3
    for record, (_, shared) in zip(report.runs, runs, strict=True):
        instance = _eohl()
        fresh = vqa.optimize(
            vqa.Objective(instance, vqa.build_circuit(algorithm, instance), mode, 256),
            replace(config.optimizer, seed=record.seed),
        )
        assert shared.parameters == fresh.parameters == record.parameters
        assert shared.counts.indices.tobytes() == fresh.counts.indices.tobytes()
        assert shared.counts.counts.tobytes() == fresh.counts.counts.tobytes()


def test_scaling_sweep_passes_on_experiment_settings():
    config = ExperimentConfig(
        "qaoa", OptimizerConfig(restarts=1, max_iterations=6), reps=2, mode="sampled", shots=64, runs=2
    )
    points = scaling_sweep([3], config)
    report = points[0].report
    assert report.algorithm == "qaoa-2" and len(report.runs) == 2
    assert all(len(run.parameters) == 4 for run in report.runs)
    with pytest.raises(ValueError, match="mode"):
        scaling_sweep([3], replace(bench.SWEEP_CONFIG, mode="approx"))


def test_unknown_algorithm_raises_before_any_energies(monkeypatch):
    energies = spy_calls(monkeypatch, vqa, "diagonal_energies")
    with pytest.raises(ValueError, match="a5"):
        run_experiment(_eohl(), _tiny_config(algorithm="a5"))
    assert energies == []


@pytest.mark.parametrize(
    "setting, match",
    [
        ({"shots": 0}, "shots"),
        ({"shots": 2**63}, "shots must be <= 9223372036854775807"),
        ({"runs": 2**63}, "runs must be <= 9223372036854775807"),
        ({"mode": "approx"}, "mode"),
        ({"seed": -1}, "seed"),
        ({"reps": 0}, "reps"),
        ({"algorithm": "a4", "reps": 3}, "reps"),
    ],
)
def test_bad_settings_raise_before_any_energies(monkeypatch, setting, match):
    energies = spy_calls(monkeypatch, vqa, "diagonal_energies")
    minimized = spy_calls(monkeypatch, vqa, "minimize")
    with pytest.raises(ValueError, match=match):
        run_experiment(_eohl(), _tiny_config(**{"algorithm": "qaoa", **setting}))
    assert energies == [] and minimized == []


def test_sweep_compiles_each_point_circuit_once(monkeypatch):
    compiled = spy_calls(monkeypatch, simulator, "_compile")
    config = replace(bench.SWEEP_CONFIG, optimizer=OptimizerConfig(max_iterations=10, restarts=2))
    points = scaling_sweep([3, 4], config)
    # Every evaluation, final measurement and timing probe of a point runs
    # one compiled program.
    assert [c.qubit_count for (c,) in compiled] == [p.qubit_count for p in points]
