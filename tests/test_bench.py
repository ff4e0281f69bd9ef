import numpy as np
import pytest

from qvarsched import (
    OptimizerConfig,
    build_layout,
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
    report_csv,
    scaling_sweep,
    sweep_csv,
)
from qvarsched.errors import InstanceMismatchError
from qvarsched.oracle import enumerate_solutions
from qvarsched.simulator import Circuit, Counts, Gate, run, sample

from helpers import reference_problem, spy_calls


@pytest.fixture(scope="module")
def report():
    problem = reference_problem("EOHL")
    return enumerate_solutions(problem, build_layout(problem))


def test_score_all_shots_on_one_optimum(report):
    counts = Counts({"10100101": 4096}, 4096)
    metrics = score(counts, report)
    assert metrics.p_best == 1.0 and metrics.p_feas == 1.0
    assert metrics.c_best == 256 / 2 == 128.0
    assert metrics.c_feas == 256 / 4


def test_score_uniform_counts(report):
    counts = Counts({format(i, "08b"): 16 for i in range(256)}, 4096)
    metrics = score(counts, report)
    assert metrics.p_feas == 4 / 256
    assert metrics.c_feas == 1.0
    assert metrics.c_best == 1.0


def test_score_infeasible_only_counts(report):
    counts = Counts({"11111111": 4096}, 4096)
    metrics = score(counts, report)
    assert metrics == type(metrics)(0.0, 0.0, 0.0, 0.0)


def test_score_is_pure(report):
    counts = Counts({"10100101": 100, "11100000": 28}, 128)
    assert score(counts, report) == score(counts, report)


def test_score_instance_mismatch(report):
    with pytest.raises(InstanceMismatchError):
        score(Counts({"101": 1}, 1), report)


def test_c_feas_of_uniform_sampler_is_one(report):
    circuit = Circuit(8, tuple(Gate("h", (q,)) for q in range(8)), ())
    counts = sample(run(circuit), 4096, seed=101)
    metrics = score(counts, report)
    p = report.feasible_count / report.total
    sigma_c = (p * (1 - p) / 4096) ** 0.5 * report.total / report.feasible_count
    assert abs(metrics.c_feas - 1.0) < 3 * sigma_c


def _tiny_config(problem, algorithm="a4", runs=3, seed=11, **kwargs):
    return ExperimentConfig(
        problem=problem,
        algorithm=algorithm,
        optimizer=OptimizerConfig(restarts=1, max_iterations=30),
        runs=runs,
        seed=seed,
        **kwargs,
    )


def test_run_experiment_structure():
    problem = reference_problem("EOHL")
    report = run_experiment(_tiny_config(problem))
    assert len(report.runs) == 3
    assert report.qubit_count == 8
    assert report.algorithm == "a4"
    for field in ("p_best", "p_feas", "c_best", "c_feas"):
        values = [getattr(r.metrics, field) for r in report.runs]
        assert min(values) <= report.mean[field] <= max(values)


def test_run_experiment_deterministic_modulo_timing():
    problem = reference_problem("EOHL")
    first = run_experiment(_tiny_config(problem))
    second = run_experiment(_tiny_config(problem))
    for a, b in zip(first.runs, second.runs):
        assert a.seed == b.seed
        assert a.parameters == b.parameters
        assert (a.metrics.p_best, a.metrics.p_feas) == (b.metrics.p_best, b.metrics.p_feas)
        assert a.metrics.iterations == b.metrics.iterations


def test_run_experiment_qaoa_label():
    problem = reference_problem("EOHL")
    config = _tiny_config(problem, algorithm="qaoa", runs=1, reps=2)
    report = run_experiment(config)
    assert report.algorithm == "qaoa-2"
    assert len(report.runs[0].parameters) == 4


def test_ansatz_comparison_shape():
    problem = reference_problem("EOHL")
    reports = [
        run_experiment(_tiny_config(problem, algorithm=kind, runs=2))
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
        optimizer=OptimizerConfig(restarts=1, max_iterations=5),
        seed=3,
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
    config = ExperimentConfig(
        problem=reference_problem("EOHL"),
        algorithm="a4",
        optimizer=OptimizerConfig(max_iterations=10, restarts=2),
        runs=3,
    )
    run_experiment(config)
    assert len(encoded) == 1 and len(energies) == 1
    scaling_sweep([3], optimizer=OptimizerConfig(max_iterations=5, restarts=1))
    assert len(encoded) == 2 and len(energies) == 2


def test_sweep_compiles_each_point_circuit_once(monkeypatch):
    compiled = spy_calls(monkeypatch, simulator, "_compile")
    points = scaling_sweep([3, 4], optimizer=OptimizerConfig(max_iterations=10, restarts=2))
    # Every evaluation, final measurement and timing probe of a point runs
    # one compiled program.
    assert [c.qubit_count for (c,) in compiled] == [p.qubit_count for p in points]
