"""Performance indices and experiment orchestration.

P_best / P_feas are the shot fractions landing on optimal / feasible
basis states; C_best / C_feas divide them by the random-guess probability
N_x / 2^Q, so a uniform sampler scores C = 1. Experiments run R independent
seeded repetitions of one algorithm on one instance and aggregate with mean
and sample standard deviation. Timing columns are wall-clock and are the
only non-reproducible output fields.
"""
from __future__ import annotations

import csv
import io
import time
from dataclasses import asdict, dataclass, replace
from statistics import mean, stdev

import numpy as np

from .errors import InstanceMismatchError, check_qubit_count
from .oracle import OracleReport, enumerate_solutions
from .problem import ECHL, AssignmentProblem, ProblemVariant, build_layout, make_problem
from .simulator import DEFAULT_MAX_QUBITS, Circuit, Counts, run
from .vqa import ALGORITHMS, MODES, Instance, OptimizerConfig, build_circuit, optimize

# Not called here; bound only because perfbench/tracing.py wraps these names
# on this module.
from .circuits import build_ansatz, build_qaoa  # noqa: F401
from .encoder import encode  # noqa: F401
from .problem import check_feasible  # noqa: F401
from .simulator import diagonal_energies  # noqa: F401
from .vqa import run_qaoa, run_vqe  # noqa: F401

CSV_COLUMNS = (
    "instance",
    "algorithm",
    "seed",
    "p_best",
    "p_feas",
    "c_best",
    "c_feas",
    "iterations",
    "wall_ms",
)


@dataclass(frozen=True)
class Metrics:
    p_best: float
    p_feas: float
    c_best: float
    c_feas: float


def score(counts: Counts, report: OracleReport) -> Metrics:
    """Score a measured distribution against the oracle ground truth."""
    if counts.qubit_count != report.qubit_count:
        raise InstanceMismatchError(
            f"counts have {counts.qubit_count} qubits, instance has {report.qubit_count}"
        )
    hits = dict(zip(counts.indices.tolist(), counts.counts.tolist()))
    p_best = sum(hits.get(index, 0) for index in report.optimal) / counts.shots
    p_feas = sum(hits.get(index, 0) for index in report.feasible) / counts.shots
    c_best = p_best * report.total / report.best_count if report.best_count else 0.0
    c_feas = p_feas * report.total / report.feasible_count if report.feasible_count else 0.0
    return Metrics(p_best, p_feas, c_best, c_feas)


@dataclass(frozen=True)
class ExperimentConfig:
    problem: AssignmentProblem
    algorithm: str  # one of vqa.ALGORITHMS
    optimizer: OptimizerConfig
    reps: int = 1
    mode: str = "exact"
    shots: int = 4096
    runs: int = 1
    seed: int = 0
    label: str = ""

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}, expected one of {ALGORITHMS}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def algorithm_label(self) -> str:
        if self.algorithm == "qaoa":
            return f"qaoa-{self.reps}"
        return self.algorithm


@dataclass(frozen=True)
class RunRecord:
    """One seeded run: its scores, and the optimizer's best point, evaluation
    count and wall time from its VqaResult."""

    seed: int
    metrics: Metrics
    parameters: tuple[float, ...]
    iterations: int
    wall_time: float


@dataclass(frozen=True)
class ExperimentReport:
    label: str
    algorithm: str
    qubit_count: int
    oracle: OracleReport
    runs: tuple[RunRecord, ...]
    mean: dict[str, float]
    std: dict[str, float]


def _aggregate(records: tuple[RunRecord, ...]) -> tuple[dict[str, float], dict[str, float]]:
    rows = [
        {**asdict(r.metrics), "iterations": r.iterations, "wall_time": r.wall_time}
        for r in records
    ]
    means, stds = {}, {}
    for field in rows[0]:
        values = [float(row[field]) for row in rows]
        means[field] = mean(values)
        stds[field] = stdev(values) if len(values) > 1 else 0.0
    return means, stds


def run_experiment(
    config: ExperimentConfig,
    max_qubits: int = DEFAULT_MAX_QUBITS,
    *,
    _instance: Instance | None = None,
) -> ExperimentReport:
    """Execute R seeded runs, score each at the configured shot count.

    _instance is internal: scaling_sweep passes the Instance of config.problem
    it already built, so that its timing probe shares it and the circuit
    build_circuit keeps on it.
    """
    instance = Instance(config.problem, max_qubits) if _instance is None else _instance
    problem, layout = instance.problem, instance.layout
    report = enumerate_solutions(problem, layout, max_qubits=instance.max_qubits)
    circuit = build_circuit(config.algorithm, instance, config.reps)
    run_seeds = np.random.default_rng(config.seed).integers(2**31, size=config.runs)
    records: list[RunRecord] = []
    for raw_seed in run_seeds:
        seed = int(raw_seed)
        optimizer = replace(config.optimizer, seed=seed)
        result = optimize(instance, circuit, optimizer, config.mode, config.shots)
        metrics = score(result.counts, report)
        records.append(
            RunRecord(seed, metrics, result.parameters, result.iterations, result.wall_time)
        )
    means, stds = _aggregate(tuple(records))
    return ExperimentReport(
        label=config.label or problem.variant.name.lower(),
        algorithm=config.algorithm_label,
        qubit_count=layout.qubit_count,
        oracle=report,
        runs=tuple(records),
        mean=means,
        std=stds,
    )


def report_csv(reports: list[ExperimentReport] | ExperimentReport) -> str:
    """One CSV row per run; columns are fixed (see CSV_COLUMNS)."""
    if isinstance(reports, ExperimentReport):
        reports = [reports]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for report in reports:
        for record in report.runs:
            m = record.metrics
            writer.writerow(
                [
                    report.label,
                    report.algorithm,
                    record.seed,
                    f"{m.p_best:.6f}",
                    f"{m.p_feas:.6f}",
                    f"{m.c_best:.6f}",
                    f"{m.c_feas:.6f}",
                    record.iterations,
                    f"{record.wall_time * 1e3:.3f}",
                ]
            )
    return buffer.getvalue()


_WEIGHT_CYCLE = (2, 1, 1)
_VALUE_CYCLE = ((2, 1), (3, 1), (2, 1))


def scaling_instance(processes: int, variant: ProblemVariant = ECHL) -> AssignmentProblem:
    """Synthetic two-node family extending the 3-process reference instance.

    Weights cycle (2, 1, 1) and per-node value pairs cycle
    ((2, 1), (3, 1), (2, 1)); capacities are (3, 2) with thresholds (2, 1)
    under high load.
    """
    weights = [_WEIGHT_CYCLE[i % 3] for i in range(processes)]
    values = [_VALUE_CYCLE[i % 3] for i in range(processes)]
    thresholds = (2, 1) if variant.high_load else (0, 0)
    return make_problem(variant, weights, values, (3, 2), thresholds)


@dataclass(frozen=True)
class SweepPoint:
    processes: int
    qubit_count: int
    sim_seconds: float
    report: ExperimentReport


def _time_statevector(instance: Instance, circuit: Circuit) -> float:
    """Best-of-3 wall time of one circuit execution plus one expectation."""
    theta = np.full(len(circuit.parameters), 1.0)
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        state = run(circuit, theta, max_qubits=instance.max_qubits)
        # Squares all 2^Q amplitudes, unlike probabilities() on a support
        # state, which optimize uses: sim_seconds must time the dense
        # statevector simulator, whose growth with Q the sweep reports.
        float((np.abs(state.amplitudes) ** 2) @ instance.energies)
        best = min(best, time.perf_counter() - started)
    return best


# The sweep's default budget: one short restart per point.
SWEEP_OPTIMIZER = OptimizerConfig(max_iterations=20, restarts=1)


def scaling_sweep(
    process_counts,
    *,
    variant: ProblemVariant = ECHL,
    algorithm: str = "a4",
    optimizer: OptimizerConfig = SWEEP_OPTIMIZER,
    mode: str = "exact",
    shots: int = 4096,
    runs: int = 1,
    seed: int = 0,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> list[SweepPoint]:
    """One experiment per process count over the synthetic family."""
    problems = [(processes, scaling_instance(processes, variant)) for processes in process_counts]
    # Every point's register is checked before the first point runs.
    for _, problem in problems:
        check_qubit_count(build_layout(problem).qubit_count, max_qubits)
    points: list[SweepPoint] = []
    for processes, problem in problems:
        config = ExperimentConfig(
            problem=problem,
            algorithm=algorithm,
            optimizer=optimizer,
            mode=mode,
            shots=shots,
            runs=runs,
            seed=seed,
            label=f"{variant.name.lower()}-p{processes}",
        )
        instance = Instance(problem, max_qubits)
        report = run_experiment(config, _instance=instance)
        circuit = build_circuit(algorithm, instance)
        sim_seconds = _time_statevector(instance, circuit)
        points.append(SweepPoint(processes, report.qubit_count, sim_seconds, report))
    return points


def sweep_csv(points: list[SweepPoint]) -> str:
    """CSV for scaling plots: one row per process count."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ("processes", "qubits", "sim_seconds", "mean_p_best", "mean_p_feas",
         "mean_c_best", "mean_c_feas", "mean_iterations", "mean_wall_ms")
    )
    for point in points:
        writer.writerow(
            [
                point.processes,
                point.qubit_count,
                f"{point.sim_seconds:.6f}",
                f"{point.report.mean['p_best']:.6f}",
                f"{point.report.mean['p_feas']:.6f}",
                f"{point.report.mean['c_best']:.6f}",
                f"{point.report.mean['c_feas']:.6f}",
                f"{point.report.mean['iterations']:.1f}",
                f"{point.report.mean['wall_time'] * 1e3:.3f}",
            ]
        )
    return buffer.getvalue()
