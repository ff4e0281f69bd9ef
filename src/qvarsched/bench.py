"""Performance indices and experiment orchestration.

P_best / P_feas are the shot fractions landing on optimal / feasible
basis states; C_best / C_feas divide them by the random-guess probability
N_x / 2^Q, so a uniform sampler scores C = 1. An experiment is an Instance,
which carries the problem's layout and Ising model and checked its qubit
cap when it was built, and an ExperimentConfig, which says how to run it: R
independent repetitions of one algorithm, all on one Objective, each
optimized from its own seed, drawn from the config's seed, and aggregated
with mean and sample standard deviation. Timing columns are
wall-clock and are the only non-reproducible output fields.
"""
from __future__ import annotations

import csv
import io
import time
from dataclasses import asdict, dataclass, replace
from statistics import mean, stdev

import numpy as np

from .circuits import check_algorithm
from .errors import InstanceMismatchError, check_count, check_seed
from .oracle import OracleReport, enumerate_solutions
from .problem import ECHL, AssignmentProblem, ProblemVariant, make_problem
from .simulator import Circuit, Counts, run
from .vqa import DEFAULT_MAX_QUBITS, SEED_RANGE, Instance, Objective, check_mode
from .vqa import DEFAULT_MODE, DEFAULT_SHOTS, OptimizerConfig, build_circuit, optimize

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
    """How to run an experiment on an Instance; the problem is the instance's."""

    algorithm: str  # one of circuits.ALGORITHMS
    optimizer: OptimizerConfig
    reps: int = 1
    mode: str = DEFAULT_MODE
    shots: int = DEFAULT_SHOTS
    runs: int = 1
    seed: int = 0
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "runs", check_count("runs", self.runs))
        object.__setattr__(self, "shots", check_count("shots", self.shots))
        object.__setattr__(self, "reps", check_algorithm(self.algorithm, self.reps))
        check_mode(self.mode)
        seed = check_seed("seed", self.seed)  # apart: only the check call passes "seed" (tests/test_api.py)
        object.__setattr__(self, "seed", seed)

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


def run_experiment(instance: Instance, config: ExperimentConfig) -> ExperimentReport:
    """Execute R runs on one Objective, each optimize given one run seed drawn
    from config.seed, and score each at the configured shot count. The
    instance's circuits and energy views are shared."""
    circuit = build_circuit(config.algorithm, instance, config.reps)
    # Built first, so its checks fail before the oracle runs.
    objective = Objective(instance, circuit, config.mode, config.shots)
    report = enumerate_solutions(instance.layout)
    run_seeds = np.random.default_rng(config.seed).integers(SEED_RANGE, size=config.runs)
    records: list[RunRecord] = []
    for raw_seed in run_seeds:
        seed = int(raw_seed)
        result = optimize(objective, config.optimizer, seed)
        metrics = score(result.counts, report)
        records.append(
            RunRecord(seed, metrics, result.parameters, result.iterations, result.wall_time)
        )
    means, stds = _aggregate(tuple(records))
    return ExperimentReport(
        label=config.label or instance.problem.variant.name.lower(),
        algorithm=config.algorithm_label,
        qubit_count=instance.layout.qubit_count,
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
    energies = instance.energy_view(circuit)
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        state = run(circuit, theta)
        # Reading amplitudes scatters a support state into all 2^Q entries,
        # which are then squared and summed, unlike optimize's objective,
        # which squares the support alone into its kept vector: sim_seconds
        # must time the dense statevector simulator, whose growth with Q the
        # sweep reports.
        float((np.abs(state.amplitudes) ** 2) @ energies)
        best = min(best, time.perf_counter() - started)
    return best


# The sweep's default experiment: a4, one short restart per point.
SWEEP_CONFIG = ExperimentConfig("a4", OptimizerConfig(max_iterations=20, restarts=1))


def scaling_sweep(
    process_counts,
    config: ExperimentConfig = SWEEP_CONFIG,
    *,
    variant: ProblemVariant = ECHL,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> list[SweepPoint]:
    """One experiment of config per process count over the synthetic family,
    each labelled by its variant and process count."""
    # Every Instance checks its cap before the first point runs; each is
    # dropped once its point is done, so at most one holds its energies.
    pending = [Instance(scaling_instance(p, variant), max_qubits) for p in process_counts]
    points: list[SweepPoint] = []
    while pending:
        instance = pending.pop(0)
        processes = instance.problem.num_processes
        label = f"{variant.name.lower()}-p{processes}"
        report = run_experiment(instance, replace(config, label=label))
        circuit = build_circuit(config.algorithm, instance, config.reps)
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
