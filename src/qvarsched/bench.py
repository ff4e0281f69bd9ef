"""Performance indices and experiment orchestration.

P_best / P_feas are the shot fractions landing on optimal / feasible
bitstrings; C_best / C_feas divide them by the random-guess probability
N_x / 2^Q, so a uniform sampler scores C = 1. Experiments run R independent
seeded repetitions of one algorithm on one instance and aggregate with mean
and sample standard deviation. Timing columns are wall-clock and are the
only non-reproducible output fields.
"""
from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, replace
from statistics import mean, stdev

import numpy as np

from .errors import InstanceMismatchError
from .oracle import OracleReport, enumerate_solutions
from .problem import ECHL, AssignmentProblem, ProblemVariant, make_problem
from .simulator import Circuit, Counts, run
from .vqa import Instance, OptimizerConfig, build_circuit, optimize

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
    iterations: int = 0
    wall_time: float = 0.0


def score(counts: Counts, report: OracleReport) -> Metrics:
    """Score a measured distribution against the oracle ground truth."""
    q = report.total.bit_length() - 1
    best_hits = 0
    feasible_hits = 0
    for bits, count in counts.counts.items():
        if len(bits) != q:
            raise InstanceMismatchError(
                f"counts contain {len(bits)}-bit strings, instance has {q} qubits"
            )
        if bits in report.feasible_bitstrings:
            feasible_hits += count
            if bits in report.optimal_bitstrings:
                best_hits += count
    p_best = best_hits / counts.shots
    p_feas = feasible_hits / counts.shots
    c_best = p_best * report.total / report.best_count if report.best_count else 0.0
    c_feas = p_feas * report.total / report.feasible_count if report.feasible_count else 0.0
    return Metrics(p_best, p_feas, c_best, c_feas)


@dataclass(frozen=True)
class ExperimentConfig:
    problem: AssignmentProblem
    algorithm: str  # "a1".."a4" or "qaoa"
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

    @property
    def algorithm_label(self) -> str:
        if self.algorithm == "qaoa":
            return f"qaoa-{self.reps}"
        return self.algorithm


@dataclass(frozen=True)
class RunRecord:
    seed: int
    metrics: Metrics
    parameters: tuple[float, ...]


@dataclass(frozen=True)
class ExperimentReport:
    label: str
    algorithm: str
    qubit_count: int
    oracle: OracleReport
    runs: tuple[RunRecord, ...]
    mean: dict[str, float]
    std: dict[str, float]


_AGGREGATE_FIELDS = ("p_best", "p_feas", "c_best", "c_feas", "iterations", "wall_time")


def _aggregate(records: tuple[RunRecord, ...]) -> tuple[dict[str, float], dict[str, float]]:
    means, stds = {}, {}
    for field in _AGGREGATE_FIELDS:
        values = [float(getattr(r.metrics, field)) for r in records]
        means[field] = mean(values)
        stds[field] = stdev(values) if len(values) > 1 else 0.0
    return means, stds


def run_experiment(
    config: ExperimentConfig, max_qubits: int = 24, *, _instance: Instance | None = None
) -> ExperimentReport:
    """Execute R seeded runs, score each at the configured shot count.

    _instance is internal: scaling_sweep passes the Instance of config.problem
    it already built, so that its timing probe shares it and the circuit
    build_circuit keeps on it.
    """
    instance = Instance(config.problem, max_qubits) if _instance is None else _instance
    problem, layout = instance.problem, instance.layout
    report = enumerate_solutions(problem, layout, max_qubits=max_qubits)
    circuit = build_circuit(config.algorithm, instance, config.reps)
    run_seeds = np.random.default_rng(config.seed).integers(2**31, size=config.runs)
    records: list[RunRecord] = []
    for raw_seed in run_seeds:
        seed = int(raw_seed)
        optimizer = replace(config.optimizer, seed=seed)
        result = optimize(instance, circuit, optimizer, config.mode, config.shots, max_qubits)
        metrics = score(result.counts, report)
        metrics = replace(
            metrics, iterations=result.iterations, wall_time=result.wall_time
        )
        records.append(RunRecord(seed, metrics, result.parameters))
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
                    m.iterations,
                    f"{m.wall_time * 1e3:.3f}",
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


def _time_statevector(instance: Instance, circuit: Circuit, max_qubits: int) -> float:
    """Best-of-3 wall time of one circuit execution plus one expectation."""
    theta = np.full(len(circuit.parameters), 1.0)
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        state = run(circuit, theta, max_qubits=max_qubits)
        float(state.probabilities() @ instance.energies)
        best = min(best, time.perf_counter() - started)
    return best


def scaling_sweep(
    process_counts,
    *,
    variant: ProblemVariant = ECHL,
    algorithm: str = "a4",
    optimizer: OptimizerConfig | None = None,
    mode: str = "exact",
    shots: int = 4096,
    runs: int = 1,
    seed: int = 0,
    max_qubits: int = 24,
) -> list[SweepPoint]:
    """One experiment per process count over the synthetic family."""
    optimizer = optimizer or OptimizerConfig(max_iterations=20, restarts=1)
    points: list[SweepPoint] = []
    for processes in process_counts:
        problem = scaling_instance(processes, variant)
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
        report = run_experiment(config, max_qubits=max_qubits, _instance=instance)
        circuit = build_circuit(algorithm, instance)
        sim_seconds = _time_statevector(instance, circuit, max_qubits)
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
