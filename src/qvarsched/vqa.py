"""Hybrid optimization loop: bind, evaluate, minimize, sample.

The derivative-free minimizer is scipy's COBYLA (initial trust radius 1.0,
the configured tolerance as the final one), with Nelder-Mead as a selectable
fallback. COBYLA needs at least dim + 2 evaluations, so a smaller
max_iterations is raised to that with a warning, and the budget actually used
is recorded on the result. Initial points are drawn uniformly from [0, pi)
per seed and every source of randomness — restart initial points,
sampled-mode measurement seeds, the final measurement of the configured shot
count — derives from the config seed, so exact-mode runs are bit-reproducible.
"""
from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace
from math import isfinite, pi

import numpy as np
from scipy.optimize import minimize as scipy_minimize

from .circuits import ANSATZ_BUILDERS, build_ansatz, build_qaoa
from .encoder import encode
from .errors import NonFiniteObjectiveError, check_qubit_count
from .problem import AssignmentProblem, build_layout
from .simulator import (
    DEFAULT_MAX_QUBITS,
    Circuit,
    Counts,
    StateVector,
    diagonal_energies,
    run,
    sample,
)

_SEED_RANGE = 2**31
_COBYLA_RHOBEG = 1.0
ALGORITHMS = (*ANSATZ_BUILDERS, "qaoa")  # the names build_circuit takes
MODES = ("exact", "sampled")  # the objectives optimize evaluates


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = "cobyla"  # or "nelder-mead"
    max_iterations: int = 1000
    tolerance: float = 1e-4
    seed: int = 0
    restarts: int = 10
    initial_point: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance}")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.method.lower() not in ("cobyla", "nelder-mead"):
            raise ValueError(f"unknown optimizer method {self.method!r}")
        if self.method.lower() == "cobyla" and self.tolerance > _COBYLA_RHOBEG:
            raise ValueError(
                f"cobyla tolerance must be <= the initial trust radius "
                f"{_COBYLA_RHOBEG}, got {self.tolerance}"
            )


@dataclass(frozen=True)
class MinimizeResult:
    parameters: tuple[float, ...]
    value: float
    trace: tuple[float, ...]
    budget: int  # the evaluation budget the optimizer was given


@dataclass(frozen=True)
class VqaResult:
    parameters: tuple[float, ...]
    value: float
    trace: tuple[float, ...]
    iterations: int
    counts: Counts
    wall_time: float
    budget: int  # the evaluation budget each restart was given


def minimize(objective, dim: int, config: OptimizerConfig) -> MinimizeResult:
    """Minimize a function of dim variables; returns the best evaluated point."""
    if config.initial_point is not None:
        x0 = np.asarray(config.initial_point, dtype=float)
        if x0.shape != (dim,):
            raise ValueError(f"initial point has shape {x0.shape}, expected ({dim},)")
    else:
        x0 = np.random.default_rng(config.seed).uniform(0.0, pi, dim)
    if dim == 0:
        value = float(objective(np.zeros(0)))
        return MinimizeResult((), value, (value,), 1)

    trace: list[float] = []
    points: list[np.ndarray] = []

    def wrapped(x: np.ndarray) -> float:
        value = float(objective(np.asarray(x, dtype=float)))
        if not isfinite(value):
            raise NonFiniteObjectiveError(f"objective returned {value} at {x!r}")
        trace.append(value)
        points.append(np.array(x, dtype=float))
        return value

    budget = config.max_iterations
    if config.method.lower() == "cobyla":
        if budget < dim + 2:
            budget = dim + 2
            warnings.warn(
                f"cobyla needs at least dim + 2 = {budget} evaluations; "
                f"max_iterations {config.max_iterations} raised to {budget}",
                stacklevel=2,
            )
        scipy_minimize(
            wrapped,
            x0,
            method="COBYLA",
            tol=config.tolerance,
            options={"maxiter": budget, "rhobeg": _COBYLA_RHOBEG},
        )
    else:
        scipy_minimize(
            wrapped,
            x0,
            method="Nelder-Mead",
            options={
                "maxiter": config.max_iterations,
                "maxfev": config.max_iterations,
                "xatol": config.tolerance,
                "fatol": config.tolerance,
            },
        )
    best = int(np.argmin(trace))
    return MinimizeResult(tuple(points[best]), trace[best], tuple(trace), budget)


class Instance:
    """One problem built once: its qubit layout, Ising model, the energy of
    every basis state and the circuits built for it (see build_circuit),
    shared by every run and restart on it.

    max_qubits caps every run on it and is checked before any 2^Q work.
    """

    def __init__(self, problem: AssignmentProblem, max_qubits: int = DEFAULT_MAX_QUBITS):
        layout = build_layout(problem)
        check_qubit_count(layout.qubit_count, max_qubits)
        self.problem = problem
        self.max_qubits = max_qubits
        self.layout = layout
        self.model = encode(problem, layout)
        self.energies = diagonal_energies(self.model)
        self.circuits: dict[tuple[str, int], Circuit] = {}


def build_circuit(algorithm: str, instance: Instance, reps: int = 1) -> Circuit:
    """The circuit of an algorithm name: an "a1".."a4" ansatz, or "qaoa" with reps layers.

    Built once per instance and kept on it: every call with the same instance
    returns the same Circuit object, so its program is compiled only once.
    """
    key = (algorithm, reps if algorithm == "qaoa" else 1)
    if key not in instance.circuits:
        if algorithm == "qaoa":
            circuit = build_qaoa(instance.model, reps)
        else:
            circuit = build_ansatz(algorithm, instance.problem, instance.layout)
        instance.circuits[key] = circuit
    return instance.circuits[key]


def _sampled_energy(state: StateVector, shots: int, seed: int, energies: np.ndarray) -> float:
    counts = sample(state, shots, seed)
    # Summed strictly left to right in ascending index order, so the value is
    # bit-identical to a plain sum over the sample's (index, count) pairs.
    return float(np.add.accumulate(counts.counts * energies[counts.indices])[-1]) / shots


def optimize(
    instance: Instance,
    circuit: Circuit,
    config: OptimizerConfig,
    mode: str = "exact",
    shots: int = 4096,
) -> VqaResult:
    """Minimize the instance's energy over the circuit's parameters, then
    measure the best point with the given number of shots."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    started = time.perf_counter()
    energies, max_qubits = instance.energies, instance.max_qubits
    dim = len(circuit.parameters)
    master = np.random.default_rng(config.seed)
    final_seed = int(master.integers(_SEED_RANGE))
    restart_seeds = [int(s) for s in master.integers(_SEED_RANGE, size=config.restarts)]

    best: MinimizeResult | None = None
    for restart_seed in restart_seeds:
        rng = np.random.default_rng(restart_seed)

        if mode == "exact":

            def objective(theta: np.ndarray) -> float:
                state = run(circuit, theta, max_qubits=max_qubits)
                return float(state.probabilities() @ energies)

        else:

            def objective(theta: np.ndarray) -> float:
                state = run(circuit, theta, max_qubits=max_qubits)
                return _sampled_energy(state, shots, int(rng.integers(_SEED_RANGE)), energies)

        result = minimize(objective, dim, replace(config, seed=restart_seed))
        if best is None or result.value < best.value:
            best = result

    final_state = run(circuit, best.parameters, max_qubits=max_qubits)
    counts = sample(final_state, shots, final_seed)
    return VqaResult(
        parameters=best.parameters,
        value=best.value,
        trace=best.trace,
        iterations=len(best.trace),
        counts=counts,
        wall_time=time.perf_counter() - started,
        budget=best.budget,
    )


def run_vqe(
    problem: AssignmentProblem,
    ansatz: str,
    config: OptimizerConfig,
    mode: str = "exact",
    shots: int = 4096,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> VqaResult:
    """Minimize the problem Hamiltonian over one of the a1..a4 ansatzes."""
    instance = Instance(problem, max_qubits)
    return optimize(instance, build_circuit(ansatz, instance), config, mode, shots)


def run_qaoa(
    problem: AssignmentProblem,
    reps: int,
    config: OptimizerConfig,
    mode: str = "exact",
    shots: int = 4096,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> VqaResult:
    """Minimize over the 2*reps QAOA angles."""
    instance = Instance(problem, max_qubits)
    return optimize(instance, build_circuit("qaoa", instance, reps), config, mode, shots)
