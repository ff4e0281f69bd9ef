"""Hybrid optimization loop: bind, evaluate, minimize, sample.

The derivative-free minimizer is scipy's COBYLA (initial trust radius 1.0,
the configured tolerance as the final one), with Nelder-Mead as a selectable
fallback. Initial points are drawn uniformly from [0, pi) per seed and every
source of randomness — restart initial points, sampled-mode measurement
seeds, the final 4096-shot measurement — derives from the config seed, so
exact-mode runs are bit-reproducible.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from math import isfinite, pi

import numpy as np
from scipy.optimize import minimize as scipy_minimize

from .circuits import build_ansatz, build_qaoa
from .encoder import encode
from .errors import NonFiniteObjectiveError, QubitCountExceededError
from .problem import AssignmentProblem, build_layout
from .simulator import (
    DEFAULT_MAX_QUBITS,
    Circuit,
    Counts,
    StateVector,
    diagonal_energies,
    run,
    sample,
    sample_indices,
)

_SEED_RANGE = 2**31


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
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.method.lower() not in ("cobyla", "nelder-mead"):
            raise ValueError(f"unknown optimizer method {self.method!r}")


@dataclass(frozen=True)
class MinimizeResult:
    parameters: tuple[float, ...]
    value: float
    trace: tuple[float, ...]


@dataclass(frozen=True)
class VqaResult:
    parameters: tuple[float, ...]
    value: float
    trace: tuple[float, ...]
    iterations: int
    counts: Counts
    wall_time: float


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
        return MinimizeResult((), value, (value,))

    trace: list[float] = []
    points: list[np.ndarray] = []

    def wrapped(x: np.ndarray) -> float:
        value = float(objective(np.asarray(x, dtype=float)))
        if not isfinite(value):
            raise NonFiniteObjectiveError(f"objective returned {value} at {x!r}")
        trace.append(value)
        points.append(np.array(x, dtype=float))
        return value

    if config.method.lower() == "cobyla":
        scipy_minimize(
            wrapped,
            x0,
            method="COBYLA",
            tol=config.tolerance,
            options={"maxiter": config.max_iterations, "rhobeg": 1.0},
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
    return MinimizeResult(tuple(points[best]), trace[best], tuple(trace))


class Instance:
    """One problem built once: its qubit layout, Ising model and the energy
    of every basis state, shared by every circuit, run and restart on it.

    The qubit cap is checked before any 2^Q work.
    """

    def __init__(self, problem: AssignmentProblem, max_qubits: int = DEFAULT_MAX_QUBITS):
        layout = build_layout(problem)
        if layout.qubit_count > max_qubits:
            raise QubitCountExceededError(
                f"{layout.qubit_count} qubits exceeds the maximum of {max_qubits}"
            )
        self.problem = problem
        self.layout = layout
        self.model = encode(problem, layout)
        self.energies = diagonal_energies(self.model)


def build_circuit(algorithm: str, instance: Instance, reps: int = 1) -> Circuit:
    """The circuit of an algorithm name: an "a1".."a4" ansatz, or "qaoa" with reps layers."""
    if algorithm == "qaoa":
        return build_qaoa(instance.model, reps)
    return build_ansatz(algorithm, instance.problem, instance.layout)


def _sampled_energy(state: StateVector, shots: int, seed: int, energies: np.ndarray) -> float:
    indices, hits = sample_indices(state, shots, seed)
    # Summed strictly left to right in ascending index order, so the value is
    # bit-identical to summing the user-facing Counts in its key order.
    return float(np.add.accumulate(hits * energies[indices])[-1]) / shots


def optimize(
    instance: Instance,
    circuit: Circuit,
    config: OptimizerConfig,
    mode: str = "exact",
    shots: int = 4096,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> VqaResult:
    """Minimize the instance's energy over the circuit's parameters, then
    measure the best point with the given number of shots."""
    if mode not in ("exact", "sampled"):
        raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    started = time.perf_counter()
    energies = instance.energies
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
    circuit = build_ansatz(ansatz, problem, instance.layout)
    return optimize(instance, circuit, config, mode, shots, max_qubits)


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
    return optimize(instance, build_qaoa(instance.model, reps), config, mode, shots, max_qubits)
