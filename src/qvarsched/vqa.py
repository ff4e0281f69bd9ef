"""Hybrid optimization loop: bind, evaluate, minimize, sample.

The derivative-free minimizer is scipy's COBYLA (initial trust radius 1.0,
the configured tolerance as the final one), the only method, as in the
paper. COBYLA needs at least dim + 2 evaluations, so a smaller
max_iterations is raised to that with a warning, and the budget actually used
is recorded on the result. The config says only how COBYLA runs; every
source of randomness — each restart's start point, drawn uniformly from
[0, pi), sampled-mode measurement seeds, the final measurement — derives
from the seed passed to optimize, so exact-mode runs are bit-reproducible.
minimize imports scipy at its first call, not with this module: that import
is most of a cold start, and parsing, encode, the oracle and every input
error never need it.

The objective reads each circuit's energy view (Instance.energy_view): all
2^Q energies for a dense program (QAOA); for a support program (a1-a4),
zeros except at its support, which holds the true energies. sample hits only
the support, so the sampled objective reads a true energy at every hit. One
Objective serves every run of an experiment and keeps one 2^Q probability
vector, which every evaluation and final sample of every run fills in place
(probabilities_into): wholly for a dense program; for a support program only
at the support, which never changes, so it stays +0 everywhere else. Either
way it equals probabilities() at every point, whatever ran before, so a run
on a shared Objective gives the bytes of a run on a fresh one. The exact
objective keeps its bytes too: the vector is +0 outside the support, so
every product its ddot adds there is an exact +-0, whatever energy it meets.
Adding an exact zero leaves a nonzero lane sum unchanged, and a lane sum
that starts at +0 never becomes -0, so the entries off the support add
nothing: vector @ view equals probabilities() @ energies bit for bit within
one BLAS kernel and thread count. That is all it proves. The ddot itself is
OpenBLAS's, whose last bits can change with the thread count: the P=4 row
of sweep --pmin 3 --pmax 7 --max-iterations 30 --restarts 2 --seed 10
reads mean_p_feas 0.979980 with OPENBLAS_NUM_THREADS=1 and 0.976562 with 2.
"""
from __future__ import annotations

import sys
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from math import isfinite, lcm, pi

import numpy as np

from .circuits import ALGORITHMS, build_ansatz, build_qaoa, check_algorithm  # noqa: F401 (re-exported)
from .encoder import encode, to_terms
from .errors import COUNT_LIMIT, InstanceMismatchError, NonFiniteObjectiveError  # noqa: F401 (re-exported)
from .errors import check_count, check_integer, check_qubit_count, check_real, check_seed
from .problem import AssignmentProblem, build_layout
from .simulator import Circuit, Counts, diagonal_energies
from .simulator import energies_at, run, sample

SEED_RANGE = 2**31  # every seed drawn from a master seed is below this
_COBYLA_RHOBEG = 1.0
DEFAULT_MODE = "exact"
MODES = (DEFAULT_MODE, "sampled")  # the objectives optimize evaluates
DEFAULT_SHOTS = 4096  # of the final measurement, and of each sampled evaluation
DEFAULT_MAX_QUBITS = 24  # the widest problem an Instance accepts by default


def check_mode(mode: str):
    """Raise ValueError unless mode is in MODES as written."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")


@dataclass(frozen=True)
class OptimizerConfig:
    max_iterations: int = 1000
    tolerance: float = 1e-4
    restarts: int = 10

    def __post_init__(self):
        object.__setattr__(self, "max_iterations", check_count("max_iterations", self.max_iterations))
        object.__setattr__(self, "restarts", check_count("restarts", self.restarts))
        object.__setattr__(self, "tolerance", check_real("tolerance", self.tolerance))
        if not 0 < self.tolerance <= _COBYLA_RHOBEG:  # a final radius above the initial one resets
            raise ValueError(f"tolerance must be in (0, {_COBYLA_RHOBEG}], got {self.tolerance}")


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


def minimize(objective, x0, config: OptimizerConfig) -> MinimizeResult:
    """Minimize a function from the start point x0, drawing nothing; returns the best evaluated point."""
    x0 = np.asarray(x0, dtype=float)
    dim = len(x0)
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
    if budget < dim + 2:
        budget = dim + 2
        warnings.warn(
            f"cobyla needs at least dim + 2 = {budget} evaluations; "
            f"max_iterations {config.max_iterations} raised to {budget}",
            stacklevel=2,
        )
    # Imported here, not at module level: scipy takes most of a cold start.
    from scipy.optimize import minimize as scipy_minimize

    scipy_minimize(
        wrapped,
        x0,
        method="COBYLA",
        tol=config.tolerance,
        options={"maxiter": budget, "rhobeg": _COBYLA_RHOBEG},
    )
    best = int(np.argmin(trace))
    return MinimizeResult(tuple(points[best]), trace[best], tuple(trace), budget)


def _check_float64(bound, what: str):
    """Raise ValueError if the exact bound does not fit a float64."""
    if bound > sys.float_info.max:
        raise ValueError(f"{what} exceeds the float64 limit {sys.float_info.max:.6g}")


class Instance:
    """One problem built once: its qubit layout, Ising model, the circuits
    built for it (see build_circuit) and their energy views, shared by every
    run and restart on it.

    It is the library's one qubit cap: past max_qubits it raises
    QubitCountExceededError before encoding, and keeps no cap; a caller that
    needs another cap builds its Instance with it.
    energy_bound, the exact sum of every Ising coefficient's magnitude, bounds
    |E(z)| for every basis state z. Twice it must fit a float64, the type the
    simulator reads the model in, so that no energy and no QAOA gate scale
    2*coeff overflows; past sys.float_info.max it is a ValueError.
    """

    def __init__(self, problem: AssignmentProblem, max_qubits: int = DEFAULT_MAX_QUBITS):
        layout = build_layout(problem)
        check_qubit_count(layout.qubit_count, check_integer("max_qubits", max_qubits))
        self.problem = problem
        self.layout = layout
        self.model = encode(layout)
        coeffs = [coeff for _, coeff in to_terms(self.model)]
        denominator = lcm(*(c.denominator for c in coeffs))
        numerator = sum(abs(c.numerator) * (denominator // c.denominator) for c in coeffs)
        self.energy_bound = Fraction(numerator, denominator)
        _check_float64(2 * self.energy_bound, "twice the Ising model's energy bound")
        self.circuits: dict[tuple[str, int], Circuit] = {}
        self.views: dict[Circuit, np.ndarray] = {}

    @cached_property
    def energies(self) -> np.ndarray:
        """The energy of every basis state, built on first use."""
        return diagonal_energies(self.model)

    def energy_view(self, circuit: Circuit) -> np.ndarray:
        """The energies the objective reads for circuit, built once per circuit:
        all of them for a dense program; for a support program, 2^Q zeros
        holding the energies at its support."""
        view = self.views.get(circuit)
        if view is None:
            if circuit.support is None:
                view = self.energies
            else:
                view = np.zeros(1 << self.layout.qubit_count)
                view[circuit.support] = energies_at(self.model, circuit.support)
            self.views[circuit] = view
        return view


def build_circuit(algorithm: str, instance: Instance, reps: int = 1) -> Circuit:
    """The circuit of a name in ALGORITHMS: an "a1".."a4" ansatz, or "qaoa"
    with reps layers; check_algorithm rejects any other pair before a build.

    Built once per instance and kept on it: every call with the same instance
    returns the same Circuit object, so its program is compiled only once.
    """
    reps = check_algorithm(algorithm, reps)
    key = (algorithm, reps)
    if key not in instance.circuits:
        if algorithm == "qaoa":
            circuit = build_qaoa(instance.model, reps)
        else:
            circuit = build_ansatz(algorithm, instance.layout)
        instance.circuits[key] = circuit
    return instance.circuits[key]


class Objective:
    """The energy optimize minimizes, one per (instance, circuit, mode, shots),
    shared by every run, restart and final sample on them: called with
    (theta, rng), it reads the circuit's energy view, and sampled mode seeds
    each measurement from rng. Every evaluation and sample writes its
    probabilities into one vector, +0 off the circuit's support. The circuit
    must have the instance's width (InstanceMismatchError); no cap is checked
    here. shots must be at least 1, and in sampled mode
    shots * instance.energy_bound must fit a float64 (ValueError)."""

    def __init__(
        self, instance: Instance, circuit: Circuit, mode: str = DEFAULT_MODE, shots: int = DEFAULT_SHOTS
    ):
        check_mode(mode)
        q = instance.layout.qubit_count
        if circuit.qubit_count != q:
            raise InstanceMismatchError(f"circuit has {circuit.qubit_count} qubits, instance has {q}")
        shots = check_count("shots", shots)
        if mode == "sampled":  # its sum of hits times energies reaches shots * |E|
            _check_float64(shots * instance.energy_bound, f"{shots} shots times the energy bound")
        self.circuit, self.mode, self.shots = circuit, mode, shots
        self.energies = instance.energy_view(circuit)
        self.probabilities = np.zeros(len(self.energies))

    def __call__(self, theta: np.ndarray, rng: np.random.Generator) -> float:
        if self.mode != "sampled":
            state = run(self.circuit, theta)
            return float(state.probabilities_into(self.probabilities) @ self.energies)
        counts = self.sample(theta, int(rng.integers(SEED_RANGE)))
        # Summed strictly left to right in ascending index order, so the value is
        # bit-identical to a plain sum over the sample's (index, count) pairs.
        total = np.add.accumulate(counts.counts * self.energies[counts.indices])[-1]
        return float(total) / self.shots

    def sample(self, theta, seed: int) -> Counts:
        """A measurement of shots at theta, drawn with seed."""
        state = run(self.circuit, theta)
        return sample(state, self.shots, seed, self.probabilities)


def optimize(objective: Objective, config: OptimizerConfig, seed: int) -> VqaResult:
    """Minimize the objective over its circuit's parameters, then measure the
    best point with the objective's number of shots. seed, the run's master
    seed (>= 0), draws the final measurement's seed, then each restart's."""
    check_seed("seed", seed)
    started = time.perf_counter()
    dim = len(objective.circuit.parameters)
    master = np.random.default_rng(seed)
    final_seed = int(master.integers(SEED_RANGE))
    restart_seeds = [int(s) for s in master.integers(SEED_RANGE, size=config.restarts)]

    best: MinimizeResult | None = None
    for restart_seed in restart_seeds:
        x0 = np.random.default_rng(restart_seed).uniform(0.0, pi, dim)
        seeded = partial(objective, rng=np.random.default_rng(restart_seed))
        result = minimize(seeded, x0, config)
        if best is None or result.value < best.value:
            best = result

    return VqaResult(
        parameters=best.parameters,
        value=best.value,
        trace=best.trace,
        iterations=len(best.trace),
        counts=objective.sample(best.parameters, final_seed),
        wall_time=time.perf_counter() - started,
        budget=best.budget,
    )


def run_vqe(
    problem: AssignmentProblem,
    ansatz: str,
    config: OptimizerConfig,
    mode: str = DEFAULT_MODE,
    shots: int = DEFAULT_SHOTS,
    seed: int = 0,
) -> VqaResult:
    """Minimize the problem Hamiltonian over any build_circuit name's circuit; qaoa at one layer."""
    instance = Instance(problem)
    return optimize(Objective(instance, build_circuit(ansatz, instance), mode, shots), config, seed)


def run_qaoa(
    problem: AssignmentProblem,
    reps: int,
    config: OptimizerConfig,
    mode: str = DEFAULT_MODE,
    shots: int = DEFAULT_SHOTS,
    seed: int = 0,
) -> VqaResult:
    """Minimize over the 2*reps QAOA angles."""
    instance = Instance(problem)
    return optimize(Objective(instance, build_circuit("qaoa", instance, reps), mode, shots), config, seed)
