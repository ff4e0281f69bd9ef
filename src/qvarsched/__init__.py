"""Variational quantum solver for Edge/Cloud process assignment."""

from .problem import (
    CLOUD,
    ECFL,
    ECHL,
    EOFL,
    EOHL,
    Assignment,
    AssignmentProblem,
    NodeSpec,
    ProblemVariant,
    ProcessSpec,
    VariableLayout,
    assignment_bits,
    build_layout,
    check_feasible,
    decode,
    gain,
    make_problem,
    qubit_count,
    slack_bit_count,
)
from .encoder import IsingModel, encode, energy, penalty_weight, to_terms
from .simulator import (
    Circuit,
    Counts,
    Gate,
    Param,
    StateVector,
    run,
    sample,
)
from .circuits import (
    CircuitMetrics,
    build_a1,
    build_a2,
    build_a3,
    build_a4,
    build_ansatz,
    build_qaoa,
    metrics,
)
from .oracle import OracleReport, dense_state, enumerate_solutions
from .vqa import (
    Instance,
    OptimizerConfig,
    VqaResult,
    build_circuit,
    minimize,
    optimize,
    run_qaoa,
    run_vqe,
)
from .bench import (
    ExperimentConfig,
    ExperimentReport,
    Metrics,
    run_experiment,
    scaling_instance,
    scaling_sweep,
    score,
)

__version__ = "0.1.0"
