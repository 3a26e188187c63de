"""Collision-model simulator for a single-qubit steady-state classifier.

A qubit repeatedly collides with fresh ancillas drawn from one or more
information reservoirs; the sign of its steady magnetization classifies the
reservoir configuration.  See the README for the module map.
"""

from .classifier import (
    Label,
    LabeledPoint,
    SeparabilityReport,
    check_linear_separability,
    classify,
    generate_theta_dataset,
    sweep_couplings,
    sweep_thetas,
)
from .collision import (
    DEFAULT_SEED,
    ORACLE,
    EngineConfig,
    NoiseSpec,
    ReservoirSpec,
    SteadyStateResult,
    Trajectory,
    collision_unitary,
    evolve,
    evolve_batch,
    evolve_runs,
    pair_hamiltonian,
    single_collision,
    steady_state_oracle,
    step,
)
from .linalg import partial_trace, trace_distance
from .physical import (
    TimingBudget,
    TransmonParams,
    effective_coupling,
    response_time,
    system_reservoir_couplings,
    validate_dispersive,
)
from .states import (
    bloch_to_density,
    bloch_vector,
    fidelity,
    magnetization,
    mixed_target,
    pure_qubit,
    validate_density_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED",
    "EngineConfig",
    "Label",
    "LabeledPoint",
    "NoiseSpec",
    "ORACLE",
    "ReservoirSpec",
    "SeparabilityReport",
    "SteadyStateResult",
    "TimingBudget",
    "Trajectory",
    "TransmonParams",
    "bloch_to_density",
    "bloch_vector",
    "check_linear_separability",
    "classify",
    "collision_unitary",
    "effective_coupling",
    "evolve",
    "evolve_batch",
    "evolve_runs",
    "fidelity",
    "generate_theta_dataset",
    "magnetization",
    "mixed_target",
    "pair_hamiltonian",
    "partial_trace",
    "pure_qubit",
    "response_time",
    "single_collision",
    "steady_state_oracle",
    "step",
    "sweep_couplings",
    "sweep_thetas",
    "system_reservoir_couplings",
    "trace_distance",
    "validate_density_matrix",
    "validate_dispersive",
    "__version__",
]
