"""System-environment entanglement for piecewise-constant pure-dephasing models.

The package evolves a finite system coupled to a truncated bosonic (or
explicit matrix) environment through Hamiltonians that commute with a fixed
system basis, and evaluates separability criteria, a qubit entanglement
measure, coherence curves and negativity along the way. See README for the
CLI and the configuration schema.
"""

from .config import (
    CoherentEnv,
    FockEnv,
    MatrixFileEnv,
    OutputFlags,
    QubitBosonModel,
    RunConfig,
    ScheduleFileModel,
    ThermalEnv,
    TimeGrid,
    config_from_dict,
    parse_config,
)
from .dephasing import (
    JointStateBlocks,
    Segment,
    SegmentSchedule,
    blocks_at,
    blocks_from_propagators,
    equal_superposition,
    joint_state,
    propagators_at,
    validate_schedule,
)
from .entanglement import Type2Residual, measure_from_fidelity, type2_norms, type2_residuals
from .errors import (
    ConfigError,
    ConvergenceFailure,
    CutoffCapExceeded,
    DephasimError,
    DimensionMismatch,
    EmptySchedule,
    InvalidArgument,
    NonFiniteError,
    NotHermitianError,
    NotHermitianGenerator,
    NotNormalizedError,
    NotPSDError,
    NotQubit,
    ParseError,
    TimeOutOfRange,
    ValidationError,
)
from .fock import (
    EnvDensity,
    FockSpace,
    coherent_amplitudes,
    coherent_state,
    env_from_matrix,
    fock_state,
    suggest_cutoff,
    thermal_state,
)
from .linalg import (
    fidelity,
    fidelity_given_sqrt,
    fidelity_of_factors,
    negativity,
    negativity_of_factors,
    psd_factor,
    sqrtm_psd,
    trace_distance,
    trace_distance_of_factors,
)
from .presets import PRESET_NAMES, preset_config
from .qubit_boson import (
    AlphaSegment,
    QubitBosonParams,
    branch_generator,
    build_schedule,
)
from .sweep import (
    CSV_HEADER,
    ConvergenceReport,
    SweepRow,
    convergence_report,
    emit_csv,
    evaluate,
    run_sweep,
)

__version__ = "0.1.0"
