"""Truncated multi-ladder boson spaces, coherent displacement identities,
and the displaced-energy polynomial with its verification toolkit."""

from .errors import (
    ConfigError,
    FockboxError,
    GeometryError,
    GridError,
    LayoutError,
    LeakageError,
)
from .fockspace import (
    FockLayout,
    LadderId,
    OperatorMatrix,
    StateVector,
    basis_state,
    basis_sum,
    displacement_block,
    expectation,
    leakage_admissible,
    max_admissible_amplitude,
    poisson_tail,
    vacuum,
)
from .ladderalg import (
    LadderMonomial,
    LadderPolynomial,
    LadderSymbol,
    field_polynomial,
    integrate_box,
    mode_energy,
    multiply,
    normal_order,
    powers,
    quadrature_integrate,
    realize,
    shift,
)
from .model import (
    FieldAlgebra,
    ModelConfig,
    ShiftProfile,
    build_H,
    build_layout,
    cubic_interaction_polynomial,
    default_config,
    field_algebra,
    hamiltonian_polynomial,
    interaction_quadrature,
    load_config,
    parse_config,
    quartic_interaction_polynomial,
    shift_profiles,
)
from .displace import (
    Displacement,
    DisplacementParams,
    InterchangeChecker,
    ResidualCheck,
    check_composition,
    check_field_shift,
    check_free_hamiltonian_shift,
    check_ladder_shifts,
    check_unitarity,
    displacement,
)
from .coeffs import (
    CoefficientSet,
    central_identity_checks,
    coefficients,
    descent_threshold,
    energy_polynomial,
    reference,
    reference_state,
    vacuum_closed_forms,
)
from .probe import (
    SweepResult,
    SweepRow,
    SweepSpec,
    direct_check_limit,
    main,
    run_sweep,
    run_verification,
)

__all__ = [name for name in dir() if not name.startswith("_")]
