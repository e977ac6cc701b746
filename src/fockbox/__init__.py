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
    displacement_block,
    expectation,
    leakage_admissible,
    max_admissible_amplitude,
    number_operator,
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
    power,
    quadrature_realize,
    realize,
    realize_at,
)
from .model import (
    FieldAlgebra,
    ModelConfig,
    ShiftProfile,
    build_H,
    build_H0,
    build_layout,
    charge_operator,
    cubic_interaction_polynomial,
    default_config,
    field_algebra,
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
    build_U,
    check_composition,
    check_field_shift,
    check_free_hamiltonian_shift,
    check_ladder_shifts,
    check_unitarity,
    displacement,
)
from .coeffs import (
    CoefficientSet,
    QuadratureGrid,
    StateExpectations,
    build_quadrature_grid,
    central_identity_checks,
    coefficients,
    descent_threshold,
    energy_polynomial,
    expectations,
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
