"""Displaced-energy coefficients and the central energy identity.

For a normalized reference state psi, the displaced energy
E(f1, f2) = <psi| U+ H U |psi> is an exact polynomial in the displacement
amplitudes.  This module evaluates its coefficients from state expectation
values at quadrature nodes, reconstructs the polynomial, and checks it
against direct conjugated-Hamiltonian expectations.

The f2^2, f2, and f2^4 contributions deserve care: conjugating the
normal-ordered quartic produces *normal-ordered* lower powers, so the
polynomial uses the normal-ordered second and third field moments
(B1_ordered / B2_ordered) and a unit-weight quartic self-energy
lambda2 * Int n2^4.  The bare-moment and four-fold-weight variants (B1, B2,
B4) are also computed and reported so the two conventions can be compared
numerically; central_identity_checks adjudicates the quartic weight and
names the winner in its summary row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import ladderalg
from .displace import DisplacementParams, ResidualCheck, displacement, require_admissible
from .errors import ConfigError, GeometryError
from .fockspace import FockLayout, LadderId, StateVector, basis_state, expectation, vacuum
from .ladderalg import LadderPolynomial
from .model import ModelConfig, build_H, build_layout, field_algebra, shift_profiles

CENTRAL_IDENTITY_TOL = 1e-6
CENTRAL_F_VALUES = (-0.5, -0.25, 0.0, 0.25, 0.5)
DEFAULT_SEED = 7
SEEDED_SUPPORT_LEVEL = 2
GEOMETRY_FLOOR = 1e-12

COEFFICIENT_NAMES = (
    "A1",
    "A2",
    "A3",
    "A4",
    "A5",
    "B1",
    "B1_ordered",
    "B2",
    "B2_ordered",
    "B3",
    "B4",
    "quartic_self_coefficient",
    "E_ref",
    "omega_k",
    "energy_q",
)


# ---------------------------------------------------------------------------
# quadrature over the box


@dataclass(frozen=True)
class QuadratureGrid:
    """Equal-weight nodes over one box period; exact for trigonometric
    polynomials whose band limit stays under the node count."""

    points: np.ndarray
    weight: float

    def integrate(self, values: np.ndarray) -> float:
        return float(np.real(self.weight * np.sum(values)))


def _band_bound(config: ModelConfig) -> int:
    """Largest |wave index| an integrand can carry; mode indices may be negative."""
    return 4 * (
        abs(config.k_index)
        + max(abs(n) for n in config.neutral_modes)
        + abs(config.q_index)
        + max(abs(n) for n in config.charged_modes)
    )


def build_quadrature_grid(config: ModelConfig) -> QuadratureGrid:
    L = config.box_length
    n_points = 2 * _band_bound(config) + 2
    return QuadratureGrid(ladderalg.box_points(L, n_points), L / n_points)


# ---------------------------------------------------------------------------
# reference states


def reference_state(config: ModelConfig, selector: str, layout: FockLayout | None = None) -> StateVector:
    """vacuum | one_a | one_b | seeded[:<int>] -> normalized StateVector.

    one_a / one_b put a single quantum in the displaced neutral / charged-b
    ladder.  seeded draws complex amplitudes on every basis state of total
    occupation at most 2 from a fixed generator (default seed 7).
    """
    layout = layout or build_layout(config)
    if selector == "vacuum":
        return vacuum(layout)
    if selector == "one_a":
        return basis_state(layout, {LadderId("a", config.k_index): 1})
    if selector == "one_b":
        return basis_state(layout, {LadderId("b", config.q_index): 1})
    if selector == "seeded" or selector.startswith("seeded:"):
        if selector == "seeded":
            seed = DEFAULT_SEED
        else:
            try:
                seed = int(selector.partition(":")[2])
            except ValueError as exc:
                raise ConfigError(f"bad seed in state selector {selector!r}") from exc
        rng = np.random.default_rng(seed)
        mask = layout.occupations().sum(axis=1) <= SEEDED_SUPPORT_LEVEL
        count = int(mask.sum())
        amplitudes = np.zeros(layout.dimension, dtype=np.complex128)
        amplitudes[mask] = rng.normal(size=count) + 1j * rng.normal(size=count)
        return StateVector(layout, amplitudes).normalized()
    raise ConfigError(
        f"unknown state selector {selector!r}; use vacuum, one_a, one_b or seeded:<int>"
    )


# ---------------------------------------------------------------------------
# expectation profiles


def polynomial_profile(
    poly: LadderPolynomial,
    layout: FockLayout,
    state: StateVector,
    points: np.ndarray,
    box_length: float,
) -> np.ndarray:
    """<psi| poly(x) |psi> at each node.

    Each monomial's matrix element is evaluated once; the x dependence is the
    monomial's plane-wave phase, summed over nodes afterwards.
    """
    values = np.zeros(len(points), dtype=np.complex128)
    amps = state.amplitudes
    for t in poly.terms:
        mat = ladderalg._monomial_matrix(layout, t.symbols)
        element = complex(np.vdot(amps, mat @ amps))
        if element != 0.0:
            values += (t.coefficient * element) * t.phase(points, box_length)
    return values


@dataclass(frozen=True)
class StateExpectations:
    """Real parts of the field moments of one state at the quadrature nodes.

    phi_sq / phi_cube are the bare operator powers; the _ordered variants are
    the normal-ordered powers.  max_imag records the largest imaginary part
    discarded anywhere (nonzero only through rounding, since every profile
    here is an expectation of a Hermitian combination).
    """

    grid: QuadratureGrid
    phi: np.ndarray
    phi_sq: np.ndarray
    phi_sq_ordered: np.ndarray
    phi_cube: np.ndarray
    phi_cube_ordered: np.ndarray
    charged_density: np.ndarray
    charged_sum: np.ndarray
    charged_sum_neutral: np.ndarray
    neutral_ladder: float
    charged_ladder: float
    max_imag: float


def expectations(
    config: ModelConfig,
    state: StateVector,
    layout: FockLayout | None = None,
    grid: QuadratureGrid | None = None,
) -> StateExpectations:
    layout = layout or build_layout(config)
    grid = grid or build_quadrature_grid(config)
    fa = field_algebra(config)
    a_k = LadderId("a", config.k_index)
    b_q, d_q = LadderId("b", config.q_index), LadderId("d", config.q_index)

    profiles = {
        "phi": fa.phihat,
        "phi_sq": ladderalg.power(fa.phihat, 2),
        "phi_sq_ordered": fa.ordered_powers[2],
        "phi_cube": ladderalg.power(fa.phihat, 3),
        "phi_cube_ordered": fa.ordered_powers[3],
        "charged_density": fa.density,
        "charged_sum": fa.charged_sum,
        "charged_sum_neutral": fa.charged_sum_neutral,
        # phase-free ladder sums: constant over the nodes
        "neutral_ladder": ladderalg.ladder_sum([(a_k, True), (a_k, False)]),
        "charged_ladder": ladderalg.ladder_sum([(b_q, True), (b_q, False), (d_q, True), (d_q, False)]),
    }
    values = {
        name: polynomial_profile(poly, layout, state, grid.points, config.box_length)
        for name, poly in profiles.items()
    }
    real = {name: v.real for name, v in values.items()}
    return StateExpectations(
        grid=grid,
        neutral_ladder=float(real.pop("neutral_ladder")[0]),
        charged_ladder=float(real.pop("charged_ladder")[0]),
        max_imag=max(float(np.max(np.abs(v.imag))) for v in values.values()),
        **real,
    )


# ---------------------------------------------------------------------------
# the coefficient set


@dataclass(frozen=True)
class CoefficientSet:
    """Coefficients of the displaced-energy polynomial for one state.

    E(f1, f2) = E_ref + f1 A1 + f2 (A2 + B2_ordered) + f1 f2 A3
              + f2^2 (omega_k + B1_ordered) + f2^3 B3
              + f2^4 quartic_self_coefficient + f1^2 (A4 + f2 A5)
    """

    A1: float
    A2: float
    A3: float
    A4: float
    A5: float
    B1: float
    B1_ordered: float
    B2: float
    B2_ordered: float
    B3: float
    B4: float
    quartic_self_coefficient: float
    E_ref: float
    omega_k: float
    energy_q: float
    max_imag: float


def coefficients(
    config: ModelConfig,
    state: StateVector,
    layout: FockLayout | None = None,
    grid: QuadratureGrid | None = None,
) -> CoefficientSet:
    layout = layout or build_layout(config)
    grid = grid or build_quadrature_grid(config)
    ex = expectations(config, state, layout, grid)
    n1, n2 = shift_profiles(config)
    n1x = n1(grid.points)
    n2x = n2(grid.points)
    l1, l2 = config.lambda1, config.lambda2
    e_q, w_k = config.energy_q, config.omega_k

    e_ref = expectation(build_H(config, layout), state)
    max_imag = max(ex.max_imag, abs(complex(e_ref).imag))

    cs = CoefficientSet(
        A1=e_q * ex.charged_ladder + l1 * grid.integrate(ex.charged_sum_neutral * n1x),
        A2=w_k * ex.neutral_ladder + l1 * grid.integrate(ex.charged_density * n2x),
        A3=l1 * grid.integrate(ex.charged_sum * n1x * n2x),
        A4=2.0 * e_q + l1 * grid.integrate(ex.phi * n1x * n1x),
        A5=l1 * grid.integrate(n1x * n1x * n2x),
        B1=6.0 * l2 * grid.integrate(ex.phi_sq * n2x * n2x),
        B1_ordered=6.0 * l2 * grid.integrate(ex.phi_sq_ordered * n2x * n2x),
        B2=4.0 * l2 * grid.integrate(ex.phi_cube * n2x),
        B2_ordered=4.0 * l2 * grid.integrate(ex.phi_cube_ordered * n2x),
        B3=4.0 * l2 * grid.integrate(ex.phi * n2x ** 3),
        B4=4.0 * l2 * grid.integrate(n2x ** 4),
        quartic_self_coefficient=l2 * grid.integrate(n2x ** 4),
        E_ref=float(np.real(e_ref)),
        omega_k=w_k,
        energy_q=e_q,
        max_imag=max_imag,
    )
    if not all(math.isfinite(v) for v in vars(cs).values()):
        raise ConfigError("the displaced-energy coefficients of this configuration are not finite in float64")
    return cs


def energy_polynomial(
    cs: CoefficientSet, f1: float, f2: float, quartic_coefficient: float | None = None
) -> float:
    """The displaced energy; quartic_coefficient overrides the f2^4 weight
    (pass cs.B4 to evaluate the four-fold-weight variant)."""
    q = cs.quartic_self_coefficient if quartic_coefficient is None else quartic_coefficient
    return (
        cs.E_ref
        + f1 * cs.A1
        + f2 * (cs.A2 + cs.B2_ordered)
        + f1 * f2 * cs.A3
        + f2 * f2 * (cs.omega_k + cs.B1_ordered)
        + f2 ** 3 * cs.B3
        + f2 ** 4 * q
        + f1 * f1 * (cs.A4 + f2 * cs.A5)
    )


def descent_threshold(cs: CoefficientSet) -> float:
    """A4 / A5: the |f2| beyond which the quadratic f1 coefficient of the
    vacuum energy turns negative (for f2 < 0)."""
    if cs.A5 <= GEOMETRY_FLOOR:
        raise GeometryError(
            "cubic overlap coefficient is not positive; the chosen mode"
            " geometry admits no quadratic-order descent direction"
        )
    return cs.A4 / cs.A5


def vacuum_closed_forms(config: ModelConfig) -> dict[str, float]:
    """Exact vacuum values of every coefficient (valid at any cutoff >= 1).

    Odd moments and normal-ordered moments vanish in the vacuum; A4 is the
    pair rest energy; A5 survives the box integral only when k = 2q; the bare
    B1 picks up the zero-point constant sum_p 1/(2 omega_p L).
    """
    L = config.box_length
    w_k, e_q = config.omega_k, config.energy_q
    zero_point = sum(1.0 / (2.0 * config.omega(n) * L) for n in config.neutral_modes)
    if config.k_index == 2 * config.q_index:
        a5 = config.lambda1 / (e_q * math.sqrt(2.0 * w_k * L))
    else:
        a5 = 0.0
    return {
        "A1": 0.0,
        "A2": 0.0,
        "A3": 0.0,
        "A4": 2.0 * e_q,
        "A5": a5,
        "B1": 6.0 * config.lambda2 * zero_point / w_k,
        "B1_ordered": 0.0,
        "B2": 0.0,
        "B2_ordered": 0.0,
        "B3": 0.0,
        "B4": 6.0 * config.lambda2 / (w_k * w_k * L),
        "quartic_self_coefficient": 1.5 * config.lambda2 / (w_k * w_k * L),
        "E_ref": 0.0,
        "omega_k": w_k,
        "energy_q": e_q,
    }


# ---------------------------------------------------------------------------
# the central identity


def central_identity_checks(
    config: ModelConfig,
    layout: FockLayout | None = None,
    state_selectors: Sequence[str] | None = None,
) -> list[ResidualCheck]:
    """Polynomial energy vs direct displaced expectation, per state and
    amplitude pair, plus one summary row naming which quartic weight
    (unit / times4 / both) actually matches the direct values."""
    layout = layout or build_layout(config)
    if state_selectors is None:
        state_selectors = ("vacuum", "one_a", "one_b", f"seeded:{DEFAULT_SEED}")
    H = build_H(config, layout)
    grid = build_quadrature_grid(config)

    checks = []
    max_unit = 0.0
    max_times4 = 0.0
    for selector in state_selectors:
        state = reference_state(config, selector, layout)
        cs = coefficients(config, state, layout, grid)
        for f1 in CENTRAL_F_VALUES:
            for f2 in CENTRAL_F_VALUES:
                params = DisplacementParams(f1, f2)
                require_admissible(config, params, layout)
                displaced = displacement(config, params, layout).apply(state)
                e_direct = float(np.real(expectation(H, displaced)))
                scale = 1.0 + abs(e_direct)
                r_unit = abs(energy_polynomial(cs, f1, f2) - e_direct) / scale
                r_times4 = abs(energy_polynomial(cs, f1, f2, cs.B4) - e_direct) / scale
                max_unit = max(max_unit, r_unit)
                max_times4 = max(max_times4, r_times4)
                checks.append(
                    ResidualCheck(f"central_identity[{selector}]", f1, f2, r_unit, CENTRAL_IDENTITY_TOL)
                )
    if config.lambda2 == 0.0 or max_unit == max_times4:
        winner = "both"
    elif max_unit < max_times4:
        winner = "unit"
    else:
        winner = "times4"
    checks.append(
        ResidualCheck(
            f"quartic_coefficient[{winner}]",
            None,
            None,
            min(max_unit, max_times4),
            CENTRAL_IDENTITY_TOL,
        )
    )
    return checks
