"""Displaced-energy coefficients and the central energy identity.

For a normalized reference state psi, the displaced energy
E(f1, f2) = <psi| U+ H U |psi> is an exact polynomial in the displacement
amplitudes.  U shifts every symbol on a displaced ladder
(ModelConfig.displaced_ladders) by its amplitude, so U+ H U is H with
b_q -> b_q + f1, d_q -> d_q + f1 and a_k -> a_k + f2 (ladderalg.shift),
exact on the box-integrated H, whose parts are read from model.  Grouped by
the powers of f1 and f2, they give the coefficients as state expectations,
and central_identity_checks compares the polynomial with direct
conjugated-Hamiltonian expectations.  H and every group are realized once
per config and layout, so a state is contracted against all of them in one
pass, and its displaced copies against H in one batch.  A
state and its coefficients are memoized on the config, layout and
selector (reference), so a sweep of one state at many f2 contracts it once.

The f2^2, f2, and f2^4 contributions deserve care: conjugating the
normal-ordered quartic produces *normal-ordered* lower powers, so the
polynomial uses the normal-ordered second and third field moments
(B1_ordered / B2_ordered) and a unit-weight quartic self-energy
lambda2 * Int n2^4.  The bare-moment variants (B1, B2) come from the
shifted bare quartic lambda2 * Int phihat^4 (field_algebra's powers), and
the four-fold weight B4 is four times the self-energy; both are reported
so the two conventions can be compared numerically.  central_identity_checks
adjudicates the quartic weight and names the winner in its summary row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import ladderalg
from .displace import DisplacementParams, ResidualCheck, require_admissible
from .errors import ConfigError, GeometryError
from .fockspace import FockLayout, LadderId, OperatorMatrix, StateVector, basis_state, basis_sum, vacuum
from .fockspace import displaced_columns, displacement_block, displacement_blocks, monomial_values, weighted_sum
from .ladderalg import LadderPolynomial
from .model import (
    ModelConfig,
    build_H,
    build_layout,
    cubic_interaction_polynomial,
    field_algebra,
    free_polynomial,
    hamiltonian_polynomial,
    quartic_interaction_polynomial,
)

CENTRAL_IDENTITY_TOL = 1e-6
CENTRAL_F_VALUES = (-0.5, -0.25, 0.0, 0.25, 0.5)
DEFAULT_SEED = 7
SEEDED_SUPPORT_LEVEL = 2
GEOMETRY_FLOOR = 1e-12
# The reference states of the central identity.
CENTRAL_STATES = ("vacuum", "one_a", "one_b", f"seeded:{DEFAULT_SEED}")


# ---------------------------------------------------------------------------
# reference states


def _canonical_selector(selector: str) -> str:
    """The one spelling of a state's selector: vacuum, one_a, one_b or
    seeded:<seed> with the seed in decimal, so that seeded and seeded:007
    are both seeded:7.  Any other selector is a ConfigError."""
    if selector in ("vacuum", "one_a", "one_b"):
        return selector
    if selector == "seeded":
        return f"seeded:{DEFAULT_SEED}"
    if selector.startswith("seeded:"):
        try:
            seed = int(selector.partition(":")[2])
        except ValueError as exc:
            raise ConfigError(f"bad seed in state selector {selector!r}") from exc
        if seed < 0:
            raise ConfigError(f"negative seed in state selector {selector!r}")
        return f"seeded:{seed}"
    raise ConfigError(
        f"unknown state selector {selector!r}; use vacuum, one_a, one_b or seeded:<int>"
    )


def reference_state(config: ModelConfig, selector: str, layout: FockLayout | None = None) -> StateVector:
    """vacuum | one_a | one_b | seeded[:<int>] -> normalized StateVector.

    one_a / one_b put a single quantum in the displaced neutral / charged-b
    ladder.  seeded draws complex amplitudes on every basis state of total
    occupation at most 2, in row-major order, from a fixed generator
    (default seed 7): one product term per basis state.
    """
    layout = layout or build_layout(config)
    selector = _canonical_selector(selector)
    if selector == "vacuum":
        return vacuum(layout)
    if selector == "one_a":
        return basis_state(layout, {LadderId("a", config.k_index): 1})
    if selector == "one_b":
        return basis_state(layout, {LadderId("b", config.q_index): 1})
    rng = np.random.default_rng(int(selector.partition(":")[2]))
    support = layout.occupations(SEEDED_SUPPORT_LEVEL)
    amplitudes = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    # the terms are orthonormal basis states: the state's norm is its amplitudes'
    return basis_sum(layout, support, amplitudes / np.linalg.norm(amplitudes))


# ---------------------------------------------------------------------------
# the shifted Hamiltonian

# Entries of _realized_parts, keyed on a config and its layout: a run uses
# one of each.  The shifted groups of an entry hold 42 monomials on the
# built-in config and 59 on the two-mode README config.
SHIFTED_PARTS_CACHE = 8

_Groups = Mapping[tuple[int, int], LadderPolynomial]


def _shifted_parts(config: ModelConfig) -> tuple[_Groups, _Groups, _Groups, _Groups]:
    """U+ P U grouped by the powers (i, j) of (f1, f2) for four parts P of
    H, couplings not included: the free Hamiltonian over every mode
    (free_polynomial), Int :phi+ phi: phihat, Int :phihat^4: and the bare
    Int phihat^4.  The (0, 0) groups, the parts themselves, are left out:
    E_ref is the expectation of H (build_H).  An undisplaced ladder adds to
    no other group."""
    amplitudes = dict(config.displaced_ladders())
    parts = (free_polynomial(config), cubic_interaction_polynomial(config), quartic_interaction_polynomial(config))
    bare_quartic = ladderalg.integrate_box(field_algebra(config).powers[4], config.box_length)
    return tuple(
        {powers: g for powers, g in ladderalg.shift(part, amplitudes).items() if powers != (0, 0)}
        for part in parts + (bare_quartic,)
    )


@lru_cache(maxsize=SHIFTED_PARTS_CACHE)
def _realized_parts(config: ModelConfig, layout: FockLayout) -> tuple[OperatorMatrix, OperatorMatrix, tuple]:
    """H (build_H); one operator holding H's monomials and then every group
    of _shifted_parts, part by part; and, like _shifted_parts, four maps
    from the powers of each group to its slice of that operator's terms.
    Memoized on the config and layout."""
    H = build_H(config, layout)
    terms = hamiltonian_polynomial(config).terms
    slices = []
    for groups in _shifted_parts(config):
        slices.append({})
        for powers, group in groups.items():
            slices[-1][powers] = slice(len(terms), len(terms) + len(group.terms))
            terms += group.terms
    return H, ladderalg.realize(LadderPolynomial(terms), layout), tuple(map(MappingProxyType, slices))


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


# The reported coefficients, in CoefficientSet's order.
COEFFICIENT_NAMES = tuple(f.name for f in fields(CoefficientSet) if f.name != "max_imag")


def coefficients(config: ModelConfig, state: StateVector) -> CoefficientSet:
    """Each coefficient is the expectation of a group of the shifted parts of
    H (_shifted_parts) times its coupling; E_ref is the expectation of H
    itself.  The state is contracted once against every monomial of
    _realized_parts on the state's layout, and each group sums its values in
    term order from 0j."""
    H, parts, slices = _realized_parts(config, state.layout)
    free, cubic, quartic, bare_quartic = slices
    values = monomial_values(parts, state)[0]
    e_ref = weighted_sum(H.terms, values[: len(H.terms)])
    imag = [abs(e_ref.imag)]

    def value(groups: Mapping[tuple[int, int], slice], powers: tuple[int, int]) -> float:
        span = groups.get(powers, slice(0, 0))
        total = weighted_sum(parts.terms[span], values[span])
        imag.append(abs(total.imag))
        return float(total.real)

    l1, l2 = config.lambda1, config.lambda2
    quartic_self = l2 * value(quartic, (0, 4))
    cs = CoefficientSet(
        A1=value(free, (1, 0)) + l1 * value(cubic, (1, 0)),
        A2=value(free, (0, 1)) + l1 * value(cubic, (0, 1)),
        A3=l1 * value(cubic, (1, 1)),
        A4=value(free, (2, 0)) + l1 * value(cubic, (2, 0)),
        A5=l1 * value(cubic, (2, 1)),
        B1=l2 * value(bare_quartic, (0, 2)),
        B1_ordered=l2 * value(quartic, (0, 2)),
        B2=l2 * value(bare_quartic, (0, 1)),
        B2_ordered=l2 * value(quartic, (0, 1)),
        B3=l2 * value(quartic, (0, 3)),
        B4=4.0 * quartic_self,
        quartic_self_coefficient=quartic_self,
        E_ref=e_ref.real,
        omega_k=config.omega_k,
        energy_q=config.energy_q,
        max_imag=max(imag),
    )
    if not all(math.isfinite(v) for v in vars(cs).values()):
        raise ConfigError("the displaced-energy coefficients of this configuration are not finite in float64")
    return cs


# Entries of _reference, keyed on a config, its layout and a canonical
# selector.  A sweep batch of 6 calls names 5 selectors: vacuum, one_a,
# one_b and seeded:7 (twice) recur in every batch, and one seeded:<n> is
# new.  A verify run uses 4 or 5.
REFERENCE_CACHE = 16


def reference(
    config: ModelConfig, selector: str, layout: FockLayout | None = None
) -> tuple[StateVector, CoefficientSet]:
    """The reference state of selector (reference_state) and its
    coefficients, built and contracted once per config, layout and state:
    every spelling of a selector reads one entry.  The state's amplitudes
    are read-only, as its support is."""
    layout = layout or build_layout(config)
    return _reference(config, layout, _canonical_selector(selector))


@lru_cache(maxsize=REFERENCE_CACHE)
def _reference(config: ModelConfig, layout: FockLayout, selector: str) -> tuple[StateVector, CoefficientSet]:
    """reference on a canonical selector; a miss calls this module's
    reference_state and coefficients."""
    state = reference_state(config, selector, layout)
    state.amplitudes.setflags(write=False)
    return state, coefficients(config, state)


def displaced_energies(config: ModelConfig, state: StateVector, points: Sequence[tuple[float, float]]) -> list[float]:
    """The direct energy <psi| U+ H U |psi> at each amplitude pair (f1, f2)
    of points, on the state's layout.  The displaced copies share the
    state's amplitudes and column indices, so they are contracted against
    the memoized H in one batch (monomial_values), each displaced ladder
    carrying one stack of its columns per call: the memoized block's
    columns once, where every row shares the ladder's amplitude, and
    otherwise each row's columns from one stacked build over the call's
    amplitudes (displacement_blocks), shared by the ladders of one cutoff
    that move with the same amplitude.  A row at amplitude 0.0 reads the
    exact identity block there, so its columns are the state's own; a
    ladder that every row leaves at 0.0 carries no stack."""
    if not points:
        return []
    layout = state.layout
    H = _realized_parts(config, layout)[0]
    amplitudes = np.array(points, dtype=float)
    built, stacks = {}, {}
    for lad, index in config.displaced_ladders():
        position, cutoff, f = layout.position(lad), layout.cutoff(lad), amplitudes[:, index]
        if not f.any():
            continue
        if (cutoff, index) not in built:
            built[cutoff, index] = displacement_block(cutoff, f[0])[None] if all(f == f[0]) else displacement_blocks(cutoff, f)
        stacks[position] = displaced_columns(built[cutoff, index], state.ladders[position][1])
    return [weighted_sum(H.terms, values).real for values in monomial_values(H, state, stacks, len(points))]


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
    B1 picks up the zero-point constant sum_p 1/(2 omega_p L).  lambda2
    multiplies last, so a value that fits float64 is not lost to an
    overflowing intermediate; one that does not fit is a ConfigError.
    """
    L = config.box_length
    w_k, e_q, l2 = config.omega_k, config.energy_q, config.lambda2
    zero_point = sum(1.0 / (2.0 * config.omega(n) * L) for n in config.neutral_modes)
    if config.k_index == 2 * config.q_index:
        a5 = config.lambda1 / (e_q * math.sqrt(2.0 * w_k * L))
    else:
        a5 = 0.0
    forms = {
        "A1": 0.0,
        "A2": 0.0,
        "A3": 0.0,
        "A4": 2.0 * e_q,
        "A5": a5,
        "B1": l2 * (6.0 * zero_point / w_k),
        "B1_ordered": 0.0,
        "B2": 0.0,
        "B2_ordered": 0.0,
        "B3": 0.0,
        "B4": l2 * (6.0 / (w_k * w_k * L)),
        "quartic_self_coefficient": l2 * (1.5 / (w_k * w_k * L)),
        "E_ref": 0.0,
        "omega_k": w_k,
        "energy_q": e_q,
    }
    if not all(math.isfinite(v) for v in forms.values()):
        raise ConfigError("the vacuum closed forms of this configuration are not finite in float64")
    return forms


# ---------------------------------------------------------------------------
# the central identity


def central_identity_checks(
    config: ModelConfig,
    layout: FockLayout | None = None,
    state_selectors: Sequence[str] = CENTRAL_STATES,
) -> list[ResidualCheck]:
    """Polynomial energy vs direct displaced expectation, per state and
    amplitude pair, plus one summary row naming which quartic weight
    (unit / times4 / both) actually matches the direct values.  Each state
    is checked once, named by its canonical selector."""
    layout = layout or build_layout(config)
    points = [(f1, f2) for f1 in CENTRAL_F_VALUES for f2 in CENTRAL_F_VALUES]
    selectors = dict.fromkeys(map(_canonical_selector, state_selectors))
    for f1, f2 in points:
        require_admissible(config, DisplacementParams(f1, f2), layout)

    checks = []
    max_unit = 0.0
    max_times4 = 0.0
    for selector in selectors:
        state, cs = reference(config, selector, layout)
        for (f1, f2), e_direct in zip(points, displaced_energies(config, state, points)):
            scale = 1.0 + abs(e_direct)
            r_unit = abs(energy_polynomial(cs, f1, f2) - e_direct) / scale
            r_times4 = abs(energy_polynomial(cs, f1, f2, cs.B4) - e_direct) / scale
            max_unit = max(max_unit, r_unit)
            max_times4 = max(max_times4, r_times4)
            checks.append(ResidualCheck(f"central_identity[{selector}]", f1, f2, r_unit, CENTRAL_IDENTITY_TOL))
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
