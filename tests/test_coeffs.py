import math

import numpy as np
import pytest

from fockbox import coeffs, ladderalg
from fockbox.coeffs import (
    CENTRAL_F_VALUES,
    CENTRAL_STATES,
    CoefficientSet,
    central_identity_checks,
    coefficients,
    descent_threshold,
    displaced_energies,
    energy_polynomial,
    reference_state,
    vacuum_closed_forms,
    COEFFICIENT_NAMES,
)
from fockbox.displace import DisplacementParams, displacement
from fockbox.errors import ConfigError, GeometryError
from fockbox.fockspace import LadderId, expectation, vacuum
from fockbox.ladderalg import LadderMonomial, LadderPolynomial, LadderSymbol, constant, realize
from fockbox.model import (
    ModelConfig,
    build_H,
    build_layout,
    cubic_interaction_polynomial,
    default_config,
    field_algebra,
    free_polynomial,
    hamiltonian_polynomial,
    quartic_interaction_polynomial,
)
from fockbox.probe import direct_check_limit
from conftest import clear_package_caches
from test_fockspace import dense_state, row_major_occupations, term_factors
from test_ladderalg import TWELVE_LADDERS, bits
from test_model import OFF_FIRST_MODES, README_TWO_MODE


def norm(state):
    return math.sqrt(expectation(realize(constant(1.0), state.layout), state).real)


def test_reference_state_selectors():
    config = default_config().with_cutoff(4)
    layout = build_layout(config)
    vac = reference_state(config, "vacuum", layout)
    assert dense_state(vac)[0] == 1.0
    one_a = reference_state(config, "one_a", layout)
    assert dense_state(one_a)[np.ravel_multi_index((1, 0, 0), layout.dims)] == 1.0
    one_b = reference_state(config, "one_b", layout)
    assert dense_state(one_b)[np.ravel_multi_index((0, 1, 0), layout.dims)] == 1.0
    for state in (vac, one_a, one_b):
        assert len(state.amplitudes) == 1
        assert norm(state) == pytest.approx(1.0, abs=1e-14)


def test_seeded_state_support_and_reproducibility():
    config = default_config().with_cutoff(4)
    layout = build_layout(config)
    s7a = reference_state(config, "seeded:7", layout)
    s7b = reference_state(config, "seeded", layout)  # default seed is 7
    np.testing.assert_array_equal(s7a.amplitudes, s7b.amplitudes)
    s3 = reference_state(config, "seeded:3", layout)
    assert not np.allclose(s3.amplitudes, s7a.amplitudes)
    occ = row_major_occupations(layout).sum(axis=1)
    assert np.all(np.abs(dense_state(s7a)[occ > 2]) == 0.0)
    assert len(s7a.amplitudes) == np.count_nonzero(occ <= 2) == 10
    assert norm(s7a) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ConfigError, match="negative seed"):
        reference_state(config, "seeded:-1", layout)


@pytest.mark.parametrize("config", [default_config(), README_TWO_MODE], ids=["default", "two_mode"])
def test_seeded_terms_take_the_draws_of_the_full_layout_mask(config):
    # the joint-space state drew its amplitudes onto the row-major mask of
    # occupations <= 2; the product terms take the same draws in that order
    layout = build_layout(config)
    occ = row_major_occupations(layout)
    mask = occ.sum(axis=1) <= 2
    rng = np.random.default_rng(7)
    draws = rng.normal(size=int(mask.sum())) + 1j * rng.normal(size=int(mask.sum()))
    state = reference_state(config, "seeded:7", layout)
    assert len(state.amplitudes) == {3: 10, 4: 15}[len(layout.ladders)]
    assert layout.occupations(2) == [tuple(n) for n in occ[mask]]
    for v, column in zip(term_factors(state), occ[mask].T):
        assert np.array_equal(v, np.eye(len(v))[:, column])
    np.testing.assert_array_equal(state.amplitudes, draws / np.linalg.norm(draws))


def test_reference_state_rejects_bad_selectors():
    config = default_config().with_cutoff(3)
    with pytest.raises(ConfigError):
        reference_state(config, "excited")
    with pytest.raises(ConfigError):
        reference_state(config, "seeded:x")


def test_every_spelling_of_a_selector_reads_one_memo_entry():
    config = default_config().with_cutoff(4)
    layout = build_layout(config)
    clear_package_caches()
    try:
        state, cs = coeffs.reference(config, "seeded:7", layout)
        for spelling in ("seeded", "seeded:007", "seeded:+7"):
            assert coeffs.reference(config, spelling, layout) == (state, cs)
        assert coeffs._reference.cache_info().currsize == 1
        # a bad selector raises before the lookup, and nothing is cached
        for bad in ("excited", "seeded:x", "seeded:-1", "Seeded:7"):
            with pytest.raises(ConfigError, match="state selector"):
                coeffs.reference(config, bad, layout)
        assert coeffs._reference.cache_info().currsize == 1
        assert cs == coefficients(config, reference_state(config, "seeded", layout))
    finally:
        clear_package_caches()


def test_a_memoized_state_is_read_only():
    config = default_config().with_cutoff(4)
    for selector in ("vacuum", "seeded:3"):
        state, _ = coeffs.reference(config, selector)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0
        for columns, levels in state.ladders:
            assert not columns.flags.writeable and not levels.flags.writeable


# The coefficients of the default config in COEFFICIENT_NAMES order, as the
# earlier quadrature evaluation (field moments at nodes over the box) gave them.
QUADRATURE_COEFFICIENTS = {
    "vacuum": [0.0, 0.0, 0.0, 2.8284271247461903, 0.13339439113182167, 0.09549296585513722, 0.0, 0.0, 0.0,
               0.0, 0.19098593171027445, 0.04774648292756861, 0.0, 2.23606797749979, 1.4142135623730951],
    "one_a": [0.0, 0.0, 0.0, 2.8284271247461903, 0.13339439113182167, 0.2864788975654117, 0.19098593171027445,
              0.0, 0.0, 0.0, 0.19098593171027445, 0.04774648292756861, 2.23606797749979, 2.23606797749979,
              1.4142135623730951],
    "one_b": [0.0, -1.7875326052294238e-17, 0.0, 2.8284271247461903, 0.13339439113182167, 0.09549296585513722,
              0.0, 0.0, 0.0, 0.0, 0.19098593171027445, 0.04774648292756861, 1.4142135623730951, 2.23606797749979,
              1.4142135623730951],
    "seeded:7": [0.749192404796015, 1.376224334843907, 0.03431114597818324, 2.8694813531120804,
                 0.13339439113182167, 0.25451777188550934, 0.1590248060303721, 0.09247054690329838,
                 0.033691613332114304, 0.058778933571184085, 0.19098593171027445, 0.04774648292756861,
                 3.1209794381727622, 2.23606797749979, 1.4142135623730951],
}


def within_rounding(got, want):
    return abs(got - want) <= 1e-15 * (1.0 + abs(want))


@pytest.mark.parametrize("selector", sorted(QUADRATURE_COEFFICIENTS))
def test_shifted_hamiltonian_gives_the_quadrature_coefficients(selector):
    config = default_config()
    layout = build_layout(config)
    cs = coefficients(config, reference_state(config, selector, layout))
    for name, want in zip(COEFFICIENT_NAMES, QUADRATURE_COEFFICIENTS[selector], strict=True):
        assert within_rounding(getattr(cs, name), want), (name, getattr(cs, name), want)


def test_vacuum_coefficients_match_closed_forms():
    config = default_config()
    layout = build_layout(config)
    state = reference_state(config, "vacuum", layout)
    cs = coefficients(config, state)
    closed = vacuum_closed_forms(config)
    assert set(closed) == set(COEFFICIENT_NAMES)
    for name, expected in closed.items():
        assert within_rounding(getattr(cs, name), expected), (name, getattr(cs, name), expected)
    assert cs.max_imag <= 1e-13


def test_closed_forms_past_float64_are_rejected():
    # B4 = 6 lambda2 / (omega_k^2 L) is 1.9 lambda2 here, past float64
    with pytest.raises(ConfigError, match="closed forms"):
        vacuum_closed_forms(ModelConfig(lambda2=1e308, box_length=50.0, mass_neutral=0.0))


def test_closed_form_values_are_the_advertised_formulas():
    config = default_config()
    closed = vacuum_closed_forms(config)
    L, w_k, e_q = config.box_length, config.omega_k, config.energy_q
    assert closed["A4"] == 2.0 * e_q
    assert closed["A5"] == pytest.approx(1.0 / (e_q * math.sqrt(2.0 * w_k * L)), rel=1e-15)
    assert closed["B4"] == pytest.approx(6.0 / (w_k * w_k * L), rel=1e-15)
    assert closed["quartic_self_coefficient"] == pytest.approx(1.5 / (w_k * w_k * L), rel=1e-15)
    assert closed["B1"] == pytest.approx(6.0 / (2.0 * w_k * L) / w_k, rel=1e-15)


@pytest.mark.parametrize("lambda1", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_cubic_overlap_positive_whenever_k_is_2q(lambda1, q):
    config = ModelConfig(
        lambda1=lambda1,
        neutral_modes=(2 * q,),
        charged_modes=(q,),
        q_index=q,
        k_index=2 * q,
        cutoff_default=4,
    )
    layout = build_layout(config)
    cs = coefficients(config, reference_state(config, "vacuum", layout))
    expected = lambda1 / (config.energy_q * math.sqrt(2.0 * config.omega_k * config.box_length))
    assert cs.A5 == pytest.approx(expected, rel=1e-12)
    assert cs.A5 > 0.0
    assert descent_threshold(cs) == pytest.approx(2.0 * config.energy_q / cs.A5, rel=1e-12)


def test_cubic_overlap_vanishes_off_resonance():
    config = ModelConfig(neutral_modes=(3,), k_index=3, cutoff_default=4)
    layout = build_layout(config)
    cs = coefficients(config, reference_state(config, "vacuum", layout))
    assert abs(cs.A5) <= 1e-14
    with pytest.raises(GeometryError):
        descent_threshold(cs)


def test_energy_polynomial_shapes():
    config = default_config().with_cutoff(6)
    layout = build_layout(config)
    cs = coefficients(config, reference_state(config, "vacuum", layout))
    # quadratic in f1 at fixed f2: second difference is constant
    f2 = 0.3
    e = [energy_polynomial(cs, f1, f2) for f1 in (0.0, 1.0, 2.0, 3.0)]
    d2a = e[2] - 2 * e[1] + e[0]
    d2b = e[3] - 2 * e[2] + e[1]
    assert d2a == pytest.approx(d2b, rel=1e-12)
    assert d2a == pytest.approx(2.0 * (cs.A4 + f2 * cs.A5), rel=1e-12)
    # explicit quartic weight override replaces the f2^4 term only
    delta = energy_polynomial(cs, 0.0, f2, quartic_coefficient=cs.quartic_self_coefficient + 1.0)
    assert delta - energy_polynomial(cs, 0.0, f2) == pytest.approx(f2 ** 4, rel=1e-12)


def test_central_identity_small_grid():
    config = default_config()
    layout = build_layout(config)
    checks = central_identity_checks(config, layout, state_selectors=("vacuum", "one_b"))
    rows = [c for c in checks if c.name.startswith("central_identity")]
    assert len(rows) == 2 * 25
    assert all(c.passed for c in rows)
    (adjudication,) = [c for c in checks if c.name.startswith("quartic_coefficient")]
    assert adjudication.name == "quartic_coefficient[unit]"
    assert adjudication.passed


def test_central_identity_adjudicates_both_for_free_quartic():
    config = ModelConfig(lambda2=0.0)
    layout = build_layout(config)
    checks = central_identity_checks(config, layout, state_selectors=("vacuum",))
    (adjudication,) = [c for c in checks if c.name.startswith("quartic_coefficient")]
    assert adjudication.name == "quartic_coefficient[both]"


def test_one_particle_states_shift_reference_energy():
    config = default_config()
    layout = build_layout(config)
    cs_vac = coefficients(config, reference_state(config, "vacuum", layout))
    cs_b = coefficients(config, reference_state(config, "one_b", layout))
    assert cs_vac.E_ref == pytest.approx(0.0, abs=1e-13)
    assert cs_b.E_ref == pytest.approx(config.energy_q, rel=1e-12)
    # A4 = 2 E_q + lambda1 <phi> n1^2 is state independent only through <phi>
    assert cs_b.A4 == pytest.approx(2.0 * config.energy_q, rel=1e-12)


@pytest.mark.parametrize("neutral, k", [((2,), 2), ((3, 1), 3)])
def test_mirrored_mode_indices_give_the_same_coefficients(neutral, k):
    # p -> -p mirrors x -> -x, which leaves every box integral of the even
    # cos profiles unchanged
    positive = ModelConfig(neutral_modes=neutral, k_index=k, cutoff_default=4)
    mirrored = ModelConfig(
        neutral_modes=tuple(-n for n in neutral), k_index=-k, charged_modes=(-1,), q_index=-1, cutoff_default=4
    )
    for selector in ("vacuum", "one_a", "one_b"):
        want = coefficients(positive, reference_state(positive, selector, build_layout(positive)))
        got = coefficients(mirrored, reference_state(mirrored, selector, build_layout(mirrored)))
        for name in COEFFICIENT_NAMES:
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=1e-14), (selector, name)


def test_coefficients_reject_a_box_that_overflows():
    config = ModelConfig(box_length=1.7976931348623157e308, cutoff_default=3)
    with pytest.raises(ConfigError):
        coefficients(config, reference_state(config, "vacuum", build_layout(config)))


def test_twelve_ladder_config_runs_without_the_joint_space():
    config = TWELVE_LADDERS
    layout = build_layout(config)
    assert len(layout.ladders) == 12 and layout.dimension == 17**12
    # 68 monomials over 48 distinct non-empty ladder words
    h = build_H(config, layout)
    assert len(hamiltonian_polynomial(config).terms) == len(h.terms) == 68
    assert sum(len(words) - 1 for words in h.words) == 48
    closed = vacuum_closed_forms(config)
    for selector in ("vacuum", "one_a", "one_b", "seeded:7"):
        state = reference_state(config, selector, layout)
        assert len(state.amplitudes) == {"seeded:7": 91}.get(selector, 1)
        cs = coefficients(config, state)
        assert all(math.isfinite(getattr(cs, name)) for name in COEFFICIENT_NAMES)
        if selector == "vacuum":
            for name, want in closed.items():
                assert within_rounding(getattr(cs, name), want), (name, getattr(cs, name), want)
    checks = central_identity_checks(config, layout)
    assert len(checks) == 4 * 25 + 1
    assert all(c.passed and c.residual <= 1e-13 for c in checks), max(c.residual for c in checks)
    assert checks[-1].name == "quartic_coefficient[unit]"


def per_group_coefficients(config, state, layout):
    """The coefficient set from one expectation per realized group of the
    shifted parts, each summed on its own, and one of H for E_ref."""
    free, cubic, quartic, bare_quartic = coeffs._shifted_parts(config)
    e_ref = expectation(build_H(config, layout), state)
    imag = [abs(e_ref.imag)]

    def value(groups, powers):
        total = expectation(realize(groups.get(powers, LadderPolynomial(())), layout), state)
        imag.append(abs(total.imag))
        return float(total.real)

    l1, l2 = config.lambda1, config.lambda2
    quartic_self = l2 * value(quartic, (0, 4))
    return CoefficientSet(
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


def per_state_direct_energies(config, state, points, layout):
    H = build_H(config, layout)
    return [expectation(H, displacement(config, DisplacementParams(f1, f2), layout).apply(state)).real for f1, f2 in points]


CENTRAL_POINTS = [(f1, f2) for f1 in CENTRAL_F_VALUES for f2 in CENTRAL_F_VALUES]
REFERENCE_SELECTORS = ("vacuum", "one_a", "one_b", "seeded:7")


@pytest.mark.parametrize("selector", REFERENCE_SELECTORS)
@pytest.mark.parametrize("config", [default_config(), README_TWO_MODE], ids=["default", "two_mode"])
def test_one_pass_coefficients_equal_the_per_group_expectations(config, selector):
    # bit for bit, the imaginary parts that max_imag reads included
    layout = build_layout(config)
    state = reference_state(config, selector, layout)
    assert coefficients(config, state) == per_group_coefficients(config, state, layout)


@pytest.mark.parametrize("selector", REFERENCE_SELECTORS)
@pytest.mark.parametrize("config", [default_config(), README_TWO_MODE], ids=["default", "two_mode"])
def test_batched_direct_energies_equal_the_per_state_expectations(config, selector):
    # the central points, and calls of one f2 each, as run_sweep makes them:
    # there a_k reads one memoized block that every row shares (none at
    # f2 = 0), b_q and d_q one stacked build, and a row at f1 = 0 reads the
    # exact identity there, its unit columns.  Each row is also bit for bit
    # its batch of one.
    layout = build_layout(config)
    state = reference_state(config, selector, layout)
    limit = direct_check_limit(config, layout)
    sweeps = [[(f1, f2) for f1 in (-limit, -0.6, -0.25, 0.0, 0.3, 0.8, limit)] for f2 in (0.0, -0.5 * limit, limit)]
    for points in (CENTRAL_POINTS, *sweeps):
        batch = displaced_energies(config, state, points)
        assert batch == per_state_direct_energies(config, state, points, layout)
        alone = [displaced_energies(config, state, [point])[0] for point in points]
        assert np.array(batch).tobytes() == np.array(alone).tobytes()


def test_central_states_are_the_reference_selectors():
    assert CENTRAL_STATES == REFERENCE_SELECTORS


def displaced_free_polynomial(config):
    """The free Hamiltonian of the displaced ladders alone,
    omega_k a+_k a_k + E_q (b+_q b_q + d+_q d_q)."""
    a_k = LadderId("a", config.k_index)
    b_q, d_q = LadderId("b", config.q_index), LadderId("d", config.q_index)
    return LadderPolynomial.from_terms(
        LadderMonomial(energy, (LadderSymbol(lad, True), LadderSymbol(lad, False)))
        for lad, energy in ((a_k, config.omega_k), (b_q, config.energy_q), (d_q, config.energy_q))
    )


@pytest.mark.parametrize(
    "config", [default_config(), README_TWO_MODE, TWELVE_LADDERS], ids=["default", "two_mode", "twelve"]
)
def test_free_groups_are_bitwise_the_shift_of_the_displaced_ladders_alone(config):
    # H0 over every mode shifts to the same groups: an undisplaced ladder
    # only adds to the dropped (0, 0) group
    amplitudes = {LadderId("b", config.q_index): 0, LadderId("d", config.q_index): 0, LadderId("a", config.k_index): 1}
    oracle = ladderalg.shift(displaced_free_polynomial(config), amplitudes)
    free = coeffs._shifted_parts(config)[0]
    assert list(free) == [powers for powers in oracle if powers != (0, 0)]
    assert all(bits(free[powers]) == bits(oracle[powers]) for powers in free)


def literal_shifted_parts(config):
    """_shifted_parts with its amplitude-index map written out by hand: the
    oracle for ModelConfig.displaced_ladders' map."""
    amplitudes = {LadderId("b", config.q_index): 0, LadderId("d", config.q_index): 0, LadderId("a", config.k_index): 1}
    bare_quartic = ladderalg.integrate_box(field_algebra(config).powers[4], config.box_length)
    parts = (
        free_polynomial(config),
        cubic_interaction_polynomial(config),
        quartic_interaction_polynomial(config),
        bare_quartic,
    )
    return tuple(
        {powers: g for powers, g in ladderalg.shift(part, amplitudes).items() if powers != (0, 0)} for part in parts
    )


@pytest.mark.parametrize(
    "config",
    [default_config(), README_TWO_MODE, TWELVE_LADDERS, OFF_FIRST_MODES],
    ids=["default", "two_mode", "twelve", "off_first_modes"],
)
def test_shifted_parts_are_bitwise_the_shift_by_the_literal_map(config):
    got, want = coeffs._shifted_parts(config), literal_shifted_parts(config)
    for groups, oracle in zip(got, want, strict=True):
        assert list(groups) == list(oracle)
        assert all(bits(groups[powers]) == bits(oracle[powers]) for powers in groups)
    # the pair displacement survives: k = 2q gives an f1^2 f2 cubic group
    assert (2, 1) in got[1]


def test_coefficients_and_direct_energies_read_the_state_layout():
    # a state on another config's layout is contracted on that layout
    config, small = default_config(), default_config().with_cutoff(12)
    state = vacuum(build_layout(small))
    assert coefficients(config, state) == coefficients(small, state)
    assert displaced_energies(config, state, CENTRAL_POINTS) == displaced_energies(small, state, CENTRAL_POINTS)
