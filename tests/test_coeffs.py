import math

import numpy as np
import pytest

from fockbox.coeffs import (
    build_quadrature_grid,
    central_identity_checks,
    coefficients,
    descent_threshold,
    energy_polynomial,
    expectations,
    reference_state,
    vacuum_closed_forms,
    COEFFICIENT_NAMES,
)
from fockbox.errors import ConfigError, GeometryError
from fockbox.fockspace import LadderId
from fockbox.model import ModelConfig, build_layout, default_config


def test_reference_state_selectors():
    config = default_config().with_cutoff(4)
    layout = build_layout(config)
    vac = reference_state(config, "vacuum", layout)
    assert vac.amplitudes[0] == 1.0
    one_a = reference_state(config, "one_a", layout)
    assert one_a.amplitudes[layout.basis_index((1, 0, 0))] == 1.0
    one_b = reference_state(config, "one_b", layout)
    assert one_b.amplitudes[layout.basis_index((0, 1, 0))] == 1.0
    for state in (vac, one_a, one_b):
        assert state.norm() == pytest.approx(1.0, abs=1e-14)


def test_seeded_state_support_and_reproducibility():
    config = default_config().with_cutoff(4)
    layout = build_layout(config)
    s7a = reference_state(config, "seeded:7", layout)
    s7b = reference_state(config, "seeded", layout)  # default seed is 7
    np.testing.assert_array_equal(s7a.amplitudes, s7b.amplitudes)
    s3 = reference_state(config, "seeded:3", layout)
    assert not np.allclose(s3.amplitudes, s7a.amplitudes)
    occ = layout.occupations().sum(axis=1)
    assert np.all(np.abs(s7a.amplitudes[occ > 2]) == 0.0)
    assert s7a.norm() == pytest.approx(1.0, abs=1e-14)


def test_reference_state_rejects_bad_selectors():
    config = default_config().with_cutoff(3)
    with pytest.raises(ConfigError):
        reference_state(config, "excited")
    with pytest.raises(ConfigError):
        reference_state(config, "seeded:x")


def test_quadrature_grid_integrates_band_limited_functions():
    config = default_config()
    grid = build_quadrature_grid(config)
    L = config.box_length
    assert grid.weight * len(grid.points) == pytest.approx(L, rel=1e-14)
    assert grid.integrate(np.cos(grid.points) ** 2) == pytest.approx(L / 2.0, rel=1e-13)
    assert grid.integrate(np.cos(3.0 * grid.points)) == pytest.approx(0.0, abs=1e-12)


def test_vacuum_expectations():
    config = default_config().with_cutoff(6)
    layout = build_layout(config)
    state = reference_state(config, "vacuum", layout)
    ex = expectations(config, state, layout)
    np.testing.assert_allclose(ex.phi, 0.0, atol=1e-15)
    np.testing.assert_allclose(ex.phi_sq_ordered, 0.0, atol=1e-15)
    np.testing.assert_allclose(ex.phi_cube, 0.0, atol=1e-15)
    # bare <phi^2> on the vacuum is the zero-point constant 1 / (2 w_k L)
    zero_point = 1.0 / (2.0 * config.omega_k * config.box_length)
    np.testing.assert_allclose(ex.phi_sq, zero_point, rtol=1e-12)
    assert ex.neutral_ladder == pytest.approx(0.0, abs=1e-15)
    assert ex.charged_ladder == pytest.approx(0.0, abs=1e-15)
    assert ex.max_imag <= 1e-14


def test_vacuum_coefficients_match_closed_forms():
    config = default_config()
    layout = build_layout(config)
    state = reference_state(config, "vacuum", layout)
    cs = coefficients(config, state, layout)
    closed = vacuum_closed_forms(config)
    assert set(closed) == set(COEFFICIENT_NAMES)
    for name, expected in closed.items():
        assert getattr(cs, name) == pytest.approx(expected, abs=1e-12), name
    assert cs.max_imag <= 1e-13


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
    cs = coefficients(config, reference_state(config, "vacuum", layout), layout)
    expected = lambda1 / (config.energy_q * math.sqrt(2.0 * config.omega_k * config.box_length))
    assert cs.A5 == pytest.approx(expected, rel=1e-12)
    assert cs.A5 > 0.0
    assert descent_threshold(cs) == pytest.approx(2.0 * config.energy_q / cs.A5, rel=1e-12)


def test_cubic_overlap_vanishes_off_resonance():
    config = ModelConfig(neutral_modes=(3,), k_index=3, cutoff_default=4)
    layout = build_layout(config)
    cs = coefficients(config, reference_state(config, "vacuum", layout), layout)
    assert abs(cs.A5) <= 1e-14
    with pytest.raises(GeometryError):
        descent_threshold(cs)


def test_energy_polynomial_shapes():
    config = default_config().with_cutoff(6)
    layout = build_layout(config)
    cs = coefficients(config, reference_state(config, "vacuum", layout), layout)
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
    cs_vac = coefficients(config, reference_state(config, "vacuum", layout), layout)
    cs_b = coefficients(config, reference_state(config, "one_b", layout), layout)
    assert cs_vac.E_ref == pytest.approx(0.0, abs=1e-13)
    assert cs_b.E_ref == pytest.approx(config.energy_q, rel=1e-12)
    # A4 = 2 E_q + lambda1 <phi> n1^2 is state independent only through <phi>
    assert cs_b.A4 == pytest.approx(2.0 * config.energy_q, rel=1e-12)


@pytest.mark.parametrize("neutral, k", [((2,), 2), ((3, 1), 3)])
def test_mirrored_mode_indices_give_the_same_coefficients(neutral, k):
    # p -> -p mirrors x -> -x; every box integral of the even cos profiles is
    # unchanged, so a negative-index model needs the same quadrature band
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
