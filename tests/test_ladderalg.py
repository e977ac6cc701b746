import math

import numpy as np
import pytest

from fockbox import ladderalg
from fockbox.errors import GridError
from fockbox.fockspace import FockLayout, LadderId, lowering_block, raising_block
from fockbox.ladderalg import (
    LadderMonomial,
    LadderPolynomial,
    LadderSymbol,
    constant,
    field_polynomial,
    integrate_box,
    ladder_sum,
    mode_energy,
    multiply,
    normal_order,
    power,
    quadrature_realize,
    realize,
    realize_at,
)
from fockbox.model import default_config, interaction_density_polynomial

A2 = LadderId("a", 2)
B1 = LadderId("b", 1)
D1 = LadderId("d", 1)


def sym(lad, dagger, phase=0):
    return LadderSymbol(lad, dagger, phase)


def mono(coeff, *symbols):
    return LadderMonomial(coeff, tuple(symbols))


def test_mode_energy():
    assert mode_energy(3.0, 4.0) == 5.0
    assert mode_energy(0.0, 1.5) == 1.5


def test_symbol_wave_index_and_validation():
    assert sym(A2, False, +1).wave_index == 2
    assert sym(A2, True, -1).wave_index == -2
    assert sym(B1, True, 0).wave_index == 0
    with pytest.raises(ValueError):
        LadderSymbol(A2, False, 2)


def test_from_terms_combines_and_prunes():
    t = mono(1.0, sym(B1, True))
    p = LadderPolynomial.from_terms([t, t.scaled(2.0), t.scaled(-3.0)])
    assert p.is_zero()
    q = LadderPolynomial.from_terms([t, t])
    assert len(q.terms) == 1
    assert q.terms[0].coefficient == 2.0


def test_polynomial_arithmetic():
    p = ladder_sum([(B1, True), (B1, False)])
    q = 2.0 * p
    assert all(t.coefficient == 2.0 for t in q.terms)
    assert (q - p - p).is_zero()
    assert power(p, 0).terms == constant(1.0).terms
    r2 = power(p, 2)
    assert r2.terms == multiply(p, p).terms
    assert len(r2.terms) == 4  # aa, a a+, a+ a, a+ a+ all distinct orders


def test_multiply_preserves_symbol_order():
    ann = LadderPolynomial.from_terms([mono(1.0, sym(B1, False))])
    cre = LadderPolynomial.from_terms([mono(1.0, sym(B1, True))])
    ad = multiply(ann, cre)
    da = multiply(cre, ann)
    assert ad.terms[0].symbols == (sym(B1, False), sym(B1, True))
    assert da.terms[0].symbols == (sym(B1, True), sym(B1, False))
    assert ad.terms != da.terms


def test_normal_order_is_definitional():
    # a a+ -> a+ a with no commutator remainder, daggers sorted to the left
    p = LadderPolynomial.from_terms([mono(1.0, sym(B1, False), sym(B1, True))])
    ordered = normal_order(p)
    assert ordered.terms[0].symbols == (sym(B1, True), sym(B1, False))
    mixed = LadderPolynomial.from_terms(
        [mono(1.0, sym(D1, False), sym(A2, True), sym(B1, False), sym(A2, False))]
    )
    got = normal_order(mixed).terms[0].symbols
    assert got == (sym(A2, True), sym(A2, False), sym(B1, False), sym(D1, False))


def test_integrate_box_momentum_selection():
    config = default_config()
    phihat = field_polynomial("neutral", config)
    sq = multiply(phihat, phihat)
    integrated = integrate_box(sq, config.box_length)
    assert all(t.wave_index == 0 for t in integrated.terms)
    # only a a+ and a+ a survive for a single mode; coefficient L / (2 w L)
    assert len(integrated.terms) == 2
    expected = 1.0 / (2.0 * config.omega_k)
    for t in integrated.terms:
        assert t.coefficient.real == pytest.approx(expected, rel=1e-14)


def test_field_polynomial_amplitudes_and_phases():
    config = default_config()
    phihat = field_polynomial("neutral", config)
    amp = 1.0 / math.sqrt(2.0 * config.omega_k * config.box_length)
    entries = {(t.symbols[0].dagger, t.symbols[0].phase_sign) for t in phihat.terms}
    assert entries == {(False, +1), (True, -1)}
    for t in phihat.terms:
        assert t.coefficient.real == pytest.approx(amp, rel=1e-14)
    phi = field_polynomial("charged", config)
    families = {(t.symbols[0].ladder.family, t.symbols[0].dagger) for t in phi.terms}
    assert families == {("b", False), ("d", True)}
    phi_dag = field_polynomial("charged_dagger", config)
    families = {(t.symbols[0].ladder.family, t.symbols[0].dagger) for t in phi_dag.terms}
    assert families == {("b", True), ("d", False)}
    with pytest.raises(ValueError):
        field_polynomial("scalar", config)


def test_integrated_interaction_terms():
    config = default_config()
    density = interaction_density_polynomial(config)
    integrated = integrate_box(density, config.box_length)
    words = [tuple((s.ladder.family, s.ladder.mode_index, s.dagger) for s in t.symbols) for t in integrated.terms]
    assert words == [
        (("b", 1, False), ("d", 1, False), ("a", 2, True)),
        (("b", 1, True), ("d", 1, True), ("a", 2, False)),
        (("a", 2, True), ("a", 2, True), ("a", 2, False), ("a", 2, False)),
    ]
    # closed forms: 1 / (2 E_q sqrt(2 w_k L)) and 6 L / (2 w_k L)^2
    cubic = 1.0 / (2.0 * config.energy_q * math.sqrt(2.0 * config.omega_k * config.box_length))
    quartic = 6.0 * config.box_length / (2.0 * config.omega_k * config.box_length) ** 2
    assert all(t.coefficient.imag == 0.0 for t in integrated.terms)
    coeffs = [t.coefficient.real for t in integrated.terms]
    np.testing.assert_allclose(coeffs, [cubic, cubic, quartic], rtol=1e-13)


def test_realize_monomial_order_within_ladder():
    layout = FockLayout((B1,), (5,))
    ad = LadderPolynomial.from_terms([mono(1.0, sym(B1, False), sym(B1, True))])
    da = LadderPolynomial.from_terms([mono(1.0, sym(B1, True), sym(B1, False))])
    low, raise_ = lowering_block(5), raising_block(5)
    np.testing.assert_allclose(realize(ad, layout).to_dense(), low @ raise_)
    np.testing.assert_allclose(realize(da, layout).to_dense(), raise_ @ low)


def test_realize_cross_ladder_is_kron():
    layout = FockLayout((A2, B1), (2, 2))
    p = LadderPolynomial.from_terms([mono(2.0, sym(B1, False), sym(A2, True))])
    expected = 2.0 * np.kron(raising_block(2), lowering_block(2))
    np.testing.assert_allclose(realize(p, layout).to_dense(), expected)


def test_realize_at_carries_plane_wave_phase():
    config = default_config()
    layout = FockLayout((A2,), (6,))
    phihat = field_polynomial("neutral", config)
    x = 0.37
    amp = 1.0 / math.sqrt(2.0 * config.omega_k * config.box_length)
    phase = np.exp(2.0j * x)  # k = 2 at L = 2 pi
    expected = amp * (phase * lowering_block(6) + np.conj(phase) * raising_block(6))
    np.testing.assert_allclose(realize_at(phihat, layout, x, config.box_length).to_dense(), expected, atol=1e-15)


def test_quadrature_realize_matches_integrate_box():
    config = default_config()
    layout = FockLayout((A2, B1, D1), (3, 3, 3))
    density = interaction_density_polynomial(config)
    symbolic = realize(integrate_box(density, config.box_length), layout)
    band = max(abs(t.wave_index) for t in density.terms)
    coarse = quadrature_realize(density, layout, config.box_length, band + 1)
    fine = quadrature_realize(density, layout, config.box_length, 2 * (band + 1))
    assert (symbolic - coarse).max_abs() <= 1e-12
    assert (symbolic - fine).max_abs() <= 1e-12
    assert (coarse - fine).max_abs() <= 1e-12


def test_quadrature_realize_rejects_coarse_grid():
    config = default_config()
    layout = FockLayout((A2, B1, D1), (2, 2, 2))
    density = interaction_density_polynomial(config)
    band = max(abs(t.wave_index) for t in density.terms)
    with pytest.raises(GridError):
        quadrature_realize(density, layout, config.box_length, band)


def test_ladder_sum_builds_phase_free_symbols():
    p = ladder_sum([(B1, True), (D1, False)], coefficient=0.5)
    assert len(p.terms) == 2
    for t in p.terms:
        assert t.coefficient == 0.5
        assert t.symbols[0].phase_sign == 0
        assert t.wave_index == 0
