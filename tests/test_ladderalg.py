import math

import numpy as np
import pytest

from fockbox import ladderalg
from fockbox.errors import GridError
from fockbox.fockspace import FockLayout, LadderId, word_weights
from fockbox.ladderalg import (
    LadderMonomial,
    LadderPolynomial,
    LadderSymbol,
    adjoint,
    coefficient_gap,
    constant,
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
from fockbox.model import ModelConfig, default_config, field_algebra, interaction_density_polynomial
from test_fockspace import dense, kron_oracle, lowering_block, raising_block
from test_model import README_TWO_MODE

A2 = LadderId("a", 2)
B1 = LadderId("b", 1)
D1 = LadderId("d", 1)


def sym(lad, dagger, phase=0):
    return LadderSymbol(lad, dagger, phase)


def mono(coeff, *symbols):
    return LadderMonomial(coeff, tuple(symbols))


def bits(p):
    """p's terms, in order, with the bit patterns of each coefficient's real
    and imaginary parts (float.hex tells -0.0 from 0.0)."""
    return [(t.symbols, complex(t.coefficient).real.hex(), complex(t.coefficient).imag.hex()) for t in p.terms]


# Neutral and charged modes 1-4: twelve ladders of 17 levels, 17^12 (5.8e14)
# joint states, which no array here has.  Every ladder but a2, b1 and d1 is
# undisplaced.
TWELVE_LADDERS = ModelConfig(neutral_modes=(1, 2, 3, 4), charged_modes=(1, 2, 3, 4), q_index=1, k_index=2)


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
    assert not p.terms
    q = LadderPolynomial.from_terms([t, t])
    assert len(q.terms) == 1
    assert q.terms[0].coefficient == 2.0


def test_polynomial_arithmetic():
    p = LadderPolynomial.from_terms([mono(1.0, sym(B1, True)), mono(1.0, sym(B1, False))])
    q = 2.0 * p
    assert all(t.coefficient == 2.0 for t in q.terms)
    assert not (q - p - p).terms
    assert powers(p, 0) == (constant(1.0),)
    assert powers(p, 2)[0].terms == constant(1.0).terms
    r2 = powers(p, 2)[2]
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
    phi_dag = adjoint(phi)
    families = {(t.symbols[0].ladder.family, t.symbols[0].dagger) for t in phi_dag.terms}
    assert families == {("b", True), ("d", False)}
    for field in ("scalar", "charged_dagger"):
        with pytest.raises(ValueError):
            field_polynomial(field, config)


def charged_dagger_expansion(config):
    """phi+ expanded by hand, per mode p: (b+_p e^{-ipx} + d_p e^{ipx}) / sqrt(2 E_p L)."""
    L = config.box_length
    terms = []
    for n in config.charged_modes:
        amp = 1.0 / math.sqrt(2.0 * mode_energy(2.0 * math.pi * n / L, config.mass_charged) * L)
        terms.append(mono(amp, sym(LadderId("b", n), True, -1)))
        terms.append(mono(amp, sym(LadderId("d", n), False, +1)))
    return LadderPolynomial.from_terms(terms)


@pytest.mark.parametrize(
    "config", [default_config(), README_TWO_MODE, TWELVE_LADDERS], ids=["default", "two_mode", "twelve"]
)
def test_phi_dag_is_bitwise_the_hand_expansion(config):
    assert bits(field_algebra(config).phi_dag) == bits(charged_dagger_expansion(config))


def test_powers_are_bitwise_repeated_products():
    for p in (field_polynomial("neutral", TWELVE_LADDERS), field_polynomial("charged", README_TWO_MODE)):
        chain = powers(p, 4)
        assert len(chain) == 5
        product = constant(1.0)
        for n in range(5):
            assert bits(chain[n]) == bits(product)
            product = multiply(product, p)


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
    np.testing.assert_allclose(dense(realize(ad, layout)), low @ raise_)
    np.testing.assert_allclose(dense(realize(da, layout)), raise_ @ low)
    np.testing.assert_allclose(dense(realize(ad, layout)), kron_oracle(ad, layout))


def test_realize_lists_each_ladder_word_once():
    layout = FockLayout((A2, B1, D1), (3, 3, 3))
    p = LadderPolynomial.from_terms(
        [
            mono(1.0, sym(B1, True), sym(B1, False)),
            mono(2.0, sym(A2, True), sym(B1, True), sym(B1, False)),
            mono(3.0, sym(D1, False)),
        ]
    )
    op = realize(p, layout)
    # the empty word first on every ladder, then the words in term order
    assert [[shift for shift, _ in words] for words in op.words] == [[0, 1], [0, 0], [0, -1]]
    assert op.words[1][1] == word_weights(4, (True, False))
    assert [(complex(c), index) for c, index in op.terms] == [(3.0, (0, 0, 1)), (1.0, (0, 1, 0)), (2.0, (1, 1, 0))]


def test_adjoint_reverses_flips_and_conjugates():
    p = LadderPolynomial.from_terms([mono(1.0 + 2.0j, sym(A2, True, -1), sym(B1, False, +1))])
    (t,) = adjoint(p).terms
    assert t.coefficient == 1.0 - 2.0j
    assert t.symbols == (sym(B1, True, -1), sym(A2, False, +1))
    assert adjoint(adjoint(p)) == p


def test_realize_cross_ladder_is_kron():
    layout = FockLayout((A2, B1), (2, 2))
    p = LadderPolynomial.from_terms([mono(2.0, sym(B1, False), sym(A2, True))])
    expected = 2.0 * np.kron(raising_block(2), lowering_block(2))
    np.testing.assert_allclose(dense(realize(p, layout)), expected)
    np.testing.assert_allclose(dense(realize(p, layout)), kron_oracle(p, layout))


def test_monomial_phase_is_the_plane_wave_factor():
    config = default_config()
    phihat = field_polynomial("neutral", config)
    xs = np.array([0.37, -1.2])
    phases = {t.symbols[0].dagger: t.phase(xs, config.box_length) for t in phihat.terms}
    # k = 2 at L = 2 pi: a_k carries exp(+2ix), a+_k exp(-2ix)
    np.testing.assert_allclose(phases[False], np.exp(2.0j * xs), rtol=1e-15)
    np.testing.assert_allclose(phases[True], np.exp(-2.0j * xs), rtol=1e-15)
    # a scalar x gives bitwise the entry an array of samples gives
    assert phihat.terms[0].phase(0.37, config.box_length) == phases[phihat.terms[0].symbols[0].dagger][0]
    assert mono(1.0, sym(A2, True, 0)).phase(0.37, config.box_length) == 1.0


def test_shift_of_the_number_operator():
    # (a+ + f)(a + f) = a+ a + f (a+ + a) + f^2, grouped by the power of f
    number = LadderPolynomial.from_terms([mono(2.0, sym(A2, True), sym(A2, False))])
    assert shift(number, {B1: 0, A2: 1}) == {
        (0, 0): number,
        (0, 1): LadderPolynomial.from_terms([mono(2.0, sym(A2, True)), mono(2.0, sym(A2, False))]),
        (0, 2): constant(2.0),
    }
    # an undisplaced ladder keeps its symbols
    assert shift(number, {B1: 0}) == {(0,): number}


def test_shift_drops_phases_and_rejects_x_dependent_polynomials():
    config = default_config()
    integrated = integrate_box(interaction_density_polynomial(config), config.box_length)
    groups = shift(integrated, {A2: 0})
    assert all(s.phase_sign == 0 for group in groups.values() for t in group.terms for s in t.symbols)
    with pytest.raises(ValueError, match="box-integrated"):
        shift(field_polynomial("neutral", config), {A2: 0})


def test_quadrature_integrate_matches_integrate_box():
    config = default_config()
    density = interaction_density_polynomial(config)
    symbolic = integrate_box(density, config.box_length)
    band = max(abs(t.wave_index) for t in density.terms)
    coarse = quadrature_integrate(density, config.box_length, band + 1)
    fine = quadrature_integrate(density, config.box_length, 2 * (band + 1))
    # nothing is pruned: the monomials that integrate to 0 keep their rounding
    assert len(coarse.terms) == len(fine.terms) == len(density.terms) > len(symbolic.terms)
    assert coefficient_gap(symbolic, coarse) <= 1e-12
    assert coefficient_gap(symbolic, fine) <= 1e-12
    assert coefficient_gap(coarse, fine) <= 1e-12
    # a monomial missing from one side counts as 0 there
    assert coefficient_gap(symbolic, LadderPolynomial(())) == max(abs(t.coefficient) for t in symbolic.terms)


def test_quadrature_integrate_rejects_coarse_grid():
    config = default_config()
    density = interaction_density_polynomial(config)
    band = max(abs(t.wave_index) for t in density.terms)
    with pytest.raises(GridError):
        quadrature_integrate(density, config.box_length, band)
