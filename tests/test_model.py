import math

import numpy as np
import pytest

from fockbox.displace import DisplacementParams, displaced_amplitudes
from fockbox.errors import ConfigError, LayoutError
from fockbox.fockspace import LadderId, expectation, max_admissible_amplitude, vacuum
from fockbox.ladderalg import LadderMonomial, LadderPolynomial, LadderSymbol
from fockbox.model import (
    CUTOFF_CAP,
    ModelConfig,
    build_H,
    build_layout,
    charge,
    cubic_interaction_polynomial,
    default_config,
    field_algebra,
    hamiltonian_polynomial,
    interaction_density_polynomial,
    interaction_quadrature,
    load_config,
    parse_config,
    quartic_interaction_polynomial,
    shift_profiles,
)
from fockbox import fockspace, ladderalg
from fockbox.probe import SweepSpec, direct_check_limit, run_sweep
from test_fockspace import dense, row_major_occupations

GOOD_CONFIG = """
# example model file
box_length = 6.283185307179586
mass_neutral = 1.0
mass_charged = 1.0
lambda1 = 1.0
lambda2 = 0.5
neutral_modes = 2, 3
charged_modes = 1
q_index = 1
k_index = 2
cutoff_default = 6
cutoff_overrides = a2=8, b1=5
"""


def test_default_config_frozen_energies():
    config = default_config()
    assert config.box_length == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert config.omega_k == pytest.approx(math.sqrt(5.0), rel=1e-15)
    assert config.energy_q == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert config.momentum(config.k_index) == pytest.approx(2.0, rel=1e-15)
    assert config.ladders() == (LadderId("a", 2), LadderId("b", 1), LadderId("d", 1))


def test_ladder_order_families_then_modes():
    config = ModelConfig(neutral_modes=(3, 1), charged_modes=(2, 1), q_index=1, k_index=1, cutoff_default=2)
    assert config.ladders() == (
        LadderId("a", 1),
        LadderId("a", 3),
        LadderId("b", 1),
        LadderId("b", 2),
        LadderId("d", 1),
        LadderId("d", 2),
    )


# q and k are not the first modes of their fields, and d_q has its own cutoff.
OFF_FIRST_MODES = ModelConfig(
    neutral_modes=(2, 4), charged_modes=(1, 2), q_index=2, k_index=4, cutoff_overrides={LadderId("d", 2): 9}
)


def test_displaced_ladders_are_b_q_d_q_then_a_k():
    b2, d2, a4 = LadderId("b", 2), LadderId("d", 2), LadderId("a", 4)
    config = OFF_FIRST_MODES
    assert config.displaced_ladders() == ((b2, 0), (d2, 0), (a4, 1))
    assert list(displaced_amplitudes(config, DisplacementParams(0.25, -0.5)).items()) == [
        (b2, 0.25),
        (d2, 0.25),
        (a4, -0.5),
    ]
    # d2's override is the smallest cutoff among the displaced ladders
    limit = direct_check_limit(config, build_layout(config))
    assert limit == max_admissible_amplitude(9)
    assert limit < max_admissible_amplitude(config.cutoff_default)


def test_mode_sets_normalized():
    config = ModelConfig(neutral_modes=[2, 2], charged_modes=(1,), cutoff_default=2)
    assert config.neutral_modes == (2,)


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(box_length=0.0)
    with pytest.raises(ConfigError):
        ModelConfig(mass_neutral=-1.0)
    with pytest.raises(ConfigError):
        ModelConfig(lambda1=-0.5)
    with pytest.raises(ConfigError):
        ModelConfig(q_index=3)
    with pytest.raises(ConfigError):
        ModelConfig(k_index=5)
    with pytest.raises(ConfigError):
        ModelConfig(cutoff_default=0)
    with pytest.raises(ConfigError):
        ModelConfig(neutral_modes=())
    with pytest.raises(ConfigError):
        ModelConfig(cutoff_overrides={LadderId("a", 9): 4})
    with pytest.raises(ConfigError):
        ModelConfig(cutoff_overrides={LadderId("a", 2): 0})
    with pytest.raises(ConfigError):
        ModelConfig(neutral_modes=(0, 2), mass_neutral=0.0)
    with pytest.raises(ConfigError, match="underflows"):
        ModelConfig(box_length=1e-200, mass_neutral=1e-200, neutral_modes=(0,), k_index=0)
    for name in ("box_length", "mass_neutral", "mass_charged", "lambda1", "lambda2"):
        for value in (math.nan, math.inf):
            with pytest.raises(ConfigError):
                ModelConfig(**{name: value})


def test_build_layout_and_overrides():
    config = parse_config(GOOD_CONFIG)
    layout = build_layout(config)
    assert layout.ladders == (
        LadderId("a", 2),
        LadderId("a", 3),
        LadderId("b", 1),
        LadderId("d", 1),
    )
    assert layout.cutoffs == (8, 6, 5, 6)
    plain = config.with_cutoff(4)
    assert build_layout(plain).cutoffs == (4, 4, 4, 4)
    assert plain.cutoff_overrides == ()


def test_layout_dimension_cap():
    # each ladder's cutoff is bounded, not the joint dimension
    assert build_layout(default_config().with_cutoff(CUTOFF_CAP)).dimension == (CUTOFF_CAP + 1) ** 3
    for config in (
        default_config().with_cutoff(CUTOFF_CAP + 1),
        ModelConfig(cutoff_overrides={LadderId("a", 2): 6000}),
    ):
        with pytest.raises(LayoutError):
            build_layout(config)


def test_parse_config_roundtrip():
    config = parse_config(GOOD_CONFIG)
    assert config.lambda2 == 0.5
    assert config.neutral_modes == (2, 3)
    assert config.cutoff_for(LadderId("a", 2)) == 8
    assert config.cutoff_for(LadderId("d", 1)) == 6


@pytest.mark.parametrize(
    "mutation",
    [
        ("lambda2 = 0.5", "lambda2 = 0.5\nlambda2 = 1.0"),  # repeated key
        ("lambda2 = 0.5", "lambda_two = 0.5"),  # unknown key
        ("lambda2 = 0.5", ""),  # missing key
        ("lambda2 = 0.5", "lambda2 = abc"),  # bad numeric
        ("cutoff_overrides = a2=8, b1=5", "cutoff_overrides = a2"),  # bad override
        ("cutoff_overrides = a2=8, b1=5", "cutoff_overrides = z2=8"),  # bad ladder
        ("q_index = 1", "q_index = 2"),  # q not among charged modes
        ("k_index = 2", "k_index = 9"),  # k not among neutral modes
        ("lambda2 = 0.5", "lambda2 = nan"),  # non-finite coupling
        ("box_length = 6.283185307179586", "box_length = inf"),  # non-finite box
        ("mass_charged = 1.0", "mass_charged = inf"),  # non-finite mass
        ("cutoff_overrides = a2=8, b1=5", "cutoff_overrides = a2=8, b1=5, a2=7"),  # ladder overridden twice
    ],
)
def test_parse_config_rejects(mutation):
    old, new = mutation
    with pytest.raises(ConfigError):
        parse_config(GOOD_CONFIG.replace(old, new))


def test_missing_keys_are_named_in_field_order():
    keys = "box_length, mass_neutral, mass_charged, lambda1, lambda2, neutral_modes, charged_modes, q_index"
    with pytest.raises(ConfigError, match=f"^missing keys: {keys}, k_index, cutoff_default$"):
        parse_config("cutoff_overrides = a2=8\n")


def test_parse_config_requires_key_value_lines():
    with pytest.raises(ConfigError):
        parse_config("just some words\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")
    path = tmp_path / "model.cfg"
    path.write_text(GOOD_CONFIG, encoding="utf-8")
    assert load_config(path) == parse_config(GOOD_CONFIG)


def test_shift_profiles():
    config = default_config()
    n1, n2 = shift_profiles(config)
    L = config.box_length
    assert n1.amplitude == pytest.approx(2.0 / math.sqrt(2.0 * config.energy_q * L), rel=1e-14)
    assert n2.amplitude == pytest.approx(2.0 / math.sqrt(2.0 * config.omega_k * L), rel=1e-14)
    assert n1.wavenumber == pytest.approx(1.0, rel=1e-15)
    assert n2.wavenumber == pytest.approx(2.0, rel=1e-15)
    xs = np.linspace(-1.0, 1.0, 5)
    np.testing.assert_allclose(n2(xs), n2.amplitude * np.cos(2.0 * xs))


def test_free_hamiltonian_is_diagonal_number_sum():
    config = ModelConfig(lambda1=0.0, lambda2=0.0, cutoff_default=3)
    layout = build_layout(config)
    h0 = dense(build_H(config, layout))
    occ = row_major_occupations(layout)
    expected = config.omega_k * occ[:, 0] + config.energy_q * (occ[:, 1] + occ[:, 2])
    np.testing.assert_allclose(np.diag(h0).real, expected, rtol=1e-14)
    assert np.count_nonzero(h0 - np.diag(np.diag(h0))) == 0


def test_zero_couplings_reduce_to_free_hamiltonian():
    config = ModelConfig(lambda1=0.0, lambda2=0.0, neutral_modes=(2, 3), cutoff_default=4)
    free = [(LadderId("a", 2), config.omega(2)), (LadderId("a", 3), config.omega(3))]
    free += [(LadderId(f, 1), config.energy_q) for f in "bd"]
    assert hamiltonian_polynomial(config) == LadderPolynomial(
        tuple(LadderMonomial(e, (LadderSymbol(lad, True), LadderSymbol(lad, False))) for lad, e in free)
    )
    interacting = hamiltonian_polynomial(ModelConfig(neutral_modes=(2, 3), cutoff_default=4))
    assert interacting.terms[:4] == hamiltonian_polynomial(config).terms


def test_mode_energies_are_the_free_terms_of_H_in_order():
    config = ModelConfig(lambda1=0.0, lambda2=0.0, neutral_modes=(2, 3), charged_modes=(1, 2))
    a2, a3, b1, d1, b2, d2 = map(LadderId.parse, ("a2", "a3", "b1", "d1", "b2", "d2"))
    e1, e2 = config.charged_energy(1), config.charged_energy(2)
    energies = ((a2, config.omega(2)), (a3, config.omega(3)), (b1, e1), (d1, e1), (b2, e2), (d2, e2))
    assert config.mode_energies() == energies
    assert [(t.symbols[0].ladder, t.coefficient) for t in hamiltonian_polynomial(config).terms] == list(energies)


def test_hamiltonian_hermitian_and_annihilates_vacuum_offset():
    config = default_config().with_cutoff(5)
    layout = build_layout(config)
    h = build_H(config, layout)
    matrix = dense(h)
    assert np.max(np.abs(matrix - matrix.conj().T)) <= 1e-12
    poly = hamiltonian_polynomial(config)
    assert ladderalg.normal_order(ladderalg.adjoint(poly)) == ladderalg.normal_order(poly)
    # normal ordering leaves no vacuum energy
    assert abs(expectation(h, vacuum(layout))) <= 1e-14
    assert abs(matrix[0, 0]) <= 1e-14


# The README's two-mode example: ladders a2, a3, b1, d1, 97,104 states.
README_TWO_MODE = ModelConfig(neutral_modes=(2, 3), cutoff_overrides={LadderId("a", 2): 20, LadderId("b", 1): 15})


def hand_written_ladders(config):
    """The ladders written out family by family: the oracle for
    ModelConfig.ladders()."""
    return tuple(
        [LadderId("a", n) for n in config.neutral_modes]
        + [LadderId("b", n) for n in config.charged_modes]
        + [LadderId("d", n) for n in config.charged_modes]
    )


@pytest.mark.parametrize(
    "config",
    [
        default_config(),
        README_TWO_MODE,
        ModelConfig(neutral_modes=(1, 2, 3, 4), charged_modes=(1, 2, 3, 4)),
        ModelConfig(neutral_modes=(2, -2, -4), charged_modes=(1, -1, -3)),
    ],
    ids=["default", "two_mode", "twelve", "negative_modes"],
)
def test_ladders_are_the_sorted_ladders_of_the_mode_energies(config):
    assert config.ladders() == hand_written_ladders(config)
    assert set(config.ladders()) == {lad for lad, _ in config.mode_energies()}
    assert len(config.ladders()) == len(config.mode_energies())


@pytest.mark.parametrize("config", [default_config(), README_TWO_MODE], ids=["default", "two_mode"])
def test_cached_hamiltonian_is_bitwise_a_fresh_build(config):
    # build_H reads its words from the word-weights cache
    layout = build_layout(config)
    cached = build_H(config, layout)
    fockspace.word_weights.cache_clear()
    fresh = build_H(config, layout)
    assert cached.terms == fresh.terms
    assert len(cached.words) == len(fresh.words) == len(layout.ladders)
    for a, b in zip(cached.words, fresh.words):
        assert [shift for shift, _ in a] == [shift for shift, _ in b]
        assert all(x.tobytes() == y.tobytes() for (_, x), (_, y) in zip(a, b))
    # one word list per ladder, the empty word first
    assert all(words[0][0] == 0 and np.array_equal(words[0][1], np.ones(dim)) for words, dim in zip(cached.words, layout.dims))


def test_cached_hamiltonian_is_read_only():
    config = default_config()
    h = build_H(config, build_layout(config))
    for words in h.words:
        for _, weights in words:
            with pytest.raises(ValueError):
                weights[0] = weights[0]


def test_run_sweep_is_identical_on_cold_and_warm_hamiltonian_cache():
    config = default_config()
    layout = build_layout(config)
    spec = SweepSpec((-0.5, 0.0, 0.25, 0.5), -0.5, "one_b")
    fockspace.word_weights.cache_clear()
    cold = run_sweep(config, spec, layout)
    misses = fockspace.word_weights.cache_info().misses
    assert run_sweep(config, spec, layout) == cold
    assert fockspace.word_weights.cache_info().misses == misses


def test_charge_commutes_with_hamiltonian():
    config = default_config().with_cutoff(5)
    layout = build_layout(config)
    # every monomial of H conserves charge ...
    assert all(charge(t) == 0 for t in hamiltonian_polynomial(config).terms)
    # ... so H commutes with the charge sum_p (b+_p b_p - d+_p d_p)
    occ = row_major_occupations(layout)
    q = np.diag(occ[:, 1] - occ[:, 2]).astype(complex)
    h = dense(build_H(config, layout))
    assert np.max(np.abs(h @ q - q @ h)) <= 1e-10
    assert np.max(np.abs(h)) > 0.1


def test_charge_counts_raised_b_and_lowered_d():
    b, d, a = LadderId("b", 1), LadderId("d", 1), LadderId("a", 2)

    def monomial(*symbols):
        return LadderMonomial(1.0, tuple(LadderSymbol(lad, dagger) for lad, dagger in symbols))

    assert charge(monomial((b, True), (d, False), (a, True))) == 2
    assert charge(monomial((b, False), (d, True))) == -2
    assert charge(monomial((b, True), (d, True), (a, False))) == 0
    assert charge(monomial((b, True), (b, False))) == 0


def test_interaction_polynomials_momentum_conserving():
    config = default_config()
    for poly in (cubic_interaction_polynomial(config), quartic_interaction_polynomial(config)):
        assert poly.terms
        assert all(t.wave_index == 0 for t in poly.terms)


def test_cubic_interaction_vanishes_unless_k_is_2q():
    config = ModelConfig(neutral_modes=(3,), k_index=3, cutoff_default=4)
    assert not cubic_interaction_polynomial(config).terms


def test_interaction_quadrature_matches_symbolic():
    config = parse_config(GOOD_CONFIG)
    symbolic = ladderalg.integrate_box(interaction_density_polynomial(config), config.box_length)
    assert ladderalg.coefficient_gap(symbolic, interaction_quadrature(config)) <= 1e-12


def test_field_algebra_bundle():
    config = parse_config(GOOD_CONFIG)
    fa = field_algebra(config)
    assert field_algebra(parse_config(GOOD_CONFIG)) is fa
    assert fa.ordered_powers[0] == ladderalg.constant(1.0)
    assert len(fa.ordered_powers) == 5
    assert fa.powers == ladderalg.powers(fa.phihat, 4)
    assert fa.ordered_powers == tuple(map(ladderalg.normal_order, fa.powers))
    assert fa.phi_dag == ladderalg.adjoint(fa.phi)
    assert interaction_density_polynomial(config) == (
        config.lambda1 * fa.cubic + config.lambda2 * fa.ordered_powers[4]
    )


def test_field_algebra_rejects_a_box_whose_quartic_terms_would_be_pruned():
    # unit masses: the fourth power of 1 / sqrt(2 L) reaches PRUNE_TOL at L = 5e6
    fa = field_algebra(ModelConfig(box_length=4.9e6))
    assert [len(p.terms) for p in fa.ordered_powers] == [1, 2, 3, 4, 5]
    with pytest.raises(ConfigError, match="pruning tolerance"):
        field_algebra(ModelConfig(box_length=5e6))
