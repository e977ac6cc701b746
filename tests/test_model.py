import math

import numpy as np
import pytest

from fockbox.errors import ConfigError, LayoutError
from fockbox.fockspace import LadderId
from fockbox.model import (
    ModelConfig,
    build_H,
    build_H0,
    build_layout,
    charge_operator,
    cubic_interaction_polynomial,
    default_config,
    field_algebra,
    interaction_density_polynomial,
    interaction_quadrature,
    load_config,
    parse_config,
    quartic_interaction_polynomial,
    shift_profiles,
)
from fockbox import ladderalg, model
from fockbox.probe import SweepSpec, run_sweep

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
    config = default_config().with_cutoff(200)
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
    ],
)
def test_parse_config_rejects(mutation):
    old, new = mutation
    with pytest.raises(ConfigError):
        parse_config(GOOD_CONFIG.replace(old, new))


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
    config = default_config().with_cutoff(3)
    layout = build_layout(config)
    h0 = build_H0(config, layout).to_dense()
    occ = layout.occupations()
    expected = config.omega_k * occ[:, 0] + config.energy_q * (occ[:, 1] + occ[:, 2])
    np.testing.assert_allclose(np.diag(h0).real, expected, rtol=1e-14)
    assert np.count_nonzero(h0 - np.diag(np.diag(h0))) == 0


def test_zero_couplings_reduce_to_free_hamiltonian():
    config = ModelConfig(lambda1=0.0, lambda2=0.0, cutoff_default=4)
    layout = build_layout(config)
    diff = build_H(config, layout) - build_H0(config, layout)
    assert diff.max_abs() == 0.0


def test_hamiltonian_hermitian_and_annihilates_vacuum_offset():
    config = default_config().with_cutoff(5)
    layout = build_layout(config)
    h = build_H(config, layout)
    assert h.hermiticity_residual() <= 1e-12
    # normal ordering leaves no vacuum energy
    assert abs(h.to_dense()[0, 0]) <= 1e-14


# The README's two-mode example: ladders a2, a3, b1, d1, 97,104 states.
README_TWO_MODE = ModelConfig(neutral_modes=(2, 3), cutoff_overrides={LadderId("a", 2): 20, LadderId("b", 1): 15})


@pytest.mark.parametrize("config", [default_config(), README_TWO_MODE], ids=["default", "two_mode"])
def test_cached_hamiltonian_is_bitwise_a_fresh_build(config):
    layout = build_layout(config)
    cached = build_H(config, layout).matrix
    fresh = model._build_H.__wrapped__(config, layout).matrix
    assert build_H(config).matrix is cached
    for name in ("data", "indices", "indptr"):
        a, b = getattr(cached, name), getattr(fresh, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_cached_hamiltonian_is_read_only():
    h = build_H(default_config()).matrix
    for array in (h.data, h.indices, h.indptr):
        with pytest.raises(ValueError):
            array[0] = array[0]


def test_run_sweep_is_identical_on_cold_and_warm_hamiltonian_cache():
    config = default_config()
    layout = build_layout(config)
    spec = SweepSpec((-0.5, 0.0, 0.25, 0.5), -0.5, "one_b")
    model._build_H.cache_clear()
    cold = run_sweep(config, spec, layout)
    assert model._build_H.cache_info().misses == 1
    assert run_sweep(config, spec, layout) == cold
    assert model._build_H.cache_info().misses == 1


def test_charge_commutes_with_hamiltonian():
    config = default_config().with_cutoff(5)
    layout = build_layout(config)
    h = build_H(config, layout)
    q = charge_operator(config, layout)
    assert (h @ q - q @ h).max_abs() <= 1e-10
    vec = np.diag(q.to_dense()).real
    occ = layout.occupations()
    np.testing.assert_allclose(vec, occ[:, 1] - occ[:, 2], atol=0)


def test_interaction_polynomials_momentum_conserving():
    config = default_config()
    for poly in (cubic_interaction_polynomial(config), quartic_interaction_polynomial(config)):
        assert not poly.is_zero()
        assert all(t.wave_index == 0 for t in poly.terms)


def test_cubic_interaction_vanishes_unless_k_is_2q():
    config = ModelConfig(neutral_modes=(3,), k_index=3, cutoff_default=4)
    assert cubic_interaction_polynomial(config).is_zero()


def test_interaction_quadrature_matches_symbolic():
    config = parse_config(GOOD_CONFIG).with_cutoff(3)
    layout = build_layout(config)
    symbolic = ladderalg.realize(
        ladderalg.integrate_box(interaction_density_polynomial(config), config.box_length), layout
    )
    quad = interaction_quadrature(config, layout)
    assert (symbolic - quad).max_abs() <= 1e-12


def test_field_algebra_bundle():
    config = parse_config(GOOD_CONFIG)
    fa = field_algebra(config)
    assert field_algebra(parse_config(GOOD_CONFIG)) is fa
    assert fa.ordered_powers[0] == ladderalg.constant(1.0)
    assert len(fa.ordered_powers) == 5
    assert interaction_density_polynomial(config) == (
        config.lambda1 * fa.cubic + config.lambda2 * fa.ordered_powers[4]
    )


def test_field_algebra_rejects_a_box_whose_quartic_terms_would_be_pruned():
    # unit masses: the fourth power of 1 / sqrt(2 L) reaches PRUNE_TOL at L = 5e6
    fa = field_algebra(ModelConfig(box_length=4.9e6))
    assert [len(p.terms) for p in fa.ordered_powers] == [1, 2, 3, 4, 5]
    with pytest.raises(ConfigError, match="pruning tolerance"):
        field_algebra(ModelConfig(box_length=5e6))
