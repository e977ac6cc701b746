import functools
import itertools
import math

import numpy as np
import pytest

import fockbox.displace as displace
import fockbox.fockspace as fockspace
from fockbox.errors import LayoutError, LeakageError
from fockbox.fockspace import (
    FockLayout,
    LadderId,
    StateVector,
    basis_state,
    displacement_block,
    expectation,
    max_admissible_amplitude,
    vacuum,
)
from fockbox.displace import (
    WORK_TAIL_BOUND,
    X_SAMPLE_COUNT,
    DisplacementParams,
    InterchangeChecker,
    ResidualCheck,
    check_composition,
    check_field_shift,
    check_free_hamiltonian_shift,
    check_ladder_shifts,
    check_unitarity,
    displaced_amplitudes,
    displacement,
    require_admissible,
    work_frame_size,
)
from fockbox.ladderalg import box_points, constant, realize
from fockbox.model import ShiftProfile, default_config, build_layout, field_algebra, parse_config, shift_profiles
from fockbox.probe import run_verification
from test_fockspace import chain, dense_state, row_major_occupations
from test_model import README_TWO_MODE
from conftest import clear_package_caches

A2 = LadderId("a", 2)
B1 = LadderId("b", 1)
D1 = LadderId("d", 1)

GRID_POINTS = [
    DisplacementParams(0.25, -1.0),
    DisplacementParams(-0.5, 0.5),
    DisplacementParams(1.0, 1.0),
    DisplacementParams(0.0, 0.25),
]


def test_displaced_amplitudes_mapping():
    config = default_config()
    amps = displaced_amplitudes(config, DisplacementParams(0.3, -0.7))
    assert amps == {B1: 0.3, D1: 0.3, A2: -0.7}


@pytest.mark.parametrize("params", [DisplacementParams(8.0, 8.0), DisplacementParams(10.0, 10.0)])
def test_amplitudes_past_the_poisson_peak_leak(params):
    # f^2 > 16: the cutoff-16 tail falls again there, yet the ladders overflow
    config = default_config()
    layout = build_layout(config)
    for check in (check_ladder_shifts, check_free_hamiltonian_shift, check_field_shift):
        with pytest.raises(LeakageError):
            check(config, params, layout)
    with pytest.raises(LeakageError):
        InterchangeChecker(config, layout).run(params)


def test_require_admissible():
    config = default_config()
    layout = build_layout(config)
    require_admissible(config, DisplacementParams(1.0, 1.0), layout)
    tight = build_layout(config.with_cutoff(4))
    with pytest.raises(LeakageError) as err:
        require_admissible(config, DisplacementParams(1.0, 0.0), tight)
    assert "b1" in str(err.value)
    # f2 = 0 never leaks regardless of cutoff
    require_admissible(config, DisplacementParams(0.0, 0.0), tight)


def kron_factors(layout, factors) -> np.ndarray:
    """Dense U from per-ladder factors: their Kronecker product in layout
    order, identity on absent ladders."""
    blocks = [factors.get(lad, np.eye(dim)) for lad, dim in zip(layout.ladders, layout.dims)]
    return functools.reduce(np.kron, blocks)


def test_displacement_is_unitary_and_factorizes():
    config = default_config().with_cutoff(6)
    layout = build_layout(config)
    params = DisplacementParams(0.4, -0.3)
    disp = displacement(config, params, layout)
    u = kron_factors(layout, disp.factors)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(layout.dimension), atol=1e-13)
    charged = kron_factors(layout, {l: f for l, f in disp.factors.items() if l.family in ("b", "d")})
    neutral = kron_factors(layout, {l: f for l, f in disp.factors.items() if l.family == "a"})
    np.testing.assert_allclose(charged @ neutral, u, atol=1e-13)
    np.testing.assert_allclose(neutral @ charged, u, atol=1e-13)
    # apply is that product: its columns on the basis states are U's
    columns = np.column_stack([dense_state(disp.apply(basis_state(layout, n))) for n in row_major_occupations(layout)])
    np.testing.assert_allclose(columns, u, rtol=0.0, atol=1e-15)


def test_zero_displacement_is_identity():
    config = default_config().with_cutoff(4)
    layout = build_layout(config)
    disp = displacement(config, DisplacementParams(0.0, 0.0), layout)
    assert disp.factors == {}
    state = basis_state(layout, {B1: 2})
    out = disp.apply(state)
    np.testing.assert_array_equal(out.amplitudes, state.amplitudes)
    assert all(a is b for a, b in zip(out.ladders, state.ladders))
    assert np.array_equal(kron_factors(layout, disp.factors), np.eye(layout.dimension))


def test_apply_matches_materialized_operator():
    config = default_config().with_cutoff(5)
    layout = build_layout(config)
    params = DisplacementParams(0.2, 0.6)
    disp = displacement(config, params, layout)
    rng = np.random.default_rng(3)
    terms = 3
    state = StateVector(
        layout,
        rng.normal(size=terms) + 1j * rng.normal(size=terms),
        tuple((np.arange(terms), rng.normal(size=(dim, terms)) + 1j * rng.normal(size=(dim, terms))) for dim in layout.dims),
    )
    via_apply = dense_state(disp.apply(state))
    via_matrix = kron_factors(layout, disp.factors) @ dense_state(state)
    np.testing.assert_allclose(via_apply, via_matrix, atol=1e-13)
    np.testing.assert_allclose(
        dense_state(displacement(config, params, state.layout).apply(state)), via_matrix, atol=1e-13
    )


def test_displaced_vacuum_is_poisson_product():
    config = default_config()
    layout = build_layout(config)
    f1, f2 = 0.5, 0.8
    out = displacement(config, DisplacementParams(f1, f2), layout).apply(vacuum(layout))
    tensor = dense_state(out).reshape(layout.dims)

    def poisson(f, dim):
        return np.array([math.exp(-0.5 * f * f) * f ** n / math.sqrt(math.factorial(n)) for n in range(dim)])

    expected = np.einsum(
        "i,j,k->ijk", poisson(f2, 17), poisson(f1, 17), poisson(f1, 17)
    )
    # the hard cutoff perturbs the top levels at the sqrt(Poisson tail) scale,
    # so the full tensor is loose while the low-occupation window is sharp
    np.testing.assert_allclose(tensor, expected, atol=1e-8)
    np.testing.assert_allclose(tensor[:11, :11, :11], expected[:11, :11, :11], atol=1e-12)


def test_apply_keeps_the_norm_on_a_large_layout():
    # 1001^3 states: the product form never builds the joint space
    config = default_config().with_cutoff(1000)
    layout = build_layout(config)
    disp = displacement(config, DisplacementParams(1.0, 1.0), layout)
    out = disp.apply(vacuum(layout))
    assert expectation(realize(constant(1.0), layout), out) == pytest.approx(1.0, abs=1e-12)


def test_apply_rejects_foreign_layout():
    config = default_config()
    disp = displacement(config, DisplacementParams(0.1, 0.1))
    other = build_layout(config.with_cutoff(4))
    with pytest.raises(LayoutError):
        disp.apply(vacuum(other))


def test_residual_check_pass_boundary():
    check = ResidualCheck("x", None, None, 1e-8, 1e-8)
    assert check.passed
    assert not ResidualCheck("x", None, None, 1.0000001e-8, 1e-8).passed


@pytest.mark.parametrize("cutoff", [1, 16, 64])
def test_work_frame_size_bounds_the_top_window_column_tail(cutoff):
    # the top window column reaches furthest; its weight past the frame, at
    # the largest admissible amplitude, is read on a frame three times larger
    window = cutoff // 2 + 1
    dim = work_frame_size(cutoff)
    amplitude = max_admissible_amplitude(cutoff)
    top = displacement_block(3 * dim, amplitude)[:, window - 1]
    assert np.sum(top[dim:] ** 2) < WORK_TAIL_BOUND
    # and the size is the smallest: one level less than the size the bound
    # sets, before the band margin, leaves more than the bound past it
    assert np.sum(top[dim - displace.WORK_BAND_MARGIN - 1 :] ** 2) >= WORK_TAIL_BOUND
    assert (work_frame_size(16), work_frame_size(64)) == (41, 159)


def test_ladder_shift_names_and_zero_amplitude_rows():
    config = default_config()
    layout = build_layout(config)
    checks = check_ladder_shifts(config, DisplacementParams(0.0, 0.0), layout)
    names = [c.name for c in checks]
    assert names == [
        "ladder_shift[a2]",
        "ladder_shift[a2_dag]",
        "ladder_shift[b1]",
        "ladder_shift[b1_dag]",
        "ladder_shift[d1]",
        "ladder_shift[d1_dag]",
    ]
    assert all(c.residual == 0.0 for c in checks)


@pytest.mark.parametrize("params", GRID_POINTS)
def test_ladder_shifts_at_noise_floor(params):
    config = default_config()
    layout = build_layout(config)
    for c in check_ladder_shifts(config, params, layout):
        assert c.residual <= 1e-12, c


@pytest.mark.parametrize("params", GRID_POINTS)
def test_free_hamiltonian_shift(params):
    config = default_config()
    layout = build_layout(config)
    checks = check_free_hamiltonian_shift(config, params, layout)
    by_name = {c.name: c for c in checks}
    assert set(by_name) == {
        "free_shift[neutral]",
        "free_shift[charged]",
        "free_shift_vacuum[neutral]",
        "free_shift_vacuum[charged]",
    }
    for c in checks:
        assert c.residual <= 1e-12, c


def test_free_shift_rejects_leaky_amplitude():
    config = default_config()
    layout = build_layout(config.with_cutoff(6))
    with pytest.raises(LeakageError):
        check_free_hamiltonian_shift(config, DisplacementParams(1.0, 0.0), layout)


@pytest.mark.parametrize("params", GRID_POINTS)
def test_field_shift(params):
    config = default_config()
    layout = build_layout(config)
    checks = check_field_shift(config, params, layout)
    assert len(checks) == 3 * 8  # three field kinds at eight x samples
    for c in checks:
        assert c.residual <= 1e-12, c


@pytest.mark.parametrize("cutoff", [16, 64])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_windowed_conjugation_is_the_window_of_the_full_one(cutoff, sign):
    config = default_config().with_cutoff(cutoff)
    amplitude = sign * max_admissible_amplitude(cutoff)
    layout = build_layout(config)
    amplitudes = require_admissible(config, DisplacementParams(amplitude, amplitude), layout)
    m, dim = displace._window(cutoff), work_frame_size(cutoff)
    assert m == cutoff // 2 + 1 and dim > m
    for lad in (A2, B1):
        assert amplitudes[lad] == amplitude and layout.cutoff(lad) == cutoff
        u = displacement_block(dim - 1, amplitude)
        for word in ((False,), (True,), (True, False), (True, False, True, False)):
            block = chain(dim - 1, word)
            full = (u.T @ block @ u)[:m, :m]
            _, windowed, _ = displace._frame_gap(cutoff, amplitude, word)
            assert windowed.shape == (m, m)
            # the two differ only in the order of their roundings
            tol = 16 * np.finfo(np.float64).eps * np.max(np.abs(full))
            assert np.max(np.abs(windowed - full)) <= tol, (cutoff, amplitude, lad, word)


def test_shift_layers_expand_the_shifted_word_on_the_window():
    # a word that raises before it lowers reaches past the window, so every
    # sub-word is formed on WORK_BAND_MARGIN more levels than the window
    window, f = 5, -0.7
    dim = window + displace.WORK_BAND_MARGIN
    eye = np.eye(dim)
    for length in range(5):
        for daggers in itertools.product((False, True), repeat=length):
            layers = displace._shift_layers(window, daggers)
            assert len(layers) == length + 1
            assert layers[0].tobytes() == chain(dim - 1, daggers)[:window, :window].tobytes(), daggers
            steps = [chain(dim - 1, (dagger,)) for dagger in daggers]
            shifted = functools.reduce(np.matmul, [step + f * eye for step in steps], eye)[:window, :window]
            size = functools.reduce(np.matmul, [step + abs(f) * eye for step in steps], eye)[:window, :window]
            got = sum(f**k * layer for k, layer in enumerate(layers))
            assert np.all(np.abs(got - shifted) <= 16 * np.finfo(np.float64).eps * size), daggers


@pytest.mark.parametrize("cutoff", [16, 64])
@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_the_frame_gap_at_amplitude_zero_is_exactly_zero(cutoff, zero):
    # U(0) is the exact identity, so its conjugation of a word is the word's
    # own window, e_0 of _shift_layers, bit for bit
    window = displace._window(cutoff)
    displace._frame_gap.cache_clear()
    displace._frame_maxima.cache_clear()
    for length in range(5):
        for daggers in itertools.product((False, True), repeat=length):
            gap, c, (gap_max, off_max, diag) = displace._frame_gap(cutoff, zero, daggers)
            layer = displace._shift_layers(window, daggers)[0]
            assert c.tobytes() == layer.tobytes(), daggers
            assert not np.any(gap) and gap_max == off_max == 0.0 and not np.any(diag)
            e_max, gap_max, c_max = displace._frame_maxima(cutoff, zero, daggers)
            assert gap_max == 0.0
            assert e_max == c_max == float(np.max(np.abs(layer)))


@pytest.mark.parametrize("cutoff", [1, 16, 64])
def test_frame_gap_summary_and_maxima_read_the_gap(cutoff):
    # the summary and the interchange's maxima are the maxima of the blocks
    # the memo holds; e is formed from _shift_layers as the gap subtracts it
    window = displace._window(cutoff)
    amplitude = -0.75 * max_admissible_amplitude(cutoff)
    for daggers in ((False,), (True,), (True, False), (False, True, True)):
        gap, c, (gap_max, off_max, diag) = displace._frame_gap(cutoff, amplitude, daggers)
        off = np.abs(gap - np.diag(np.diag(gap)))
        assert gap_max == float(np.max(np.abs(gap))) and off_max == float(np.max(off))
        assert diag.tobytes() == np.diag(gap).tobytes() and not diag.flags.writeable
        e = sum(amplitude**k * layer for k, layer in enumerate(displace._shift_layers(window, daggers)))
        assert displace._frame_maxima(cutoff, amplitude, daggers) == (
            float(np.max(np.abs(e))),
            gap_max,
            float(np.max(np.abs(c))),
        )


def _window_sum_max_per_sample(blocks, scalar):
    """The unbatched form: one sample's (m_l, m_l) window blocks and scalar."""
    off_max = 0.0
    diag_total = np.array([scalar], dtype=np.complex128)
    for block in blocks.values():
        if not np.any(block):
            continue
        off = block - np.diag(np.diag(block))
        off_max = max(off_max, float(np.max(np.abs(off))))
        diag_total = np.add.outer(diag_total, np.diag(block)).ravel()
    return max(off_max, float(np.max(np.abs(diag_total))))


def test_batched_window_sum_max_equals_the_per_sample_loop():
    # Diagonal-heavy blocks put every maximum on a three-term diagonal sum,
    # whose rounding depends on the order of the additions.  b1's stack is
    # one real gap times a phase per sample, summarized without forming it;
    # a zero block adds nothing, summarized or skipped.
    rng = np.random.default_rng(11)
    batch = 16
    gap = rng.normal(size=(4, 4)) + np.diag(rng.uniform(1.0, 1e3, size=4))
    kappa = rng.normal(size=batch) + 1j * rng.normal(size=batch)
    blocks = {
        A2: rng.normal(size=(batch, 9, 9)) + 1j * rng.normal(size=(batch, 9, 9)),
        B1: kappa[:, None, None] * gap,
        D1: rng.normal(size=(batch, 5, 5)),
    }
    for lad in (A2, D1):
        blocks[lad] += np.eye(blocks[lad].shape[1]) * rng.uniform(1.0, 1e3, size=(batch, 1, 1))
    blocks[LadderId("a", 3)] = np.zeros((batch, 6, 6))
    scalars = rng.normal(size=batch) * 1e-3
    summaries = [displace._stack_summary(block) for block in blocks.values()]
    summaries[1] = displace._scaled_summary(kappa, displace._gap_summary(gap))
    for given in (summaries, summaries[:3]):
        batched = displace._window_sum_max(given, scalars)
        assert batched.shape == (batch,)
        for b in range(batch):
            single = _window_sum_max_per_sample({lad: block[b] for lad, block in blocks.items()}, scalars[b])
            assert batched[b] == single


def test_window_sum_max_keeps_a_nan():
    block = np.zeros((2, 3, 3))
    block[1, 0, 0] = np.nan
    block[:, 0, 1] = 1.0
    out = displace._window_sum_max([displace._stack_summary(block)], np.zeros(2))
    assert out[0] == 1.0 and math.isnan(out[1])
    # a gap with a NaN on or off its diagonal, scaled per sample
    for row, column in ((0, 0), (2, 1)):
        gap = np.eye(3)
        gap[row, column] = np.nan
        summary = displace._scaled_summary(np.array([1.0, 1j]), displace._gap_summary(gap))
        assert np.all(np.isnan(displace._window_sum_max([summary], np.zeros(2))))


_LIMIT_64 = max_admissible_amplitude(64)
# (cutoff of the built-in config, or the two-mode config, params): the
# four cutoff-64 corners; on the two-mode config displaced b1, d1 and a2
# of cutoffs 15, 16 and 20, whose windows have three sizes; and cutoff 1,
# whose 1 x 1 windows have no off-diagonal entries
ORACLE_CASES = [
    (16, DisplacementParams(1.0, -1.0)),
    (16, DisplacementParams(0.0, 0.5)),
    (64, DisplacementParams(-4.5, 3.0)),
    *[(64, DisplacementParams(s1 * _LIMIT_64, s2 * _LIMIT_64)) for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)],
    ("two_mode", DisplacementParams(1.0, -1.0)),
    ("two_mode", DisplacementParams(max_admissible_amplitude(15), -max_admissible_amplitude(20))),
    (1, DisplacementParams(max_admissible_amplitude(1), -max_admissible_amplitude(1))),
]


def _oracle_config(cutoff):
    return README_TWO_MODE if cutoff == "two_mode" else default_config().with_cutoff(cutoff)


def _dense_gap(layout, amplitudes, lad, daggers):
    """U+ word U minus its shift on lad's window, for a one-symbol word or
    a+ a, formed on lad's work frame from U's window columns and explicit
    blocks: word - f for a or a+, a+ a - f (a+ + a) - f^2 for a+ a."""
    f = amplitudes.get(lad, 0.0)
    m, dim = displace._window(layout.cutoff(lad)), work_frame_size(layout.cutoff(lad))
    block = chain(dim - 1, daggers)
    v = np.eye(dim)[:, :m] if f == 0.0 else displacement_block(dim - 1, f, m)
    gap = v.T @ (block @ v) - block[:m, :m]
    if len(daggers) == 1:
        return gap - f * np.eye(m)
    hops = chain(dim - 1, (True,)) + chain(dim - 1, (False,))
    return (gap - f * hops[:m, :m]) - f**2 * np.eye(m)


@pytest.mark.parametrize("cutoff, params", ORACLE_CASES)
def test_field_shift_equals_the_per_x_loop(cutoff, params):
    config = _oracle_config(cutoff)
    layout = build_layout(config)
    amplitudes = displaced_amplitudes(config, params)
    xs = box_points(config.box_length, X_SAMPLE_COUNT)
    n1, n2 = shift_profiles(config)
    fa = field_algebra(config)
    expected = []
    for poly, shift_of_x in (
        (fa.phihat, lambda x: params.f2 * n2(x)),
        (fa.phi, lambda x: params.f1 * n1(x)),
        (fa.phi_dag, lambda x: params.f1 * n1(x)),
    ):
        for x in xs:
            # each ladder's block carries U+ x U - x - f, so the scalar adds
            # the amplitudes back and subtracts the closed-form profile
            blocks, scalar = {}, 0.0
            for t in poly.terms:
                (sym,) = t.symbols
                gap = _dense_gap(layout, amplitudes, sym.ladder, (sym.dagger,))
                kappa = t.coefficient * t.phase(x, config.box_length)
                blocks[sym.ladder] = blocks[sym.ladder] + kappa * gap if sym.ladder in blocks else kappa * gap
                scalar = scalar + kappa * amplitudes.get(sym.ladder, 0.0)
            expected.append(_window_sum_max_per_sample(blocks, scalar - shift_of_x(float(x))))
    assert [c.residual for c in check_field_shift(config, params, layout)] == expected


@pytest.mark.parametrize("cutoff, params", ORACLE_CASES)
def test_free_shift_equals_the_dense_window_norm(cutoff, params):
    # one sector's residual is the window norm of the sum of its ladders'
    # energy (U+ a+ a U - (a+ + f)(a + f))
    config = _oracle_config(cutoff)
    layout = build_layout(config)
    amplitudes = displaced_amplitudes(config, params)
    expected = []
    for neutral in (True, False):
        blocks = {
            lad: energy * _dense_gap(layout, amplitudes, lad, (True, False))
            for lad, energy in config.mode_energies()
            if (lad.family == "a") == neutral
        }
        expected.append(_window_sum_max_per_sample(blocks, 0.0))
    shifts = [c for c in check_free_hamiltonian_shift(config, params, layout) if c.name.startswith("free_shift[")]
    assert [c.name for c in shifts] == ["free_shift[neutral]", "free_shift[charged]"]
    assert [c.residual for c in shifts] == expected


def test_field_shift_fails_a_wrong_profile_amplitude(monkeypatch):
    # the gaps subtract each ladder's own amplitude, so only the scalar
    # compares with the closed-form profile; n2 ~ cos(2 x) vanishes at the
    # odd samples, where the wrong amplitude cannot show
    def scaled_profiles(config):
        n1, n2 = shift_profiles(config)
        return n1, ShiftProfile(1.001 * n2.amplitude, n2.wavenumber)

    monkeypatch.setattr(displace, "shift_profiles", scaled_profiles)
    checks = check_field_shift(default_config(), DisplacementParams(0.5, 0.5))
    assert {c.name for c in checks if not c.passed} == {f"field_shift[neutral][x{j}]" for j in (0, 2, 4, 6)}


@pytest.mark.parametrize("params", GRID_POINTS)
def test_interchange_residuals(params):
    config = default_config()
    checker = InterchangeChecker(config)
    checks = checker.run(params)
    assert len(checks) == 2 * 8
    for c in checks:
        assert c.residual <= 1e-12, c


def test_interchange_exact_zero_without_neutral_displacement():
    # with f2 = 0 the quartic sides are identical operators term by term and
    # every expansion coefficient is an exact float zero; the cubic bound
    # carries the rounding of the charged conjugations
    config = default_config()
    checker = InterchangeChecker(config)
    for params in (DisplacementParams(0.0, 0.0), DisplacementParams(0.5, 0.0)):
        checks = checker.run(params)
        assert all(c.residual == 0.0 for c in checks if "quartic" in c.name)
        assert all(c.residual <= 1e-14 for c in checks if "cubic" in c.name)


@pytest.mark.parametrize("params", GRID_POINTS)
def test_unitarity_and_composition(params):
    config = default_config()
    layout = build_layout(config)
    u_check = check_unitarity(config, params, layout)
    assert u_check.name == "unitarity"
    assert u_check.residual <= 1e-12
    c_check = check_composition(config, params, layout)
    assert c_check.name == "composition"
    assert c_check.residual <= 1e-12


def _old_factor_defects(config, params, layout):
    """unitarity and composition summed per ladder over the displacement's
    factors, each composed with a directly diagonalized block at -f."""
    unitarity = composition = 0.0
    forward = displacement(config, params, layout)
    for lad, u in forward.factors.items():
        f = displaced_amplitudes(config, params)[lad]
        v = fockspace._displacement_block.__wrapped__(u.shape[0], -f, u.shape[0])
        eye = np.eye(u.shape[0])
        unitarity += float(np.max(np.abs(u.conj().T @ u - eye)))
        composition += float(np.max(np.abs(u @ v - eye)))
    return unitarity, composition


def test_unitarity_and_composition_are_bitwise_the_per_ladder_products():
    cases = [(16, params) for params in GRID_POINTS]
    limit = max_admissible_amplitude(64)
    cases += [(64, DisplacementParams(s1 * limit, s2 * limit)) for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)]
    rng = np.random.default_rng(23)
    cases += [(64, DisplacementParams(*map(float, rng.uniform(-limit, limit, 2)))) for _ in range(20)]
    for cutoff, params in cases:
        config = default_config().with_cutoff(cutoff)
        layout = build_layout(config)
        residuals = check_unitarity(config, params, layout).residual, check_composition(config, params, layout).residual
        assert residuals == _old_factor_defects(config, params, layout), (cutoff, params)


def test_composition_fails_a_provider_without_the_parity_image(monkeypatch, fresh_frames):
    # U(|f|) U(|f|) = U(2 |f|) is not the identity
    monkeypatch.setattr(
        displace, "displacement_block", lambda cutoff, f, columns=None: displacement_block(cutoff, abs(f), columns)
    )
    params = DisplacementParams(0.5, -0.25)
    assert check_unitarity(default_config(), params).passed
    assert not check_composition(default_config(), params).passed


def _frame_block(cutoff, amplitude, symbols, conjugated):
    """Windowed ordered product of one ladder's symbols on its work frame;
    a ladder without symbols carries the identity, conjugated or not.  The
    conjugation runs on the full frame, independent of _frame_gap."""
    window, dim = displace._window(cutoff), work_frame_size(cutoff)
    if not symbols:
        return np.eye(window)
    mat = chain(dim - 1, [s.dagger for s in symbols])
    if conjugated and amplitude != 0.0:
        u = displacement_block(dim - 1, amplitude)
        mat = u.T @ mat @ u
    return mat[:window, :window]


def _identities(config):
    """(name, left-hand side, expansion) of each interchange identity; the
    expansion lists (polynomial, weight, power of f1 n1, power of f2 n2)."""
    fa = field_algebra(config)
    powers = fa.ordered_powers
    return [
        ("quartic", powers[4], [(powers[j], math.comb(4, j), 0, 4 - j) for j in range(5)]),
        (
            "cubic",
            fa.cubic,
            [
                (fa.cubic, 1, 0, 0),
                (fa.charged_sum_neutral, 1, 1, 0),
                (fa.phihat, 1, 2, 0),
                (fa.density, 1, 0, 1),
                (fa.charged_sum, 1, 1, 1),
                (powers[0], 1, 2, 1),
            ],
        ),
    ]


def dense_interchange_residuals(config, params):
    """Every interchange residual from the full dense window.

    The left-hand side conjugates each monomial on the work frames, the
    expansion multiplies plain frame blocks, and each side is summed on its
    own before the two are subtracted.  The sums run in extended precision,
    so the result is the residual of the float64 blocks and coefficients,
    not of this function's own rounding.  Terms sharing a last-ladder block
    are summed on the leading ladders first; the window, in the layout
    (leading row, leading column) x (last row, last column), is then one
    product of those sums with the stacked last-ladder blocks, formed 4096
    leading entries at a time.

    Returns the residuals and, for each, the floor of this evaluation's own
    rounding: extended-precision epsilon times the number of terms and
    groups times the largest entry the terms could sum to.  Residuals under
    that floor are not resolved.
    """
    layout = build_layout(config)
    amplitudes = displaced_amplitudes(config, params)
    n1, n2 = shift_profiles(config)
    xs = box_points(config.box_length, X_SAMPLE_COUNT)
    residuals, floors = [], []
    for _, lhs, expansion in _identities(config):
        sides = (
            [(m, np.ones(len(xs)), True) for m in lhs.terms],
            [
                (m, weight * (params.f1 * n1(xs)) ** a * (params.f2 * n2(xs)) ** b, False)
                for poly, weight, a, b in expansion
                for m in poly.terms
            ],
        )
        used = {s.ladder for side in sides for m, _, _ in side for s in m.symbols}
        *leading, last = [lad for lad in layout.ladders if lad in used]
        groups = []  # (last-ladder block, per side [(coefficients over x, leading kron)])
        scale = np.zeros(len(xs))
        for k, side in enumerate(sides):
            for m, weight, conjugated in side:
                blocks = {
                    lad: _frame_block(
                        layout.cutoff(lad), amplitudes.get(lad, 0.0), [s for s in m.symbols if s.ladder == lad], conjugated
                    )
                    for lad in leading + [last]
                }
                lead = np.ones((1, 1), dtype=np.longdouble)
                for lad in leading:
                    lead = np.kron(lead, blocks[lad].astype(np.longdouble))
                coeff = complex(m.coefficient) * m.phase(xs, config.box_length) * weight
                scale += np.abs(coeff) * math.prod(float(np.abs(b).max()) for b in blocks.values())
                for block, members in groups:
                    if np.array_equal(block, blocks[last]):
                        break
                else:
                    block, members = blocks[last], ([], [])
                    groups.append((block, members))
                members[k].append((coeff, lead))
        last_blocks = np.stack([block.ravel() for block, _ in groups]).astype(np.longdouble)
        for j in range(len(xs)):
            diffs = np.stack(
                [
                    (sum(c[j] * lead for c, lead in left) - sum(c[j] * lead for c, lead in right)).ravel()
                    for _, (left, right) in groups
                ]
            )
            residuals.append(
                float(max(np.abs(diffs[:, i : i + 4096].T @ last_blocks).max() for i in range(0, diffs.shape[1], 4096)))
            )
        terms = sum(len(left) + len(right) for _, (left, right) in groups)
        floors.extend((terms + len(groups) + 2) * float(np.finfo(np.longdouble).eps) * scale)
    return residuals, floors


@pytest.mark.parametrize(
    "cutoff, params",
    [
        (16, DisplacementParams(1.0, -1.0)),
        (16, DisplacementParams(0.25, 0.5)),
        (16, DisplacementParams(0.0, 0.0)),
        (24, DisplacementParams(1.0, -1.0)),
    ],
)
def test_interchange_matches_dense_oracle(cutoff, params):
    config = default_config().with_cutoff(cutoff)
    checks = InterchangeChecker(config).run(params)
    dense, _ = dense_interchange_residuals(config, params)
    assert len(checks) == len(dense) == 16
    for c, exact in zip(checks, dense):
        assert exact <= 1e-14, (c.name, exact)
        assert exact <= c.residual <= 1e-13, (c.name, exact, c.residual)


def test_interchange_fails_a_wrong_binomial_weight(monkeypatch):
    # C(4, 2) = 7 in the quartic expansion; the error enters through
    # (f2 n2(x))^2, so it shows at the even samples, where cos(2 x) = +-1,
    # and vanishes with n2(x) at the odd ones
    comb = math.comb
    monkeypatch.setattr(displace.math, "comb", lambda n, k: comb(n, k) + ((n, k) == (4, 2)))
    checks = InterchangeChecker(default_config()).run(DisplacementParams(1.0, 1.0))
    assert {c.name for c in checks if not c.passed} == {f"interchange[quartic][x{j}]" for j in (0, 2, 4, 6)}


@pytest.fixture
def fresh_frames():
    """Shift gaps, their interchange maxima and factor defects are memoized
    across calls: a test that patches the block provider sees its patch only
    in what is computed after it, and must leave none of that behind."""
    clear_package_caches()
    yield
    clear_package_caches()


def test_interchange_fails_a_conjugation_at_a_wrong_amplitude(monkeypatch, fresh_frames):
    monkeypatch.setattr(
        displace, "displacement_block", lambda cutoff, f, columns=None: displacement_block(cutoff, 1.001 * f, columns)
    )
    checks = InterchangeChecker(default_config()).run(DisplacementParams(0.5, 0.0))
    assert not any(c.passed for c in checks if "cubic" in c.name)
    assert all(c.passed for c in checks if "quartic" in c.name)


def test_interchange_nan_block_gives_a_failing_nan(monkeypatch, fresh_frames):
    def poisoned(cutoff, f, columns=None):
        block = displacement_block(cutoff, f, columns).copy()
        block[0, 0] = np.nan
        return block

    monkeypatch.setattr(displace, "displacement_block", poisoned)
    checks = InterchangeChecker(default_config()).run(DisplacementParams(0.5, 0.5))
    assert len(checks) == 16
    assert all(math.isnan(c.residual) and not c.passed for c in checks)


def test_one_verification_computes_each_frame_gap_once(fresh_frames):
    # built-in config: 7 grid amplitudes on cutoff 16, shared by a2 and
    # b1/d1, and 8 words at each; the two-mode config adds cutoffs 15 and 20
    # and the undisplaced a3.  The interchange's words cover the shift
    # checks' words, so its maxima fill the same keys.  No gap or maxima
    # entry is evicted and computed again.
    for config, gaps in ((default_config(), 56), (README_TWO_MODE, 151)):
        clear_package_caches()
        run_verification(config)
        for memo in (displace._frame_gap, displace._frame_maxima):
            info = memo.cache_info()
            assert info.misses == info.currsize == gaps < info.maxsize, memo


def test_every_frame_check_passes_across_the_cutoff_64_range():
    # frames sized from the displaced vacuum failed about half of these
    config = default_config().with_cutoff(64)
    layout = build_layout(config)
    limit = max_admissible_amplitude(64)
    corners = [(s1 * limit, s2 * limit) for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)]
    spread = np.linspace(-limit, limit, 10)[1:-1]
    for f1, f2 in corners + list(zip(spread, np.roll(spread, 3))):
        params = DisplacementParams(float(f1), float(f2))
        for family in (check_ladder_shifts, check_free_hamiltonian_shift, check_field_shift):
            failed = [c.name for c in family(config, params, layout) if not c.passed]
            assert not failed, (f1, f2, failed)


TWO_MODE_CONFIG = """
box_length = 6.283185307179586
mass_neutral = 1.0
mass_charged = 1.0
lambda1 = 1.0
lambda2 = 1.0
neutral_modes = 2, 3
charged_modes = 1
q_index = 1
k_index = 2
cutoff_default = 16
cutoff_overrides = a2=20, b1=15
"""


def test_interchange_on_the_two_mode_config():
    checks = InterchangeChecker(parse_config(TWO_MODE_CONFIG)).run(DisplacementParams(1.0, -1.0))
    assert [c.name for c in checks] == [
        f"interchange[{name}][x{j}]" for name in ("quartic", "cubic") for j in range(X_SAMPLE_COUNT)
    ]
    assert all(c.passed and c.residual <= 1e-13 for c in checks)
