import math

import numpy as np
import pytest

from fockbox.errors import LayoutError, LeakageError
from fockbox.fockspace import (
    FockLayout,
    LadderId,
    basis_state,
    embed,
    poisson_tail,
    vacuum,
)
from fockbox.displace import (
    WINDOW_TILE_ENTRIES,
    WORK_TAIL_BOUND,
    DisplacementParams,
    InterchangeChecker,
    ResidualCheck,
    build_U,
    check_composition,
    check_field_shift,
    check_free_hamiltonian_shift,
    check_ladder_shifts,
    check_unitarity,
    displaced_amplitudes,
    displacement,
    require_admissible,
    working_headroom,
    _window_max,
    _work_frames,
)
from fockbox.model import default_config, build_layout, shift_profiles

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


def test_build_U_is_unitary_and_factorizes():
    config = default_config().with_cutoff(6)
    layout = build_layout(config)
    params = DisplacementParams(0.4, -0.3)
    disp = displacement(config, params, layout)
    u = disp.as_operator().to_dense()
    np.testing.assert_allclose(u.conj().T @ u, np.eye(layout.dimension), atol=1e-13)
    charged = embed(layout, {l: f for l, f in disp.factors.items() if l.family in ("b", "d")}).toarray()
    neutral = embed(layout, {l: f for l, f in disp.factors.items() if l.family == "a"}).toarray()
    np.testing.assert_allclose(charged @ neutral, u, atol=1e-13)
    np.testing.assert_allclose(neutral @ charged, u, atol=1e-13)


def test_zero_displacement_is_identity():
    config = default_config().with_cutoff(4)
    layout = build_layout(config)
    disp = displacement(config, DisplacementParams(0.0, 0.0), layout)
    assert disp.factors == {}
    state = basis_state(layout, {B1: 2})
    out = disp.apply(state)
    np.testing.assert_array_equal(out.amplitudes, state.amplitudes)
    assert (disp.as_operator() - build_U(config, DisplacementParams(0.0, 0.0), layout)).max_abs() == 0.0


def test_apply_matches_materialized_operator():
    config = default_config().with_cutoff(5)
    layout = build_layout(config)
    params = DisplacementParams(0.2, 0.6)
    disp = displacement(config, params, layout)
    rng = np.random.default_rng(3)
    from fockbox.fockspace import StateVector

    state = StateVector(
        layout, rng.normal(size=layout.dimension) + 1j * rng.normal(size=layout.dimension)
    ).normalized()
    via_apply = disp.apply(state).amplitudes
    via_matrix = disp.as_operator().matrix @ state.amplitudes
    np.testing.assert_allclose(via_apply, via_matrix, atol=1e-13)
    np.testing.assert_allclose(
        displacement(config, params, state.layout).apply(state).amplitudes, via_matrix, atol=1e-13
    )


def test_displaced_vacuum_is_poisson_product():
    config = default_config()
    layout = build_layout(config)
    f1, f2 = 0.5, 0.8
    out = displacement(config, DisplacementParams(f1, f2), layout).apply(vacuum(layout))
    tensor = out.amplitudes.reshape(layout.dims)

    def poisson(f, dim):
        return np.array([math.exp(-0.5 * f * f) * f ** n / math.sqrt(math.factorial(n)) for n in range(dim)])

    expected = np.einsum(
        "i,j,k->ijk", poisson(f2, 17), poisson(f1, 17), poisson(f1, 17)
    )
    # the hard cutoff perturbs the top levels at the sqrt(Poisson tail) scale,
    # so the full tensor is loose while the low-occupation window is sharp
    np.testing.assert_allclose(tensor, expected, atol=1e-8)
    np.testing.assert_allclose(tensor[:11, :11, :11], expected[:11, :11, :11], atol=1e-12)


def test_materialize_cap_guards_large_layouts():
    config = default_config().with_cutoff(24)
    layout = build_layout(config)
    disp = displacement(config, DisplacementParams(1.0, 1.0), layout)
    with pytest.raises(LayoutError):
        disp.as_operator()
    # application through the factored form still works
    out = disp.apply(vacuum(layout))
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


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


def test_working_headroom():
    # headroom satisfies the tail bound and is minimal
    for f in (0.25, 0.5, 1.0):
        head = working_headroom(f)
        assert poisson_tail(f, head) < WORK_TAIL_BOUND
        assert poisson_tail(f, head - 1) >= WORK_TAIL_BOUND
    assert working_headroom(0.0) == 1
    assert working_headroom(1.0) == 21


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
    # every expansion coefficient is an exact float zero; the cubic residual
    # spans three ladders whose grouped sums cancel only to rounding
    config = default_config()
    checker = InterchangeChecker(config)
    for params in (DisplacementParams(0.0, 0.0), DisplacementParams(0.5, 0.0)):
        checks = checker.run(params)
        assert all(c.residual == 0.0 for c in checks if "quartic" in c.name)
        assert all(c.residual <= 1e-15 for c in checks if "cubic" in c.name)


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


def _frame_block(frame, symbols, conjugated):
    """Windowed ordered product of one ladder's symbols on its work frame;
    a ladder without symbols carries the identity, conjugated or not."""
    if not symbols:
        return np.eye(frame.window)
    mat = np.eye(frame.dim)
    for s in symbols:
        mat = mat @ (frame.raising if s.dagger else frame.lowering)
    if conjugated:
        mat = frame.conjugate(mat)
    return mat[: frame.window, : frame.window]


def _term_blocks(system, frames, term, conjugated):
    return [
        _frame_block(frames[lad], [s for s in term.symbols if s.ladder == lad], conjugated)
        for lad in system.ladders
    ]


def _dense_interchange_residuals(checker, params):
    """Every interchange residual from the full dense window, term by term.

    Terms sharing a last-ladder block are summed on the leading ladders
    first; each group then enters through one np.kron in the standard
    Kronecker layout, with complex coefficients throughout.
    """
    frames = _work_frames(checker.config, params, checker.layout)
    n1, n2 = shift_profiles(checker.config)
    xs = checker.x_samples
    residuals = []
    for system in checker._systems:
        groups = []  # (last-ladder block, [(coefficients over x, leading kron)])
        for conjugated, terms in ((True, system.conjugated), (False, system.static)):
            for t in terms:
                *leading, last = _term_blocks(system, frames, t, conjugated)
                lead = np.ones((1, 1))
                for block in leading:
                    lead = np.kron(lead, block)
                coeff = t.base * (params.f1 * n1(xs)) ** t.n1_power * (params.f2 * n2(xs)) ** t.n2_power
                for block, members in groups:
                    if np.array_equal(block, last):
                        members.append((coeff, lead))
                        break
                else:
                    groups.append((last, [(coeff, lead)]))
        size = groups[0][0].shape[0] * groups[0][1][0][1].shape[0]
        for j in range(len(xs)):
            total = np.zeros((size, size), dtype=np.complex128)
            for last, members in groups:
                total += np.kron(sum(coeff[j] * lead for coeff, lead in members), last)
            residuals.append(float(np.abs(total).max()))
    return residuals


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
    checker = InterchangeChecker(default_config().with_cutoff(cutoff))
    checks = checker.run(params)
    expected = _dense_interchange_residuals(checker, params)
    assert len(checks) == len(expected) == 16
    for c, want in zip(checks, expected):
        assert abs(c.residual - want) <= 4e-16, (c.name, c.residual, want)


def _tiled_case(rng, rows, cols, support):
    grouped_re = rng.normal(size=(rows, 3))
    grouped_im = rng.normal(size=(rows, 3))
    class_blocks = rng.normal(size=(3, cols))
    static_re = rng.normal(size=support.size)
    static_im = rng.normal(size=support.size)
    return grouped_re, grouped_im, class_blocks, support, static_re, static_im


def test_window_max_matches_dense_window_across_tiles():
    rng = np.random.default_rng(5)
    cols = 81
    step = WINDOW_TILE_ENTRIES // cols
    rows = 3 * step + 7  # a partial last tile
    support = np.sort(rng.choice(rows * cols, size=500, replace=False))
    args = _tiled_case(rng, rows, cols, support)
    grouped_re, grouped_im, class_blocks, _, static_re, static_im = args
    dense = ((grouped_re + 1j * grouped_im) @ class_blocks).ravel()
    dense[support] += static_re + 1j * static_im
    assert _window_max(*args) == pytest.approx(np.abs(dense).max(), rel=1e-15)


@pytest.mark.parametrize("rows", [2 * (WINDOW_TILE_ENTRIES // 81), 2 * (WINDOW_TILE_ENTRIES // 81) + 3])
def test_window_max_finds_a_lone_static_entry_in_the_last_tile(rows):
    cols = 81
    support = np.array([0, (rows - 1) * cols + 40, rows * cols - 1])
    zeros = np.zeros((rows, 2))
    static_re = np.array([0.0, 0.0, 3e-15])
    static_im = np.array([0.0, 0.0, -4e-15])
    residual = _window_max(zeros, zeros, np.ones((2, cols)), support, static_re, static_im)
    assert residual == pytest.approx(5e-15, rel=1e-15)


def test_window_max_propagates_nan():
    rng = np.random.default_rng(6)
    cols = 81
    rows = 2 * (WINDOW_TILE_ENTRIES // cols)
    args = list(_tiled_case(rng, rows, cols, np.array([5, rows * cols - 2])))
    args[4] = np.array([0.0, np.nan])
    assert math.isnan(_window_max(*args))


@pytest.mark.parametrize("cutoff", [16, 24])
def test_static_rows_do_not_depend_on_the_amplitudes(cutoff):
    checker = InterchangeChecker(default_config().with_cutoff(cutoff))
    for params in (DisplacementParams(f1, f2) for f1 in (1.0, -1.0) for f2 in (1.0, -1.0)):
        frames = _work_frames(checker.config, params, checker.layout)
        for system in checker._systems:
            nonzero = None
            rows = []
            for t in system.static:
                *leading, last = _term_blocks(system, frames, t, conjugated=False)
                lead = np.ones((1, 1))
                for block in leading:
                    lead = np.kron(lead, block)
                row = np.kron(lead.ravel(), last.ravel())
                nonzero = (row != 0.0) if nonzero is None else nonzero | (row != 0.0)
                rows.append(row[system.support])
            assert np.array_equal(np.flatnonzero(nonzero), system.support), system.name
            assert np.array_equal(np.array(rows), system.static_rows), system.name
