import ast
import functools
import importlib
import itertools
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import fockbox
from fockbox import coeffs, displace, fockspace, ladderalg, model
from fockbox.errors import LayoutError
from fockbox.fockspace import (
    FockLayout,
    LadderId,
    OperatorMatrix,
    StateVector,
    basis_state,
    displacement_block,
    expectation,
    ladder_product,
    leakage_admissible,
    lowering_block,
    max_admissible_amplitude,
    number_operator,
    poisson_tail,
    raising_block,
    vacuum,
    word_rows,
    word_weights,
)
from fockbox.ladderalg import LadderMonomial, LadderPolynomial, LadderSymbol, constant, realize
from fockbox.model import default_config
from fockbox.probe import run_verification

A2 = LadderId("a", 2)
B1 = LadderId("b", 1)
D1 = LadderId("d", 1)


def small_layout(cutoff=3):
    return FockLayout((A2, B1, D1), (cutoff, cutoff, cutoff))


def dense(op: OperatorMatrix) -> np.ndarray:
    """The full matrix of op: column j is op applied to basis state j."""
    eye = np.eye(op.layout.dimension, dtype=np.complex128)
    return np.column_stack([op.apply(StateVector(op.layout, column)).amplitudes for column in eye])


def kron_oracle(poly: LadderPolynomial, layout: FockLayout) -> np.ndarray:
    """Dense matrix of poly on layout, built independently of realize: each
    monomial is the Kronecker product over the ladders of the explicit chain
    of lowering and raising blocks its symbols name on that ladder."""
    total = np.zeros((layout.dimension, layout.dimension), dtype=np.complex128)
    for t in poly.terms:
        for s in t.symbols:
            layout.position(s.ladder)
        factors = []
        for ladder, cutoff in zip(layout.ladders, layout.cutoffs):
            blocks = [raising_block(cutoff) if s.dagger else lowering_block(cutoff) for s in t.symbols if s.ladder == ladder]
            factors.append(functools.reduce(np.matmul, blocks, np.eye(cutoff + 1)))
        total += t.coefficient * functools.reduce(np.kron, factors)
    return total


def word(ladder, *daggers, coefficient=1.0) -> LadderPolynomial:
    """One phase-free monomial on one ladder."""
    return LadderPolynomial.from_terms([LadderMonomial(coefficient, tuple(LadderSymbol(ladder, d) for d in daggers))])


def test_ladder_id_parse_and_str():
    assert LadderId.parse("a2") == A2
    assert LadderId.parse(" b12 ") == LadderId("b", 12)
    assert str(D1) == "d1"
    with pytest.raises(LayoutError):
        LadderId.parse("x3")
    with pytest.raises(LayoutError):
        LadderId.parse("a")
    with pytest.raises(LayoutError):
        LadderId("q", 1)


def test_layout_row_major_last_ladder_fastest():
    layout = small_layout()
    assert layout.dims == (4, 4, 4)
    assert layout.dimension == 64
    # occupation of the last ladder advances the basis index by 1
    assert layout.basis_index((0, 0, 1)) == 1
    assert layout.basis_index((0, 1, 0)) == 4
    assert layout.basis_index((1, 0, 0)) == 16
    occ = layout.occupations()
    for i in range(layout.dimension):
        assert tuple(occ[i]) == tuple(np.unravel_index(i, layout.dims))


def test_layout_validation():
    with pytest.raises(LayoutError):
        FockLayout((A2, A2), (3, 3))
    with pytest.raises(LayoutError):
        FockLayout((A2,), (0,))
    with pytest.raises(LayoutError):
        FockLayout((A2, B1), (3,))
    with pytest.raises(LayoutError):
        FockLayout((), ())
    with pytest.raises(LayoutError):
        FockLayout((A2, B1, D1), (200, 200, 200))  # over the dimension cap
    with pytest.raises(LayoutError):
        small_layout().position(LadderId("b", 9))


def test_ladder_block_entries():
    low = lowering_block(5)
    for n in range(1, 6):
        assert low[n - 1, n] == math.sqrt(n)
    assert np.count_nonzero(low) == 5
    raise_ = raising_block(5)
    assert np.array_equal(raise_, low.T)
    # hard cutoff: the creator annihilates the top level
    top = np.zeros(6)
    top[5] = 1.0
    assert np.all(raise_ @ top == 0.0)


def test_commutator_below_cutoff():
    c = 7
    low, raise_ = lowering_block(c), raising_block(c)
    comm = low @ raise_ - raise_ @ low
    # [a, a+] = 1 on occupations <= cutoff - 1 and -cutoff at the corner;
    # off-diagonals are exact zeros, the diagonal carries one rounding per
    # squared square root
    assert np.array_equal(comm, np.diag(np.diag(comm)))
    np.testing.assert_allclose(np.diag(comm)[:c], np.ones(c), rtol=0, atol=2e-15)
    np.testing.assert_allclose(comm[c, c], -c, rtol=1e-15)


def test_number_operator_and_projector():
    layout = small_layout()
    n_b = dense(number_operator(layout, B1))
    occ = layout.occupations()[:, 1]
    assert np.array_equal(n_b, np.diag(occ).astype(complex))
    eye = np.eye(4)
    # the dense chain a+ a squares each root, one rounding per entry
    np.testing.assert_allclose(n_b, np.kron(np.kron(eye, raising_block(3) @ lowering_block(3)), eye), rtol=1e-15, atol=0)
    # the projection onto occupations <= 1 on every ladder is the product of
    # the per-ladder projections, each a zero-shift diagonal
    zero = (0, 0, 0)
    per_ladder = [
        OperatorMatrix(layout, {zero: (np.indices(layout.dims)[i] <= 1).astype(complex)}) for i in range(3)
    ]
    p = dense(functools.reduce(lambda x, y: x @ y, per_ladder))
    expected = (layout.occupations() <= 1).all(axis=1)
    assert np.array_equal(p, np.diag(expected).astype(complex))
    low = np.diag([1.0, 1.0, 0.0, 0.0])
    assert np.array_equal(p, np.kron(np.kron(low, low), low).astype(complex))


def test_realize_matches_explicit_kron():
    layout = small_layout(2)
    eye = np.eye(3)
    for daggers in ((True,), (False, True), (True, True, False)):
        x = functools.reduce(np.matmul, [raising_block(2) if d else lowering_block(2) for d in daggers])
        realized = dense(realize(word(B1, *daggers), layout))
        assert np.array_equal(realized, np.kron(np.kron(eye, x), eye).astype(complex))
        assert np.array_equal(realized, kron_oracle(word(B1, *daggers), layout))
    with pytest.raises(LayoutError):
        realize(word(LadderId("b", 7), True), layout)


@pytest.mark.parametrize("cutoff", [1, 5, 16])
def test_ladder_product_is_the_explicit_chain(cutoff):
    for length in range(5):
        for word in itertools.product((False, True), repeat=length):
            blocks = [raising_block(cutoff) if dagger else lowering_block(cutoff) for dagger in word]
            chain = functools.reduce(np.matmul, blocks) if blocks else np.eye(cutoff + 1)
            got = ladder_product(cutoff, word)
            assert got.dtype == chain.dtype and got.shape == chain.shape
            assert got.tobytes() == chain.tobytes(), word


@pytest.mark.parametrize("cutoff", [1, 5, 16])
def test_word_rows_is_the_product_with_the_word(cutoff):
    rng = np.random.default_rng(cutoff)
    rows = rng.normal(size=(7, cutoff + 1))
    for length in range(5):
        for word in itertools.product((False, True), repeat=length):
            got = word_rows(rows, word)
            want = rows @ ladder_product(cutoff, word)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), word


@pytest.mark.parametrize("cutoff", [1, 5, 16])
def test_word_weights_are_the_columns_of_the_explicit_chain(cutoff):
    levels = np.arange(cutoff + 1)
    for length in range(5):
        for daggers in itertools.product((False, True), repeat=length):
            shift, weights = word_weights(cutoff + 1, daggers)
            assert shift == sum(1 if d else -1 for d in daggers)
            chain = ladder_product(cutoff, daggers)
            inside = (levels + shift >= 0) & (levels + shift <= cutoff)
            assert np.array_equal(chain[(levels + shift)[inside], levels[inside]], weights[inside]), daggers
            assert not weights[~inside].any()
            assert np.count_nonzero(chain) == np.count_nonzero(weights)


def test_creator_annihilator_matrix_elements():
    layout = small_layout()
    state = basis_state(layout, {B1: 1})
    raised = realize(word(B1, True), layout).apply(state).amplitudes
    target = basis_state(layout, {B1: 2})
    assert np.vdot(target.amplitudes, raised) == pytest.approx(math.sqrt(2))
    lowered = realize(word(B1, False), layout).apply(state).amplitudes
    assert np.vdot(vacuum(layout).amplitudes, lowered) == pytest.approx(1.0)
    # b+ b counts the quantum, b b+ counts it plus one
    for daggers, count in (((True, False), 1.0), ((False, True), 2.0)):
        op = realize(word(B1, *daggers), layout)
        assert expectation(op, state) == pytest.approx(count, rel=1e-15)


def test_operator_layout_mismatch():
    op = realize(constant(1.0), small_layout())
    other = realize(constant(1.0), small_layout(4))
    with pytest.raises(LayoutError):
        op + other
    with pytest.raises(LayoutError):
        op @ other
    with pytest.raises(LayoutError):
        expectation(op, vacuum(small_layout(4)))


def test_state_vector_basics():
    layout = small_layout()
    with pytest.raises(LayoutError):
        StateVector(layout, np.zeros(3, dtype=complex))
    with pytest.raises(LayoutError):
        basis_state(layout, (0, 0, 4))
    rng = np.random.default_rng(11)
    amps = rng.normal(size=layout.dimension) + 1j * rng.normal(size=layout.dimension)
    state = StateVector(layout, amps).normalized()
    assert state.norm() == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        StateVector(layout, np.zeros(layout.dimension, dtype=complex)).normalized()


def test_displacement_block_vacuum_column_is_poisson():
    # independent oracle: <n|exp(f(a+ - a))|0> = exp(-f^2/2) f^n / sqrt(n!)
    f = 0.8
    u = displacement_block(30, f)
    expected = np.array([math.exp(-0.5 * f * f) * f ** n / math.sqrt(math.factorial(n)) for n in range(31)])
    np.testing.assert_allclose(u[:, 0], expected, atol=1e-12)


def test_displacement_block_orthogonal():
    for f in (0.0, 0.3, -1.0):
        u = displacement_block(12, f)
        np.testing.assert_allclose(u.T @ u, np.eye(13), atol=1e-14)


@pytest.mark.parametrize(
    "cutoff, amplitude",
    # the last two amplitudes are one ulp apart: a lossy cache key would
    # hand the second the first one's block
    [
        (12, 0.3),
        (30, np.float64(0.8)),
        (130, 3.7),
        (212, -4.79),
        (16, -1.0 / 3.0),
        (16, math.nextafter(-1.0 / 3.0, 0.0)),
    ],
)
def test_displacement_block_matches_expm(cutoff, amplitude):
    expm = scipy.linalg.expm(amplitude * (raising_block(cutoff) - lowering_block(cutoff)))
    fresh = fockspace._displacement_block.__wrapped__(cutoff + 1, float(amplitude), cutoff + 1)
    for _ in range(2):  # the first call may build the block, the second is a cache hit
        u = displacement_block(cutoff, amplitude)
        assert u.dtype == expm.dtype and u.shape == expm.shape
        np.testing.assert_allclose(u, expm, rtol=0.0, atol=1e-13)
        assert u.tobytes() == fresh.tobytes()


def test_displacement_block_ulp_apart_amplitudes_differ():
    # keeps the cache-key cases above from passing on equal blocks
    low = displacement_block(16, -1.0 / 3.0)
    high = displacement_block(16, math.nextafter(-1.0 / 3.0, 0.0))
    assert low.tobytes() != high.tobytes()


def test_displacement_block_columns_are_the_leading_columns():
    full = displacement_block(40, 1.3)
    for columns in (1, 9, 41):
        block = displacement_block(40, 1.3, columns)
        assert block.shape == (41, columns)
        np.testing.assert_allclose(block, full[:, :columns], rtol=0.0, atol=1e-15)
    for columns in (0, 42):
        with pytest.raises(LayoutError):
            displacement_block(40, 1.3, columns)


def test_displacement_block_is_read_only():
    u = displacement_block(12, 0.3)
    with pytest.raises(ValueError):
        u[0, 0] = 1.0
    assert displacement_block(12, 0.3)[0, 0] == u[0, 0]


def test_run_verification_is_identical_on_cold_and_warm_block_cache():
    def summary():
        return [(c.name, c.f1, c.f2, c.residual) for c in run_verification(default_config())]

    for cache in (
        fockspace._displacement_block,
        fockspace._x_basis,
        displace.work_frame_size,
        displace._work_frame,
        displace._shift_layers,
        ladderalg._monomial_matrix,
        model._build_H,
        coeffs._shifted_parts,
    ):
        cache.cache_clear()
    cold = summary()
    assert fockspace._displacement_block.cache_info().hits > 0
    assert summary() == cold
    # the 26 distinct monomials of a run fit the bound: none is built twice
    assert ladderalg._monomial_matrix.cache_info().misses == 26


def test_every_lru_cache_is_bounded():
    caches = {}
    for info in pkgutil.iter_modules(fockbox.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"fockbox.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_parameters"):
                caches[f"{value.__module__}.{value.__qualname__}"] = value.cache_parameters()["maxsize"]
    assert {
        "fockbox.fockspace._displacement_block",
        "fockbox.ladderalg._monomial_matrix",
        "fockbox.model.field_algebra",
        "fockbox.model._build_H",
        "fockbox.fockspace._x_basis",
        "fockbox.displace.work_frame_size",
        "fockbox.displace._work_frame",
        "fockbox.displace._shift_layers",
        "fockbox.coeffs._shifted_parts",
    } <= set(caches)
    assert all(size is not None for size in caches.values()), caches
    assert caches["fockbox.fockspace._displacement_block"] == fockspace.DISPLACEMENT_BLOCK_CACHE
    assert caches["fockbox.fockspace._x_basis"] == fockspace.X_BASIS_CACHE
    # one size per cutoff, and a layout has a few distinct cutoffs
    assert caches["fockbox.displace.work_frame_size"] == 16
    # (window, dim, amplitude) keys: 7 frames serve a verify run on the
    # built-in config, and the two-mode README config keeps 10 live
    assert caches["fockbox.displace._work_frame"] == 16
    # (window, word) keys: at most 31 words per window, 15 keys on the
    # built-in config and 34 on the two-mode README config
    assert caches["fockbox.displace._shift_layers"] == 128
    # the distinct monomials of a run stay cached: 26 on the built-in config,
    # 42 on the two-mode README config
    assert caches["fockbox.ladderalg._monomial_matrix"] == ladderalg.MONOMIAL_MATRIX_CACHE == 64
    assert caches["fockbox.model._build_H"] == model.HAMILTONIAN_CACHE == 2
    # one config per run; an entry holds 54 monomials on the built-in config
    # and 103 on the two-mode README config
    assert caches["fockbox.coeffs._shifted_parts"] == coeffs.SHIFTED_PARTS_CACHE == 8


def test_poisson_tail_values():
    assert poisson_tail(0.0, 5) == 0.0
    # exp(-1) / 14! straddles the 1e-12 policy bound, exp(-1) / 15! is under it
    assert poisson_tail(1.0, 14) == pytest.approx(4.2199e-12, rel=1e-3)
    assert poisson_tail(1.0, 15) == pytest.approx(2.8133e-13, rel=1e-3)
    # unit amplitude needs cutoff 15: the tail falls with the cutoff once N > f^2
    assert not any(leakage_admissible(1.0, cutoff) for cutoff in range(1, 15))
    assert leakage_admissible(1.0, 15)
    assert all(leakage_admissible(0.0, cutoff) for cutoff in (1, 2, 40))


def test_leakage_admissibility_is_monotone_in_the_amplitude():
    # past the Poisson peak f^2 = N the level-N weight falls again
    # (poisson_tail(8, 16) is 6.1e-13), so the tail alone would re-admit it
    assert poisson_tail(8.0, 16) < fockspace.LEAKAGE_TAIL_BOUND
    assert not leakage_admissible(8.0, 16)
    for cutoff in (16, 64):
        admissible = [leakage_admissible(f, cutoff) for f in np.linspace(0.0, 20.0, 4001)]
        first_rejected = admissible.index(False)
        assert not any(admissible[first_rejected:]), cutoff
        assert all(admissible[:first_rejected])


def test_poisson_tail_matches_direct_formula():
    for f in (0.25, 0.7, 1.3):
        for cutoff in (3, 9, 20):
            direct = math.exp(-f * f) * (f * f) ** cutoff / math.factorial(cutoff)
            assert poisson_tail(f, cutoff) == pytest.approx(direct, rel=1e-12)


def test_max_admissible_amplitude_is_boundary():
    for cutoff in (8, 16, 24):
        limit = max_admissible_amplitude(cutoff)
        assert leakage_admissible(limit, cutoff)
        assert not leakage_admissible(limit * 1.001, cutoff)


def test_max_admissible_amplitude_stops_early_at_the_full_bisection_value(monkeypatch):
    def full_bisection(cutoff):
        lo, hi = 0.0, math.sqrt(cutoff)
        if leakage_admissible(hi, cutoff):
            return hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if leakage_admissible(mid, cutoff):
                lo = mid
            else:
                hi = mid
        return lo

    calls = []

    def counted(amplitude, cutoff):
        calls.append(amplitude)
        return leakage_admissible(amplitude, cutoff)

    monkeypatch.setattr(fockspace, "leakage_admissible", counted)
    for cutoff in range(1, 2001):
        calls.clear()
        assert max_admissible_amplitude(cutoff) == full_bisection(cutoff), cutoff
        assert len(calls) <= 80, (cutoff, len(calls))


# Reads the thread count of every OpenBLAS mapped into a fresh process after
# `import fockbox`, through the libraries' own entry points.
_BLAS_THREAD_PROBE = """
import ctypes, json, os
import fockbox
getters = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
           "openblas_get_num_threads64_", "openblas_get_num_threads")
with open("/proc/self/maps", encoding="utf-8") as fh:
    mapped = {line.split(maxsplit=5)[-1].strip() for line in fh}
counts = {}
for path in sorted(p for p in mapped if "openblas" in os.path.basename(p).lower()):
    lib = ctypes.CDLL(path)
    getter = next(getattr(lib, name) for name in getters if hasattr(lib, name))
    getter.argtypes = []
    getter.restype = ctypes.c_int
    counts[os.path.basename(path)] = getter()
print(json.dumps(counts))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_import_runs_every_openblas_on_one_thread():
    src = str(Path(fockbox.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_THREAD_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts, "no OpenBLAS mapped"
    assert set(counts.values()) == {1}, counts


# A default verify in a fresh process, then every scipy module it loaded.
_SCIPY_PROBE = """
import json, sys
import fockbox
fockbox.run_verification(fockbox.default_config())
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_fockbox_runs_on_numpy_alone_and_declares_exactly_its_imports():
    src = Path(fockbox.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
    # the third-party top-level imports of the package are its dependencies
    imported = set()
    for path in (src / "fockbox").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"fockbox"}
    with open(src.parent / "pyproject.toml", "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in dependencies}
    assert third_party == declared == {"numpy"}


def test_max_abs_and_hermiticity_residual():
    layout = small_layout()
    op = realize(word(A2, True), layout)
    zero = op - op
    assert zero.max_abs() == 0.0
    assert op.max_abs() == np.max(np.abs(kron_oracle(word(A2, True), layout))) == math.sqrt(3)
    assert (op + op.adjoint()).hermiticity_residual() == 0.0
    assert op.hermiticity_residual() == math.sqrt(3)
    assert isinstance(op, OperatorMatrix)
