"""Property tests: invariants over random admissible inputs and random configs.

Examples are derandomized and kept few, so the suite stays deterministic and
fast; each property still covers inputs no fixed case names.
"""

import contextlib
import csv
import functools
import io
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockbox import coeffs, displace, fockspace, probe
from fockbox.coeffs import COEFFICIENT_NAMES, coefficients, reference_state, vacuum_closed_forms
from fockbox.displace import Displacement, DisplacementParams, InterchangeChecker, work_frame_size
from fockbox.errors import ConfigError
from fockbox.fockspace import (
    FockLayout,
    LadderId,
    StateVector,
    displacement_block,
    expectation,
    leakage_admissible,
    max_admissible_amplitude,
)
from fockbox.ladderalg import LadderMonomial, LadderPolynomial, LadderSymbol, realize, shift
from fockbox.model import ModelConfig, build_layout, default_config
from test_displace import crafted_gap, dense_interchange_residuals, kron_factors, shift_norms_per_sample
from test_fockspace import copy_stacks, dense, dense_state, kron_oracle, radix_pairs, row_major_occupations, word_matrix

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def admissible_blocks(draw):
    cutoff = draw(st.integers(min_value=1, max_value=40))
    limit = max_admissible_amplitude(cutoff)
    amplitude = draw(st.floats(min_value=-limit, max_value=limit))
    return cutoff, amplitude


@PROPERTY_SETTINGS
@given(admissible_blocks())
def test_displacement_block_is_orthogonal_and_inverted_by_its_negative(case):
    cutoff, amplitude = case
    assert leakage_admissible(amplitude, cutoff)
    u = displacement_block(cutoff, amplitude)
    eye = np.eye(cutoff + 1)
    np.testing.assert_allclose(u.T @ u, eye, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(u @ displacement_block(cutoff, -amplitude), eye, rtol=0.0, atol=1e-12)
    # the negative amplitude's parity image is the directly diagonalized block
    assert np.array_equal(
        displacement_block(cutoff, -amplitude), fockspace._displacement_block.__wrapped__(cutoff + 1, -amplitude, cutoff + 1)
    )


@st.composite
def config_values(draw, cutoffs=(1, 3), max_modes=2):
    """Mostly usable values; about one draw in ten is any float or index.
    A usable default cutoff lies in the closed range cutoffs, and each field
    has at most max_modes modes."""

    def pick(usable, anything):
        return draw(anything if draw(st.integers(min_value=0, max_value=9)) == 0 else usable)

    def number(lo, hi):
        return pick(st.floats(min_value=lo, max_value=hi), st.floats())

    any_index = st.integers(min_value=-3, max_value=3)
    modes = st.lists(any_index, min_size=1, max_size=max_modes), st.lists(any_index, max_size=max_modes)
    neutral = pick(*modes)
    charged = pick(*modes)
    return {
        "box_length": number(0.5, 20.0),
        "mass_neutral": number(0.0, 5.0),
        "mass_charged": number(0.0, 5.0),
        "lambda1": number(0.0, 5.0),
        "lambda2": number(0.0, 5.0),
        "neutral_modes": neutral,
        "charged_modes": charged,
        "k_index": pick(st.sampled_from(neutral), any_index) if neutral else draw(any_index),
        "q_index": pick(st.sampled_from(charged), any_index) if charged else draw(any_index),
        "cutoff_default": pick(
            st.integers(min_value=cutoffs[0], max_value=cutoffs[1]), st.integers(min_value=-1, max_value=cutoffs[1])
        ),
    }


@PROPERTY_SETTINGS
@given(config_values())
def test_random_config_is_rejected_or_gives_finite_coefficients(values):
    try:
        config = ModelConfig(**values)
        layout = build_layout(config)
        cs = coefficients(config, reference_state(config, "vacuum", layout))
        closed_forms = vacuum_closed_forms(config)
    except ConfigError:
        return
    assert all(math.isfinite(getattr(cs, name)) for name in COEFFICIENT_NAMES), cs
    assert all(math.isfinite(value) for value in closed_forms.values()), closed_forms


def config_text(values):
    """A config file stating values, one `key = value` line each."""

    def field(value):
        return ", ".join(map(str, value)) if isinstance(value, list) else repr(value)

    return "".join(f"{key} = {field(value)}\n" for key, value in values.items())


@st.composite
def cli_runs(draw):
    """A config from config_values and a command line for one of the four
    subcommands; about one amplitude in ten is any float and one state
    selector in ten is unusable.

    verify and demo draw usable cutoffs of 15 and 16, where the grid's unit
    amplitude is admissible, and at most one mode per field, which keeps a
    run near a tenth of a second; most demo draws put the neutral mode at
    twice the charged one, as the demo needs.  coeffs and sweep draw
    cutoffs of 1 to 3."""

    def pick(usable, anything):
        return draw(anything if draw(st.integers(min_value=0, max_value=9)) == 0 else usable)

    command = draw(st.sampled_from(["verify", "demo", "coeffs", "sweep"]))
    usable_states = st.sampled_from(["vacuum", "one_a", "one_b", "seeded", "seeded:7", "seeded:123"])
    state = pick(usable_states, st.sampled_from(["seeded:-1", "seeded:x", "two_a", ""]))
    if command == "verify":
        return draw(config_values(cutoffs=(15, 16), max_modes=1)), ["verify", f"--state={state}"]
    if command == "demo":
        values = draw(config_values(cutoffs=(15, 16), max_modes=1))
        if pick(st.just(True), st.just(False)):
            q = draw(st.integers(min_value=1, max_value=2))
            values.update(charged_modes=[q], q_index=q, neutral_modes=[2 * q], k_index=2 * q)
        return values, ["demo"]
    if command == "coeffs":
        return draw(config_values()), ["coeffs", f"--state={state}"]
    start = pick(st.floats(min_value=-2.0, max_value=2.0), st.floats())
    step = pick(st.floats(min_value=0.01, max_value=1.0), st.floats())
    stop = start + draw(st.integers(min_value=0, max_value=40)) * step
    f2 = pick(st.floats(min_value=-2.0, max_value=2.0), st.floats())
    return draw(config_values()), ["sweep", f"--state={state}", f"--f1={start!r}:{stop!r}:{step!r}", f"--f2={f2!r}"]


def is_finite_field(field):
    try:
        return math.isfinite(float(field))
    except ValueError:  # a name, a flag or an empty field
        return True


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(cli_runs())
def test_cli_exits_0_1_or_2_with_one_error_line_and_finite_csv_fields(run):
    values, argv = run
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "model.cfg"
        config.write_text(config_text(values), encoding="utf-8")
        out = Path(tmp) / "out"
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                code = probe.main(argv + ["--config", str(config), "--out", str(out)])
            except SystemExit as exc:  # argparse's own usage errors
                code = exc.code
        assert code in (0, 1, 2), (argv, stderr.getvalue())
        if code == 2:
            assert sum("error:" in line for line in stderr.getvalue().splitlines()) == 1, stderr.getvalue()
            assert not out.exists()
        if code == 0:
            for path in out.glob("*.csv"):
                with open(path, encoding="utf-8", newline="") as fh:
                    fields = [field for row in csv.reader(fh) for field in row]
                assert all(map(is_finite_field, fields)), (argv, path.name, fields)


BOUND_CUTOFF = 8


@st.composite
def admissible_params(draw):
    limit = max_admissible_amplitude(BOUND_CUTOFF)
    amplitude = st.floats(min_value=-limit, max_value=limit)
    return DisplacementParams(draw(amplitude), draw(amplitude))


@PROPERTY_SETTINGS
@given(admissible_params())
def test_interchange_bound_covers_the_dense_residual(params):
    # the dense evaluation resolves residuals only down to its own rounding
    # floor; at subnormal amplitudes the bound's products underflow to zero
    # and may sit a few subnormal units under it
    config = default_config().with_cutoff(BOUND_CUTOFF)
    checks = InterchangeChecker(config, build_layout(config)).run(params)
    dense, floors = dense_interchange_residuals(config, params)
    for c, exact, floor in zip(checks, dense, floors, strict=True):
        assert exact <= c.residual + floor + np.finfo(np.float64).smallest_normal, (c.name, exact, c.residual)


ORACLE_LADDERS = (LadderId("a", 2), LadderId("b", 1), LadderId("d", 1))

# Finite floats of every scale, with exact zeros, subnormals and values near
# 1e+-300 drawn often.
SCALED_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 1e-300, -3e-300, 1e300, -7e300, 1.0, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def scaled_gaps(draw):
    """A real (m, m) gap, possibly with a pair of entries of equal magnitude
    and opposite sign and a NaN on or off the diagonal; a complex (8,)
    kappa and a real energy."""
    m = draw(st.integers(min_value=1, max_value=6))
    gap = np.array(draw(st.lists(SCALED_ENTRIES, min_size=m * m, max_size=m * m))).reshape(m, m)
    cell = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
    if draw(st.booleans()):
        (i, j), (k, l) = draw(cell), draw(cell)
        gap[k, l] = -gap[i, j]
    nan = draw(st.sampled_from(["none", "diagonal", "off"]))
    if nan == "diagonal":
        i = draw(st.integers(0, m - 1))
        gap[i, i] = np.nan
    elif nan == "off" and m > 1:
        i, j = draw(st.permutations(range(m)))[:2]
        gap[i, j] = np.nan
    kappa = np.array([complex(draw(SCALED_ENTRIES), draw(SCALED_ENTRIES)) for _ in range(8)])
    return gap, kappa, draw(SCALED_ENTRIES)


@PROPERTY_SETTINGS
@example((np.array([[1.0, -3.0], [3.0, np.nan]]), np.full(8, 1e300 - 1e-300j), 5e-324))
@given(scaled_gaps())
def test_a_scaled_gap_summary_is_its_stack_zeroed_and_maxed(case):
    # a one-term ladder's window norm, read from its gap's summary, is bit
    # for bit what the scaled stack gives with its diagonal zeroed, for a
    # complex coefficient per sample and for a real energy.  A summary with
    # its diagonal, or its off-diagonal maximum, zeroed shows each part alone.
    gap, kappa, energy = case
    frame_gap = crafted_gap(gap)
    gap_max, off, diag = frame_gap[2]
    parts = [frame_gap, (gap, None, (gap_max, off, np.zeros_like(diag))), (gap, None, (gap_max, 0.0, diag))]
    for scale in (kappa, np.array([energy])):
        zeros = np.zeros(len(scale))
        with np.errstate(over="ignore"):  # products near 1e300 overflow to inf
            stack = scale[:, None, None] * gap
            magnitudes = np.abs(stack)
            np.einsum("bii->bi", magnitudes)[...] = 0.0
            stack_off, stack_diag = magnitudes.max(axis=(1, 2)), np.diagonal(stack, axis1=1, axis2=2)
            norms, off_norms, diag_norms = (displace._shift_norms([(ORACLE_LADDERS[0], scale, p)], zeros) for p in parts)
            expected = displace._window_sum_max([(stack_off, stack_diag)], zeros)
        assert np.array_equal(off_norms, stack_off, equal_nan=True), (off_norms, magnitudes)
        assert np.array_equal(diag_norms, np.abs(stack_diag).max(axis=1), equal_nan=True), (diag_norms, stack)
        assert np.array_equal(norms, expected, equal_nan=True), (norms, expected)
        assert np.isnan(norms).tolist() == [bool(np.isnan(gap).any())] * len(scale), norms


@st.composite
def shift_terms(draw):
    """Terms (ladder, kappa per sample, crafted frame gap) on 1 to 3 ladders
    with windows of 1 to 4 levels and 1 to 3 terms each, in a drawn order,
    some of their gaps exactly zero, and a complex scalar per sample."""
    samples = draw(st.integers(min_value=1, max_value=4))
    part = st.floats(min_value=-1e3, max_value=1e3)
    entry = st.one_of(st.just(0.0), part)
    terms = []
    for lad in ORACLE_LADDERS[: draw(st.integers(min_value=1, max_value=3))]:
        m = draw(st.integers(min_value=1, max_value=4))
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            gap = np.zeros((m, m))
            if draw(st.booleans()):
                gap = np.array(draw(st.lists(entry, min_size=m * m, max_size=m * m))).reshape(m, m)
            kappa = np.array([complex(draw(part), draw(part)) for _ in range(samples)])
            terms.append((lad, kappa, crafted_gap(gap)))
    terms = draw(st.permutations(terms))
    scalars = np.array([complex(draw(part), draw(part)) for _ in range(samples)])
    return terms, scalars


@PROPERTY_SETTINGS
@given(shift_terms())
def test_shift_norms_equal_the_dense_per_sample_oracle(case):
    # one-term ladders read from their summaries, several-term ladders'
    # stacks and skipped zero ladders all give the dense norm, bit for bit
    terms, scalars = case
    assert displace._shift_norms(terms, scalars).tolist() == shift_norms_per_sample(terms, scalars)


# Each entry is a short sum of products, a few roundings each, measured
# against the largest sum of the magnitudes of its terms.
ORACLE_RTOL = 64 * np.finfo(np.float64).eps


@st.composite
def layouts_and_polynomials(draw):
    """A layout of up to three ladders and at most 64 states, a polynomial of
    up to four monomials, each a word of up to four symbols over its
    ladders, a sum of up to four product terms and a displacement."""
    ladders = ORACLE_LADDERS[: draw(st.integers(min_value=1, max_value=3))]
    layout = FockLayout(ladders, tuple(draw(st.integers(min_value=1, max_value=3)) for _ in ladders))
    part = st.floats(min_value=-2.0, max_value=2.0)
    symbol = st.builds(LadderSymbol, st.sampled_from(ladders), st.booleans())
    monomial = st.builds(
        LadderMonomial, st.builds(complex, part, part), st.lists(symbol, max_size=4).map(tuple)
    )
    polynomial = st.lists(monomial, min_size=1, max_size=4).map(LadderPolynomial.from_terms)
    amplitudes = tuple(draw(part) for _ in ladders)
    terms = st.integers(min_value=1, max_value=4)
    return layout, draw(polynomial), draw(terms), amplitudes, draw(st.integers(min_value=0, max_value=2**32 - 1))


@PROPERTY_SETTINGS
@given(layouts_and_polynomials())
def test_realized_operators_match_the_dense_kron_oracle(case):
    layout, p, terms, amplitudes, seed = case
    op = realize(p, layout)
    dense_p = kron_oracle(p, layout)
    # the sums over the terms' magnitudes bound each entry's rounding
    size = kron_oracle(LadderPolynomial(tuple(LadderMonomial(abs(t.coefficient), t.symbols) for t in p.terms)), layout).real
    rng = np.random.default_rng(seed)
    plain = StateVector(
        layout,
        rng.normal(size=terms) + 1j * rng.normal(size=terms),
        tuple((np.arange(terms), rng.normal(size=(dim, terms)) + 1j * rng.normal(size=(dim, terms))) for dim in layout.dims),
    )
    blocks = {lad: displacement_block(cutoff, f) for lad, cutoff, f in zip(layout.ladders, layout.cutoffs, amplitudes)}
    # one amplitude per ladder, which no DisplacementParams can express
    disp = Displacement(layout, blocks)
    u = kron_factors(layout, disp.factors)

    def close(got, want, size):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=ORACLE_RTOL * max(1.0, np.max(size)))

    close(dense(op), dense_p, size)
    for state in (plain, disp.apply(plain)):
        psi, magnitude = dense_state(state), dense_state(state, magnitude=True)
        close(expectation(op, state), np.vdot(psi, dense_p @ psi), magnitude @ size @ magnitude)
    close(dense_state(disp.apply(plain)), u @ dense_state(plain), np.abs(u) @ dense_state(plain, magnitude=True))


@st.composite
def basis_sums_and_copies(draw):
    """A layout of two or three ladders with cutoffs 3-6, a polynomial of up
    to four monomials with words of up to four symbols, a basis sum of up
    to eight terms drawn from at most four supports (so terms and levels
    repeat), 25 copies displaced on one random subset of the ladders, an
    amplitude per copy and ladder with zeros among them, and a seed."""
    ladders = ORACLE_LADDERS[: draw(st.integers(min_value=2, max_value=3))]
    cutoffs = tuple(draw(st.integers(min_value=3, max_value=6)) for _ in ladders)
    part = st.floats(min_value=-2.0, max_value=2.0)
    symbol = st.builds(LadderSymbol, st.sampled_from(ladders), st.booleans())
    monomial = st.builds(
        LadderMonomial, st.builds(complex, part, part), st.lists(symbol, max_size=4).map(tuple)
    )
    polynomial = draw(st.lists(monomial, min_size=1, max_size=4).map(LadderPolynomial.from_terms))
    support = st.tuples(*(st.integers(min_value=0, max_value=cutoff) for cutoff in cutoffs))
    pool = draw(st.lists(support, min_size=1, max_size=4))
    occupations = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    moved = draw(st.lists(st.integers(min_value=0, max_value=len(ladders) - 1), min_size=1, unique=True))
    amplitude = st.one_of(st.just(0.0), st.floats(min_value=-1.5, max_value=1.5))
    copies = [{p: draw(amplitude) for p in moved} for _ in range(25)]
    layout = FockLayout(ladders, cutoffs)
    return layout, polynomial, occupations, copies, draw(st.integers(min_value=0, max_value=2**32 - 1))


# A ladder of 17 levels, as on the built-in config: there numpy's matmul
# picks a kernel that depends on the layout of the columns, so a batch row
# equals its batch of one only if every copy's columns are laid out alike.
# The drawn ladders, of at most 7 levels, do not show it.
A2, B1 = ORACLE_LADDERS[:2]
SEVENTEEN_LEVEL_CASE = (
    FockLayout((A2, B1), (3, 16)),
    LadderPolynomial.from_terms(
        [
            LadderMonomial(1.0 + 0.5j, (LadderSymbol(B1, True), LadderSymbol(B1, False))),
            LadderMonomial(
                -0.7 + 0.2j,
                (LadderSymbol(A2, True), LadderSymbol(B1, True), LadderSymbol(B1, False), LadderSymbol(A2, False)),
            ),
            LadderMonomial(0.3, ()),
        ]
    ),
    [(0, 0), (1, 1), (0, 2), (2, 1), (1, 0)],
    [{1: f} for f in np.linspace(-1.5, 1.5, 25)],
    7,
)


# Four ladders with b1 displaced: the terms share their occupations on the
# undisplaced a2, d1 and a3 in groups of up to three, so a monomial pairs a
# term with every term of a group, and a2+ d1 pairs two groups.
A3 = LadderId("a", 3)
SHARED_OCCUPATIONS_CASE = (
    FockLayout((A2, B1, ORACLE_LADDERS[2], A3), (3, 3, 2, 2)),
    LadderPolynomial.from_terms(
        [
            LadderMonomial(0.4 - 0.3j, ()),
            LadderMonomial(1.0 + 0.5j, (LadderSymbol(B1, True), LadderSymbol(B1, False))),
            LadderMonomial(-0.7 + 0.2j, (LadderSymbol(A2, True), LadderSymbol(ORACLE_LADDERS[2], False))),
            LadderMonomial(0.6, (LadderSymbol(A3, True), LadderSymbol(A3, False), LadderSymbol(B1, True))),
        ]
    ),
    [(1, 0, 1, 0), (1, 2, 1, 0), (2, 1, 0, 0), (1, 3, 1, 0), (0, 1, 2, 1), (2, 0, 0, 0), (0, 2, 2, 1)],
    [{1: f} for f in np.linspace(-1.2, 1.2, 25)],
    11,
)


# One term and one monomial: a single pair, whose complex factors numpy
# multiplies into a batch of copies with another kernel than into one copy
# unless each copy holds its own entry.
LONE_PAIR_CASE = (
    FockLayout(ORACLE_LADDERS, (3, 3, 3)),
    LadderPolynomial.from_terms([LadderMonomial(1j, ())]),
    [(0, 0, 0)],
    [{0: 0.0}] * 25,
    0,
)


@PROPERTY_SETTINGS
@given(basis_sums_and_copies())
@example(SEVENTEEN_LEVEL_CASE)
@example(SHARED_OCCUPATIONS_CASE)
@example(LONE_PAIR_CASE)
def test_occupation_contraction_matches_the_oracle_and_its_batches(case):
    layout, poly, occupations, copies, seed = case
    op = realize(poly, layout)
    rng = np.random.default_rng(seed)
    terms = len(occupations)
    amplitudes = rng.normal(size=terms) + 1j * rng.normal(size=terms)
    state = fockspace.basis_sum(layout, occupations, amplitudes)
    # each copy's blocks, keyed on position; a zero amplitude leaves its
    # ladder to the state's own columns, as displaced_energies does
    blocks = [{p: displacement_block(layout.cutoffs[p], f) for p, f in copy.items() if f != 0.0} for copy in copies]
    displacements = [Displacement(layout, {layout.ladders[p]: u for p, u in b.items()}) for b in blocks]
    displaced = [d.apply(state) for d in displacements]
    hand_built = StateVector(
        layout,
        amplitudes,
        tuple((np.arange(terms), rng.normal(size=(dim, terms)) + 1j * rng.normal(size=(dim, terms))) for dim in layout.dims),
    )
    hand_displaced = Displacement(layout, {layout.ladders[0]: displacement_block(layout.cutoffs[0], 0.7)}).apply(hand_built)

    # every monomial against the dense Kronecker product of its words
    matrices = [
        functools.reduce(np.kron, [word_matrix(*words[k]) for words, k in zip(op.words, index)]) for _, index in op.terms
    ]

    # 4 eps of the sum of the magnitudes of its terms; at subnormal
    # amplitudes the rounding is absolute, so the bound has that floor
    eps, floor = np.finfo(np.float64).eps, np.finfo(np.float64).smallest_normal
    for s in (state, *displaced, hand_built, hand_displaced):
        values = fockspace.monomial_values(op, s)[0]
        psi, size = dense_state(s), dense_state(s, magnitude=True)
        for value, matrix in zip(values, matrices):
            assert abs(value - np.vdot(psi, matrix @ psi)) <= 4 * eps * (size @ np.abs(matrix) @ size) + floor, value

    # a row of the batch of 25 equals its batch of one and the copy that
    # apply gives, of a basis sum and of a state of dense columns alike;
    # a ladder's stack of one, shared by every copy, gives the bits of its
    # repeated stack
    for source in (state, hand_displaced):
        stacks = copy_stacks(source, blocks)
        batch = fockspace.monomial_values(op, source, stacks, len(blocks))
        for row, b, d in zip(batch, blocks, displacements):
            assert row.tobytes() == fockspace.monomial_values(op, source, copy_stacks(source, [b]))[0].tobytes()
            assert row.tobytes() == fockspace.monomial_values(op, d.apply(source))[0].tobytes()
        for p, stack in stacks.items():
            shared = fockspace.monomial_values(op, source, {**stacks, p: stack[:1]}, len(blocks))
            repeated = {**stacks, p: np.repeat(stack[:1], len(blocks), axis=0)}
            assert shared.tobytes() == fockspace.monomial_values(op, source, repeated, len(blocks)).tobytes()


# Twenty ladders, a1, b1, d1, a2, ... b7, for the pair matcher's layouts.
PAIR_LADDERS = tuple(LadderId(f, i) for i in range(1, 8) for f in "abd")[:20]


@st.composite
def pair_cases(draw):
    """A layout of 1-20 ladders with cutoffs 1-600, a polynomial of up to
    six monomials with words of up to four symbols, so that some shifts
    leave a ladder, a basis sum of 0-12 terms drawn from at most five
    supports near one base, clipped so that levels sit at 0 and at the
    cutoff, and the ladders whose levels decide the pairs, those of the
    ladders a batch would not stack."""
    ladders = PAIR_LADDERS[: draw(st.integers(min_value=1, max_value=20))]
    cutoffs = tuple(draw(st.integers(min_value=1, max_value=600)) for _ in ladders)
    symbol = st.builds(LadderSymbol, st.sampled_from(ladders), st.booleans())
    monomial = st.builds(LadderMonomial, st.just(1.0), st.lists(symbol, max_size=4).map(tuple))
    polynomial = draw(st.lists(monomial, min_size=1, max_size=6).map(LadderPolynomial.from_terms))
    base = [draw(st.one_of(st.just(0), st.just(c), st.integers(min_value=0, max_value=c))) for c in cutoffs]
    step = st.dictionaries(st.integers(min_value=0, max_value=len(ladders) - 1), st.integers(min_value=-2, max_value=2), max_size=3)
    pool = [
        tuple(min(max(n + steps.get(p, 0), 0), c) for p, (n, c) in enumerate(zip(base, cutoffs)))
        for steps in draw(st.lists(step, min_size=1, max_size=5))
    ]
    occupations = draw(st.lists(st.sampled_from(pool), max_size=12))
    stacked = draw(st.sets(st.integers(min_value=0, max_value=len(ladders) - 1)))
    keyed = [p for p in range(len(ladders)) if p not in stacked]
    return FockLayout(ladders, cutoffs), polynomial, occupations, keyed


# Twenty ladders of 601 levels: read as the digits of one key, a term's
# levels would span 601^20, about 2^185, far past 2^62, so the radix oracle
# renumbers its keys; the words raise, lower and shift past the top level.
_a1, _b1, _d1, _a2 = PAIR_LADDERS[:4]
_b7 = PAIR_LADDERS[-1]
WIDE_PAIR_CASE = (
    FockLayout(PAIR_LADDERS, (600,) * 20),
    LadderPolynomial.from_terms(
        LadderMonomial(1.0, word)
        for word in [
            (),
            (LadderSymbol(_a1, True),),
            (LadderSymbol(_b1, True), LadderSymbol(_b7, False)),
            (LadderSymbol(_d1, True), LadderSymbol(_d1, True), LadderSymbol(_a2, False)),
        ]
    ),
    [
        (0, 600, 5, 1, *[300] * 15, 9),
        (1, 600, 5, 1, *[300] * 15, 9),
        (0, 600, 7, 0, *[300] * 15, 9),
        (0, 600, 5, 1, *[300] * 15, 9),
        (1, 600, 7, 0, *[300] * 15, 9),
        (0, 599, 5, 1, *[300] * 15, 10),
    ],
    list(range(20)),
)


# Twenty-four terms on three supports, each repeated eight times: numpy
# sorts up to 16 keys by insertion, stable whatever the kind asked for, so
# only a longer sum shows that equal rows keep their term order.
REPEATED_TERMS_CASE = (
    FockLayout(PAIR_LADDERS[:3], (4, 4, 600)),
    LadderPolynomial.from_terms(
        LadderMonomial(1.0, word)
        for word in [(), (LadderSymbol(_a1, True),), (LadderSymbol(_a1, False), LadderSymbol(_d1, True))]
    ),
    [(0, 2, 600), (1, 2, 600), (1, 2, 599)] * 8,
    [0, 2],
)


@PROPERTY_SETTINGS
@given(pair_cases())
@example(WIDE_PAIR_CASE)
@example(REPEATED_TERMS_CASE)
def test_pairs_are_the_brute_force_joins_and_the_radix_oracles(case):
    # the pairs (m, s, t) whose levels on the keyed ladders monomial m's
    # words shift from t's to s's, ordered by m, t, then s; with no keyed
    # ladder every pair joins
    layout, poly, occupations, keyed = case
    op = realize(poly, layout)
    terms = len(occupations)
    state = fockspace.basis_sum(layout, occupations, np.ones(terms))
    levels = {p: source[columns] for p, (columns, source) in enumerate(state.ladders) if p in keyed}
    joined = [
        (m, s, t)
        for m, (_, index) in enumerate(op.terms)
        for t in range(terms)
        for s in range(terms)
        if all(occupations[s][p] == occupations[t][p] + op.words[p][index[p]][0] for p in keyed)
    ]
    pairs = fockspace._pairs(op, levels, terms)
    assert list(zip(*(a.tolist() for a in pairs))) == joined
    assert [(a.dtype, a.tobytes()) for a in pairs] == [(a.dtype, a.tobytes()) for a in radix_pairs(op, levels, terms)]


# b1 moves with f1 and a2 with f2, as b_q and a_k do in the model
SHIFT_AMPLITUDES = {LadderId("b", 1): 0, LadderId("a", 2): 1}
SHIFT_CUTOFF = 8


@st.composite
def shift_cases(draw):
    """A polynomial of up to four monomials, each a word of up to four
    phase-free symbols on one or two ladders, and an admissible (f1, f2)."""
    ladders = draw(st.sampled_from([(LadderId("a", 2),), (LadderId("b", 1),), (LadderId("a", 2), LadderId("b", 1))]))
    part = st.floats(min_value=-2.0, max_value=2.0)
    symbol = st.builds(LadderSymbol, st.sampled_from(ladders), st.booleans())
    monomial = st.builds(
        LadderMonomial, st.builds(complex, part, part), st.lists(symbol, max_size=4).map(tuple)
    )
    polynomial = draw(st.lists(monomial, min_size=1, max_size=4).map(LadderPolynomial.from_terms))
    limit = max_admissible_amplitude(SHIFT_CUTOFF)
    amplitude = st.floats(min_value=-limit, max_value=limit)
    return ladders, polynomial, (draw(amplitude), draw(amplitude))


@PROPERTY_SETTINGS
@given(shift_cases())
def test_shift_groups_sum_to_the_conjugated_operator(case):
    # U+ p U on the window of levels 0..cutoff/2, conjugated densely on a
    # work frame whose window columns of U lose under 1e-20 of their weight
    ladders, p, f = case
    levels = work_frame_size(SHIFT_CUTOFF)
    layout = FockLayout(ladders, (levels - 1,) * len(ladders))
    u = functools.reduce(np.kron, [displacement_block(levels - 1, f[SHIFT_AMPLITUDES[lad]]) for lad in ladders])
    window = np.flatnonzero(np.all(row_major_occupations(layout) <= SHIFT_CUTOFF // 2, axis=1))

    def columns(poly, vectors):
        return kron_oracle(poly, layout) @ vectors

    conjugated = u[:, window].T @ columns(p, u[:, window])
    basis = np.eye(layout.dimension)[:, window]
    shifted = sum(
        f[0] ** i * f[1] ** j * columns(group, basis)[window] for (i, j), group in shift(p, SHIFT_AMPLITUDES).items()
    )
    magnitudes = LadderPolynomial(tuple(LadderMonomial(abs(t.coefficient), t.symbols) for t in p.terms))
    size = np.abs(u[:, window]).T @ columns(magnitudes, np.abs(u[:, window])).real
    np.testing.assert_allclose(shifted, conjugated, rtol=0.0, atol=ORACLE_RTOL * max(1.0, np.max(size)))


@st.composite
def exact_quadratics(draw):
    """3-30 distinct points laid out as a sweep lays them out, on a grid of
    step 2^k jittered by up to a quarter step and offset from zero by up to
    50 steps per point, and a quadratic whose coefficients are 0 or span 17
    decades, so that no value is subnormal and every rounding is relative."""
    n = draw(st.integers(min_value=3, max_value=30))
    step = 2.0 ** draw(st.integers(min_value=-30, max_value=30))
    start = draw(st.floats(min_value=-50.0, max_value=50.0)) * n * step
    jitter = draw(st.lists(st.floats(min_value=-0.25, max_value=0.25), min_size=n, max_size=n))
    mantissa = st.floats(min_value=0.1, max_value=1.0) | st.floats(min_value=-1.0, max_value=-0.1) | st.just(0.0)
    coefficient = st.builds(lambda m, e: m * 10.0**e, mantissa, st.integers(-8, 8))
    return [start + (i + j) * step for i, j in enumerate(jitter)], draw(st.tuples(coefficient, coefficient, coefficient))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(exact_quadratics())
def test_the_sweep_fit_recovers_an_exact_quadratic_to_rounding(case):
    # y is the quadratic rounded at each point, so the fit can only be as
    # good as the data: its c2 within 64 eps of the data's magnitude over
    # the squared half-width, its largest residual within 64 eps of that
    # magnitude.  On 20,000 such draws the fit reached 3.6e-16 and 1.1e-15
    # of them, np.polyfit 1.8e-15 and 3.4e-15.
    xs, (a0, a1, a2) = case
    ys = [a0 + a1 * x + a2 * x * x for x in xs]
    c2, residual = probe.quadratic_fit(xs, ys)
    magnitude = max(abs(a0) + abs(a1 * x) + abs(a2) * x * x for x in xs)
    half = 0.5 * (max(xs) - min(xs))
    bound = 64 * np.finfo(np.float64).eps * magnitude
    assert abs(c2 - a2) <= bound / (half * half)
    assert residual * (1.0 + max(map(abs, ys))) <= bound


def test_shifted_hamiltonian_has_the_groups_of_the_energy_polynomial():
    free, cubic, quartic, _ = coeffs._shifted_parts(default_config())
    # f1, f2, f1 f2, f2^2, f2^3, f2^4, f1^2 and f1^2 f2; E_ref is the
    # expectation of H itself, so no (0, 0) group is kept
    assert set(free) | set(cubic) | set(quartic) == {
        (1, 0), (0, 1), (1, 1), (0, 2), (0, 3), (0, 4), (2, 0), (2, 1)
    }


_FALSIFIED_MODULE = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_falsified(n):
    assert n < 10


def test_after_the_falsified_property():
    pass
"""


def test_a_falsified_property_prints_its_example_and_the_session_goes_on(tmp_path):
    # hypothesis reports a failure through libcst, whose import warns; under
    # `filterwarnings = error` that warning used to end the session (exit 3).
    (tmp_path / "test_falsified.py").write_text(_FALSIFIED_MODULE)
    ini = Path(__file__).resolve().parents[1] / "pytest.ini"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ini), "--rootdir", str(tmp_path), "-rA", "test_falsified.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "PASSED test_falsified.py::test_after_the_falsified_property" in out
