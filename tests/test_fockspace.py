import ast
import functools
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import fockbox
from fockbox import coeffs, fockspace
from fockbox.errors import LayoutError
from fockbox.fockspace import (
    FockLayout,
    LadderId,
    OperatorMatrix,
    StateVector,
    basis_state,
    basis_sum,
    displaced_columns,
    displacement_block,
    displacement_blocks,
    expectation,
    leakage_admissible,
    max_admissible_amplitude,
    poisson_tail,
    vacuum,
    word_gram,
    word_weights,
)
from fockbox.displace import Displacement, work_frame_size
from fockbox.ladderalg import LadderMonomial, LadderPolynomial, LadderSymbol, constant, realize
from fockbox.model import CUTOFF_CAP, ModelConfig, build_layout, default_config, hamiltonian_polynomial
from fockbox.probe import run_verification
from conftest import clear_package_caches, package_caches

A2 = LadderId("a", 2)
B1 = LadderId("b", 1)
D1 = LadderId("d", 1)


def small_layout(cutoff=3):
    return FockLayout((A2, B1, D1), (cutoff, cutoff, cutoff))


def lowering_block(cutoff: int) -> np.ndarray:
    """Dense single-ladder lowering block: <n-1|a|n> = sqrt(n), top row kept."""
    return np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)


def raising_block(cutoff: int) -> np.ndarray:
    """Exact transpose of the lowering block (real entries)."""
    return lowering_block(cutoff).T.copy()


def chain(cutoff: int, daggers) -> np.ndarray:
    """The explicit left-to-right product of raising (True) and lowering
    (False) blocks on one ladder; the identity for an empty word."""
    blocks = [raising_block(cutoff) if dagger else lowering_block(cutoff) for dagger in daggers]
    return functools.reduce(np.matmul, blocks, np.eye(cutoff + 1))


def word_matrix(shift: int, weights: np.ndarray) -> np.ndarray:
    """The single-ladder matrix of a word: column n holds weights[n] in row
    n + shift."""
    dim = len(weights)
    matrix = np.zeros((dim, dim))
    for n, weight in enumerate(weights):
        if 0 <= n + shift < dim:
            matrix[n + shift, n] = weight
    return matrix


def dense(op: OperatorMatrix) -> np.ndarray:
    """The full matrix of op on the joint space: each term's coefficient
    times the Kronecker product of its words."""
    total = np.zeros((op.layout.dimension, op.layout.dimension), dtype=np.complex128)
    for coefficient, index in op.terms:
        total += coefficient * functools.reduce(np.kron, [word_matrix(*words[k]) for words, k in zip(op.words, index)])
    return total


def term_factors(state: StateVector) -> list[np.ndarray]:
    """Per ladder, the (dim, T) array whose column t is term t's vector: the
    unit columns at a ladder's levels, or its distinct columns, taken at
    each term's column index."""
    factors = []
    for (columns, source), dim in zip(state.ladders, state.layout.dims):
        distinct = np.eye(dim)[:, source] if source.ndim == 1 else source
        factors.append(distinct[:, columns])
    return factors


def copy_stacks(state: StateVector, blocks: list[dict[int, np.ndarray]]) -> dict[int, np.ndarray]:
    """The stacks of monomial_values for copies of the state that carry
    blocks[b][p] on the ladder at position p: on every ladder some copy
    displaces, each copy's columns, the state's own where it has no block
    there (unit columns at levels)."""
    stacks = {}
    for p in sorted({p for b in blocks for p in b}):
        source = state.ladders[p][1]
        own = np.eye(state.layout.dims[p])[:, source] if source.ndim == 1 else source
        stacks[p] = np.stack([displaced_columns(b[p], source) if p in b else own for b in blocks])
    return stacks


def dense_state(state: StateVector, magnitude: bool = False) -> np.ndarray:
    """The full vector of a product-form state on the joint space or, with
    magnitude, the vector of its terms' magnitudes, which bounds the
    rounding of any sum over its terms."""
    part = np.abs if magnitude else np.asarray
    factors = [part(v) for v in term_factors(state)]
    columns = [functools.reduce(np.kron, [v[:, t] for v in factors]) for t in range(len(state.amplitudes))]
    return np.column_stack(columns) @ part(state.amplitudes)


def radix_pairs(op: OperatorMatrix, levels: dict[int, np.ndarray], terms: int) -> tuple[np.ndarray, ...]:
    """The pair matcher fockspace._pairs replaced, kept as its bitwise
    oracle: a term's levels are the digits of one int64 key, and t's
    partners have t's key plus the monomial's shifts read alike.  A radix
    above the levels by the largest shift makes a key spell one set of
    levels and keeps the key of a level off the ladder negative.  Near
    int64's range the keys are renumbered, each partners' key kept as its
    lag behind t's."""
    monomials = len(op.terms)
    if not levels:
        m, t, s = np.indices((monomials, terms, terms)).reshape(3, -1)
        return m, s, t
    key, shift, lag, stride, size = np.zeros(terms, dtype=np.int64), np.zeros(monomials, dtype=np.int64), 0, 1, 1
    for position, level in levels.items():
        radix = op.layout.dims[position] + max(abs(d) for d, _ in op.words[position])
        if size * radix >= 2**62:
            wanted = lag * stride + key + shift[:, None]
            known = np.unique(key)
            index = np.searchsorted(known, wanted).clip(max=len(known) - 1)
            key, shift, stride, size = np.searchsorted(known, key), np.zeros_like(shift), 1, len(known)
            lag = np.where(known[index] == wanted, index, -1) - key
        key = key * radix + level
        shift = shift * radix + op.word_stacks[position][0][op.word_indices[:, position]]
        stride, size = stride * radix, size * radix
    wanted = lag * stride + key + shift[:, None]
    order = np.argsort(key, kind="stable")
    first = np.searchsorted(key[order], wanted)
    count = np.searchsorted(key[order], wanted, side="right") - first
    m, t = np.nonzero(count)
    n = count[m, t]
    start = np.repeat(first[m, t] - np.cumsum(n) + n, n)
    return np.repeat(m, n), order[start + np.arange(len(start))], np.repeat(t, n)


def row_major_occupations(layout: FockLayout) -> np.ndarray:
    """(dimension, ladders) occupations of the joint basis, last ladder fastest."""
    return np.indices(layout.dims).reshape(len(layout.dims), -1).T


def kron_oracle(poly: LadderPolynomial, layout: FockLayout) -> np.ndarray:
    """Dense matrix of poly on layout, built independently of realize: each
    monomial is the Kronecker product over the ladders of the explicit chain
    of lowering and raising blocks its symbols name on that ladder."""
    total = np.zeros((layout.dimension, layout.dimension), dtype=np.complex128)
    for t in poly.terms:
        for s in t.symbols:
            layout.position(s.ladder)
        factors = [
            chain(cutoff, [s.dagger for s in t.symbols if s.ladder == ladder])
            for ladder, cutoff in zip(layout.ladders, layout.cutoffs)
        ]
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
    # the low-occupation states come in the joint basis order, in which the
    # occupation of the last ladder advances the basis index by 1
    everything = [tuple(np.unravel_index(i, layout.dims)) for i in range(layout.dimension)]
    for total in range(10):
        assert layout.occupations(total) == [occ for occ in everything if sum(occ) <= total], total
    assert layout.occupations(1) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_layout_dimension_is_exact_past_int64():
    # an int64 product of 16 ladders of 17 levels wraps to -6679040345461786367
    layout = FockLayout(tuple(LadderId("a", n) for n in range(1, 17)), (16,) * 16)
    assert layout.dimension == 17**16 > np.iinfo(np.int64).max
    assert len(layout.occupations(2)) == 1 + 16 + 16 * 17 // 2


def test_layout_bounds_each_cutoff():
    # the joint size is no bound: one ladder at 6,000 beside two at 16 gives
    # 1.7e6 states, yet its work frames would diagonalize 17,670 levels.  The
    # bound is on a config's cutoffs: build_layout rejects them, while a
    # layout built by hand takes them.
    assert build_layout(default_config().with_cutoff(CUTOFF_CAP)).dimension == (CUTOFF_CAP + 1) ** 3
    for overrides in ({B1: CUTOFF_CAP + 1}, {B1: 6000}, {A2: 200, B1: 200, D1: CUTOFF_CAP + 1}):
        config = ModelConfig(cutoff_overrides=overrides)
        with pytest.raises(LayoutError, match=f"<= {CUTOFF_CAP}"):
            build_layout(config)
        layout = FockLayout(config.ladders(), tuple(config.cutoff_for(lad) for lad in config.ladders()))
        assert max(layout.cutoffs) > CUTOFF_CAP


def test_a_hand_built_layout_holds_states_on_a_ladder_past_the_bound():
    # a ladder of 2,500 levels, as a displaced ladder at a large amplitude
    # needs: its states and operators are built as on any other layout
    config = default_config()
    layout = FockLayout(config.ladders(), (2499, 16, 16))
    top = basis_sum(layout, [(0, 0, 0), (2499, 1, 0), (2499, 0, 16)], [0.6, 0.0, 0.8])
    assert [list(levels) for _, levels in top.ladders] == [[0, 2499], [0, 1], [0, 16]]
    assert expectation(realize(hamiltonian_polynomial(config), layout), vacuum(layout)) == 0


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
    number = realize(word(B1, True, False), layout)
    n_b = dense(number)
    occ = row_major_occupations(layout)[:, 1]
    # the chain b+ b squares each root, one rounding per entry
    np.testing.assert_allclose(n_b, np.diag(occ).astype(complex), rtol=1e-15, atol=0)
    eye = np.eye(4)
    assert np.array_equal(n_b, np.kron(np.kron(eye, raising_block(3) @ lowering_block(3)), eye))
    # it counts the quanta of every basis state
    for occupations in row_major_occupations(layout):
        assert expectation(number, basis_state(layout, occupations)) == pytest.approx(occupations[1], rel=1e-15)
    # distinct basis states are orthonormal terms, though one ladder's
    # columns are not: |000> and |001> share a2's and b1's
    low = basis_sum(layout, layout.occupations(1), [1.0, 2.0, 3.0, 4.0])
    overlaps = [v.conj().T @ v for v in term_factors(low)]
    assert not np.array_equal(overlaps[0], np.eye(4))
    assert np.array_equal(functools.reduce(np.multiply, overlaps), np.eye(4))
    assert expectation(realize(constant(1.0), layout), low) == 30.0


def test_realize_matches_explicit_kron():
    layout = small_layout(2)
    eye = np.eye(3)
    for daggers in ((True,), (False, True), (True, True, False)):
        x = chain(2, daggers)
        realized = dense(realize(word(B1, *daggers), layout))
        assert np.array_equal(realized, np.kron(np.kron(eye, x), eye).astype(complex))
        assert np.array_equal(realized, kron_oracle(word(B1, *daggers), layout))
    with pytest.raises(LayoutError):
        realize(word(LadderId("b", 7), True), layout)


@pytest.mark.parametrize("cutoff", [1, 5, 16])
def test_ladder_product_is_the_explicit_chain(cutoff):
    # on two levels a word of three symbols runs off either end entirely;
    # on identity columns every entry of word_gram is one product of exact
    # factors, so it is the chain bit for bit
    dim = cutoff + 1
    for length in range(5):
        for daggers in itertools.product((False, True), repeat=length):
            word, matrix = word_weights(dim, daggers), chain(cutoff, daggers)
            for window in sorted({1, dim // 2 + 1, dim}):
                got = word_gram(np.eye(dim)[:, :window], word)
                want = matrix[:window, :window]
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (daggers, window)


@pytest.mark.parametrize("cutoff", [1, 5, 16])
def test_word_rows_is_the_product_with_the_word(cutoff):
    # v+ W v on random complex columns: a sum of at most dim products, each
    # a few roundings from the chain's, bounded by the Gram of the magnitudes
    dim = cutoff + 1
    rng = np.random.default_rng(cutoff)
    v = rng.normal(size=(dim, 7)) + 1j * rng.normal(size=(dim, 7))
    for length in range(5):
        for daggers in itertools.product((False, True), repeat=length):
            word, matrix = word_weights(dim, daggers), chain(cutoff, daggers)
            got, want = word_gram(v, word), v.conj().T @ matrix @ v
            size = np.abs(v).T @ np.abs(matrix) @ np.abs(v)
            assert got.shape == want.shape == (7, 7)
            assert np.all(np.abs(got - want) <= 4 * np.finfo(np.float64).eps * size), daggers


@pytest.mark.parametrize("cutoff", [1, 5, 16])
def test_word_weights_are_the_columns_of_the_explicit_chain(cutoff):
    levels = np.arange(cutoff + 1)
    for length in range(5):
        for daggers in itertools.product((False, True), repeat=length):
            shift, weights = word_weights(cutoff + 1, daggers)
            assert shift == sum(1 if d else -1 for d in daggers)
            matrix = chain(cutoff, daggers)
            inside = (levels + shift >= 0) & (levels + shift <= cutoff)
            assert np.array_equal(matrix[(levels + shift)[inside], levels[inside]], weights[inside]), daggers
            assert not weights[~inside].any()
            assert np.count_nonzero(matrix) == np.count_nonzero(weights)


def test_word_weights_are_memoized_and_read_only():
    shift, weights = word_weights(17, (True, False))
    assert word_weights(17, (True, False))[1] is weights
    with pytest.raises(ValueError):
        weights[0] = 1.0
    assert shift == 0 and weights[0] == 0.0


def test_creator_annihilator_matrix_elements():
    layout = small_layout()
    state = basis_state(layout, {B1: 1})
    # <psi| b+ |psi> of (|1> + |2>) / sqrt 2 is <2| b+ |1> / 2
    pair = basis_sum(layout, [(0, 1, 0), (0, 2, 0)], [math.sqrt(0.5)] * 2)
    assert expectation(realize(word(B1, True), layout), pair) == pytest.approx(math.sqrt(2) / 2)
    # and <psi| b |psi> of (|0> + |1>) / sqrt 2 is <0| b |1> / 2
    pair = basis_sum(layout, [(0, 0, 0), (0, 1, 0)], [math.sqrt(0.5)] * 2)
    assert expectation(realize(word(B1, False), layout), pair) == pytest.approx(0.5)
    # b+ b counts the quantum, b b+ counts it plus one
    for daggers, count in (((True, False), 1.0), ((False, True), 2.0)):
        op = realize(word(B1, *daggers), layout)
        assert expectation(op, state) == pytest.approx(count, rel=1e-15)


def test_words_that_leave_every_level_have_zero_expectation():
    # on two levels, three raising or lowering symbols move every level off
    # the ladder, whatever the sign of the shift
    layout = FockLayout((A2,), (1,))
    state = basis_sum(layout, [(0,), (1,)], [0.6, 0.8])
    for daggers in ((True,) * 3, (False,) * 3, (True, True), (False, False)):
        assert expectation(realize(word(A2, *daggers), layout), state) == 0.0
    assert expectation(realize(word(A2, True, False), layout), state) == pytest.approx(0.64, rel=1e-15)


def test_operator_layout_mismatch():
    op = realize(constant(1.0), small_layout())
    assert expectation(op, vacuum(small_layout())) == 1.0
    with pytest.raises(LayoutError):
        expectation(op, vacuum(small_layout(4)))


def test_an_empty_state_has_zero_expectation():
    layout = small_layout()
    op = realize(constant(1.0), layout)
    assert expectation(op, basis_sum(layout, [], [])) == 0.0
    with pytest.raises(LayoutError, match="different layouts"):
        fockspace.monomial_values(op, vacuum(small_layout(4)))


def test_a_batch_of_no_copies_has_no_rows():
    layout = small_layout()
    poly = LadderPolynomial.from_terms([LadderMonomial(1.0, ()), LadderMonomial(0.5, (LadderSymbol(B1, True),))])
    op = realize(poly, layout)
    ladders = tuple((np.zeros(2, dtype=int), np.eye(4)[:, :1]) for _ in layout.dims)
    for state in (basis_sum(layout, [(0, 1, 0), (1, 0, 0)], [0.6, 0.8]), StateVector(layout, np.ones(2), ladders)):
        values = fockspace.monomial_values(op, state, copies=0)
        assert values.shape == (0, 2) and values.dtype == np.complex128
    # a state of no terms has zero values, with stacks or without
    empty = basis_sum(layout, [], [])
    values = fockspace.monomial_values(op, empty, copy_stacks(empty, [{1: displacement_block(3, 0.4)}, {}]), 2)
    assert values.shape == (2, 2) and not values.any()


def test_a_stack_must_name_a_ladder_of_the_layout_and_fit_it():
    layout = small_layout()
    op = realize(word(B1, True, False), layout)
    state = basis_sum(layout, [(0, 1, 0), (0, 2, 0)], [0.6, 0.8])
    stack = copy_stacks(state, [{1: displacement_block(3, 0.4)}])[1]
    assert stack.shape == (1, 4, 2)
    plain = fockspace.monomial_values(op, state)
    assert fockspace.monomial_values(op, state, {1: stack}).tobytes() != plain.tobytes()
    # a stack at a position the layout does not have is not dropped
    for position in (7, 3, -1):
        with pytest.raises(LayoutError, match=f"no ladder at position {position}"):
            fockspace.monomial_values(op, state, {position: stack})
    # a stack of another shape than the ladder's distinct columns, for one
    # copy or for a batch of copies it does not match
    for stacks, copies in (({1: stack[:, :, :1]}, 1), ({1: stack[0]}, 1), ({1: np.concatenate([stack] * 3)}, 2)):
        shape = stacks[1].shape
        message = f"ladder 1 takes a (1 or {copies}, 4, 2) stack, not {shape}"
        with pytest.raises(LayoutError, match=re.escape(message)):
            fockspace.monomial_values(op, state, stacks, copies)


@pytest.mark.parametrize(
    "cutoff, words, steps",
    [
        # a shift on most ladders, so most partners are not there; the last
        # term spells a2 + 1, a3 = 0, what a3+ would give past a3's top level
        # if the levels were digits of one key with no room for the shift
        (
            300,
            [(), ((0, True), (7, False)), ((1, True), (1, True), (4, False)), ((2, True),)],
            [{}, {0: 1, 7: -1}, {1: 2, 4: -1}, {}, {0: 1}, {1: 2, 4: -1, 6: 1}, {7: -1}, {1: 1, 2: -300}],
        ),
        # 512 levels and no shift after a1: as a digit of one int64 key,
        # a1's level would weigh 2^63 and its levels 5 and 7 spell one key
        (511, [(), ((7, True), (7, False)), ((0, True), (0, True))], [{}, {0: 2}, {7: 1}, {}, {0: -1}]),
    ],
    ids=["shifts", "powers_of_two"],
)
def test_pairs_on_wide_ladders_are_those_of_their_unit_columns(cutoff, words, steps):
    # eight wide ladders: the terms' levels, read as the digits of one key,
    # would outgrow int64, and the radix oracle renumbers its keys on the
    # way.  A row key holds them as they are.  A monomial joins exactly the
    # pairs whose levels its word shifts apart, and unit columns on every
    # ladder, which join every pair, give the same values bit for bit.
    layout = FockLayout(tuple(LadderId(f, i) for f in "ab" for i in range(1, 5)), (cutoff,) * 8)
    symbols = [tuple(LadderSymbol(layout.ladders[p], dagger) for p, dagger in word) for word in words]
    op = realize(LadderPolynomial.from_terms([LadderMonomial(1.0 - 0.5j, word) for word in symbols]), layout)
    base = (5, 7, cutoff, 0, 2, 150, cutoff - 1, 3)
    occupations = [tuple(n + step.get(i, 0) for i, n in enumerate(base)) for step in steps]
    rng = np.random.default_rng(3)
    state = basis_sum(layout, occupations, rng.normal(size=len(steps)) + 1j * rng.normal(size=len(steps)))
    levels = {p: source[columns] for p, (columns, source) in enumerate(state.ladders)}
    joined = {
        (m, s, t)
        for m, (_, index) in enumerate(op.terms)
        for s, t in itertools.product(range(len(steps)), repeat=2)
        if all(occupations[s][p] == occupations[t][p] + op.words[p][k][0] for p, k in enumerate(index))
    }
    pairs = fockspace._pairs(op, levels, len(steps))
    assert set(zip(*(a.tolist() for a in pairs))) == joined
    assert [a.tobytes() for a in pairs] == [a.tobytes() for a in radix_pairs(op, levels, len(steps))]
    values = fockspace.monomial_values(op, state)[0]
    unit = fockspace.monomial_values(op, state, copy_stacks(state, [{p: np.eye(cutoff + 1) for p in range(8)}]))[0]
    assert values.tobytes() == unit.tobytes() and np.count_nonzero(values) >= 2


def test_basis_sums_share_their_support_and_copies_carry_blocks():
    layout = small_layout()
    op = realize(constant(1.0), layout)
    state = basis_sum(layout, [(0, 1, 0), (0, 2, 0), (1, 1, 0)], [0.6, 0.0, 0.8])
    u = displacement_block(3, 0.4)
    # per ladder, each term's column index into the ascending distinct levels
    assert [list(levels) for _, levels in state.ladders] == [[0, 1], [1, 2], [0]]
    assert [list(columns) for columns, _ in state.ladders] == [[0, 0, 1], [0, 1, 0], [0, 0, 0]]
    assert basis_sum(layout, [(0, 1, 0)], [1.0]).ladders is basis_state(layout, {B1: 1}).ladders
    values = fockspace.monomial_values(op, state, copy_stacks(state, [{1: u}, {}]), 2)
    assert values[1] == expectation(op, state)
    assert values[0] == pytest.approx(expectation(op, state), rel=1e-15)
    # apply keeps the column indices and takes the block's columns at the levels
    displaced = Displacement(layout, {B1: u}).apply(state)
    assert displaced.ladders[0] is state.ladders[0] and displaced.ladders[2] is state.ladders[2]
    assert displaced.ladders[1][0] is state.ladders[1][0]
    assert displaced.ladders[1][1].tobytes() == u[:, [1, 2]].tobytes()
    assert values[0].tobytes() == fockspace.monomial_values(op, displaced)[0].tobytes()
    # a copy of a displaced state carries its block on the displaced columns
    twice = Displacement(layout, {B1: u}).apply(displaced)
    again = fockspace.monomial_values(op, displaced, copy_stacks(displaced, [{1: u}, {}]), 2)
    assert again[0].tobytes() == fockspace.monomial_values(op, twice)[0].tobytes()
    assert again[1].tobytes() == values[0].tobytes()
    with pytest.raises(LayoutError, match="one amplitude per basis state"):
        basis_sum(layout, [(0, 1, 0)], [1.0, 0.0])


def test_state_vector_basics():
    layout = small_layout()
    ladders = tuple((np.arange(2), np.zeros((4, 2), dtype=complex)) for _ in range(3))
    StateVector(layout, np.zeros(2, dtype=complex), ladders)
    with pytest.raises(LayoutError):
        StateVector(layout, np.zeros(3, dtype=complex), ladders)
    with pytest.raises(LayoutError):
        StateVector(layout, np.zeros(2, dtype=complex), ladders[:2])
    with pytest.raises(LayoutError):
        StateVector(layout, np.zeros((2, 1), dtype=complex), ladders)
    with pytest.raises(LayoutError):
        basis_state(layout, (0, 0, 4))
    with pytest.raises(LayoutError):
        basis_state(layout, {LadderId("b", 9): 1})
    state = basis_state(layout, {B1: 2, D1: 1})
    want = np.zeros(layout.dimension)
    want[np.ravel_multi_index((0, 2, 1), layout.dims)] = 1.0
    assert np.array_equal(dense_state(state), want)
    assert np.array_equal(dense_state(vacuum(layout)), np.eye(layout.dimension)[0])


def test_a_basis_support_is_range_checked_once_for_its_layout():
    layout = small_layout()
    state = basis_sum(layout, [(0, 3, 1), (1, 0, 0)], [0.6, 0.8])
    # a support on another layout, or with another number of terms, fails the checks
    with pytest.raises(LayoutError, match="has no level"):
        StateVector(FockLayout(layout.ladders, (1, 2, 1)), state.amplitudes, state.ladders)
    with pytest.raises(LayoutError, match="one column index per term"):
        StateVector(layout, state.amplitudes[:1], state.ladders)
    with pytest.raises(LayoutError, match="outside 0..cutoff"):
        basis_sum(layout, [(0, 4, 0)], [1.0])


def test_basis_sum_rejects_occupations_of_another_width():
    layout = small_layout()
    for occupations in ([(0, 1)], [(0, 1, 0, 0)], [(0, 1, 0), (0, 1)]):
        with pytest.raises(LayoutError, match="one level for each of the 3 ladders"):
            basis_sum(layout, occupations, [1.0] * len(occupations))


def test_state_rejects_a_column_index_outside_its_columns():
    layout = small_layout()
    for source in (np.array([0, 2]), np.zeros((4, 2))):
        for bad in (2, -1):
            ladders = ((np.array([0, bad]), source),) + tuple((np.arange(2), np.array([0, 1])) for _ in range(2))
            with pytest.raises(LayoutError, match="outside the ladder's 2 distinct columns"):
                StateVector(layout, np.ones(2, dtype=complex), ladders)
    # so is a level outside the ladder
    for levels in (np.array([0, 4]), np.array([-1, 0])):
        ladders = ((np.arange(2), levels),) + tuple((np.arange(2), np.array([0, 1])) for _ in range(2))
        with pytest.raises(LayoutError, match="has no level"):
            StateVector(layout, np.ones(2, dtype=complex), ladders)


def test_state_rejects_columns_of_another_dimension():
    layout = small_layout()
    for columns in (np.zeros((5, 2)), np.zeros((3, 2)), np.zeros((4, 2, 1))):
        ladders = ((np.arange(2), columns),) + tuple((np.arange(2), np.array([0, 1])) for _ in range(2))
        with pytest.raises(LayoutError, match="takes \\(K,\\) levels or \\(dim, K\\) columns"):
            StateVector(layout, np.ones(2, dtype=complex), ladders)


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
        if amplitude >= 0:
            assert u.tobytes() == fresh.tobytes()
        else:
            # the parity image equals a direct diagonalization at -f up to
            # the sign of an entry that is exactly zero
            assert np.array_equal(u, fresh)


def test_displacement_block_ulp_apart_amplitudes_differ():
    # keeps the cache-key cases above from passing on equal blocks
    low = displacement_block(16, -1.0 / 3.0)
    high = displacement_block(16, math.nextafter(-1.0 / 3.0, 0.0))
    assert low.tobytes() != high.tobytes()


@pytest.mark.parametrize("cutoff, columns", [(16, None), (64, None), (work_frame_size(64) - 1, 33)])
@pytest.mark.parametrize("depth", [1, 7, 25])
def test_a_stacked_build_is_the_single_blocks_bit_for_bit(cutoff, columns, depth):
    # negative, zero and positive amplitudes, each |f| of the odd grids twice
    limit = max_admissible_amplitude(cutoff)
    grids = [[-limit], [0.0], [0.7 * limit]] if depth == 1 else [np.linspace(-limit, limit, depth)]
    for amplitudes in grids:
        stack = displacement_blocks(cutoff, amplitudes, columns)
        assert stack.shape == (depth, cutoff + 1, cutoff + 1 if columns is None else columns)
        for block, f in zip(stack, amplitudes):
            assert block.tobytes() == displacement_block(cutoff, f, columns).tobytes()


@pytest.mark.parametrize("zero", [0.0, -0.0])
@pytest.mark.parametrize("cutoff, columns", [(16, None), (16, 5), (64, None), (work_frame_size(64) - 1, 33)])
def test_a_block_at_amplitude_zero_is_the_exact_identity(cutoff, columns, zero):
    # not the rounded V V^T of the eigenbasis: a zero row of a stack too,
    # with the other rows still the single blocks
    eye = np.eye(cutoff + 1, cutoff + 1 if columns is None else columns)
    fockspace._displacement_block.cache_clear()
    assert displacement_block(cutoff, zero, columns).tobytes() == eye.tobytes()
    amplitudes = [0.5, zero, -0.5, -zero, 0.25, zero]
    stack = displacement_blocks(cutoff, amplitudes, columns)
    for block, f in zip(stack, amplitudes):
        if f == 0.0:
            assert block.tobytes() == eye.tobytes()
        else:
            assert block.tobytes() == displacement_block(cutoff, f, columns).tobytes()
    assert displacement_blocks(cutoff, [zero, -zero], columns).tobytes() == np.stack([eye, eye]).tobytes()


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

    clear_package_caches()
    cold = summary()
    assert fockspace._displacement_block.cache_info().hits > 0
    assert summary() == cold
    # the distinct words of a run fit the bound: none is built twice
    words = fockspace.word_weights.cache_info()
    assert words.misses == words.currsize < fockspace.WORD_WEIGHTS_CACHE


def test_only_batches_with_stacks_keep_their_pair_plans():
    # a state's coefficients are contracted once per state, so their plan
    # is not kept; a verify run keeps the plan of each reference state's
    # central-identity batch, which carries stacks
    clear_package_caches()
    config = default_config()
    state = coeffs.reference_state(config, "seeded:7")
    before = fockspace._pair_plan.cache_info().currsize
    coeffs.coefficients(config, state)
    assert fockspace._pair_plan.cache_info().currsize == before
    clear_package_caches()
    run_verification(config)
    assert fockspace._pair_plan.cache_info().currsize == 4


def test_every_lru_cache_is_bounded():
    caches = {name: cache.cache_parameters()["maxsize"] for name, cache in package_caches().items()}
    assert {
        "fockbox.fockspace._displacement_block",
        "fockbox.fockspace._phase_pattern",
        "fockbox.displace._factor_defects",
        "fockbox.displace._field_terms",
        "fockbox.fockspace.word_weights",
        "fockbox.model.field_algebra",
        "fockbox.fockspace._x_basis",
        "fockbox.displace.work_frame_size",
        "fockbox.displace._frame_gap",
        "fockbox.displace._shift_layers",
        "fockbox.fockspace.max_admissible_amplitude",
        "fockbox.coeffs._realized_parts",
        "fockbox.coeffs._reference",
        "fockbox.fockspace._basis_support",
        "fockbox.fockspace._pair_plan",
    } == set(caches)
    assert all(size is not None for size in caches.values()), caches
    # blocks: a verify run computes 9 on the built-in config and 27 on the
    # two-mode README config
    assert caches["fockbox.fockspace._displacement_block"] == fockspace.DISPLACEMENT_BLOCK_CACHE == 32
    assert caches["fockbox.fockspace._x_basis"] == fockspace.X_BASIS_CACHE
    # (levels, columns) block shapes: 3 on the built-in config, 9 on the
    # two-mode README config, 2 in one wide benchmark pass
    assert caches["fockbox.fockspace._phase_pattern"] == fockspace.PHASE_PATTERN_CACHE == 16
    # (cutoff, amplitude) factors: a verify run fills 7 on the built-in
    # config and 21 on the two-mode README config; a wide benchmark pass
    # misses 58 times, 2 per amplitude pair and fewer at the corners, and
    # reads each entry only at its own pair
    assert caches["fockbox.displace._factor_defects"] == 32
    # one config per run, and one per wide benchmark pass
    assert caches["fockbox.displace._field_terms"] == 8
    # one size per cutoff, and a layout has a few distinct cutoffs
    assert caches["fockbox.displace.work_frame_size"] == 16
    # (cutoff, amplitude, word) keys: a verify run computes 56 gaps on the
    # built-in config, 98 on twelve ladders and 151 on the two-mode README
    # config
    assert caches["fockbox.displace._frame_gap"] == 160
    # (window, word) keys: at most 31 words per window, 15 keys on the
    # built-in config and 34 on the two-mode README config
    assert caches["fockbox.displace._shift_layers"] == 128
    # the words of a run: 37 on the built-in config, 89 on the two-mode
    # README config
    assert caches["fockbox.fockspace.word_weights"] == fockspace.WORD_WEIGHTS_CACHE == 128
    # keyed on the config and its layout, one of each per run
    assert caches["fockbox.coeffs._realized_parts"] == coeffs.SHIFTED_PARTS_CACHE == 8
    # keyed on a config, its layout and a canonical selector: a sweep batch
    # names 5 selectors, 4 of them in every batch, and a verify run 4 or 5
    assert caches["fockbox.coeffs._reference"] == coeffs.REFERENCE_CACHE == 16
    # keyed on a layout and a support: the reference states of a layout use
    # four, and every seeded state shares one
    assert caches["fockbox.fockspace._basis_support"] == fockspace.BASIS_SUPPORT_CACHE == 16
    # keyed on an operator, a state and its stacked ladders, for batches
    # with stacks: a sweep batch reads 5 plans and adds 1, a verify run
    # stores 4 and reads none twice
    assert caches["fockbox.fockspace._pair_plan"] == fockspace.PAIR_PLAN_CACHE == 8
    # one entry per distinct cutoff
    assert caches["fockbox.fockspace.max_admissible_amplitude"] == fockspace.ADMISSIBLE_AMPLITUDE_CACHE == 16


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
