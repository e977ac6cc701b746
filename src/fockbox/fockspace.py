"""Truncated multi-ladder bosonic Fock spaces in product form.

A layout is an ordered list of independent bosonic ladders, each truncated at
a per-ladder occupation cutoff.  Nothing here builds the joint space, the
tensor product of the single-ladder bases: a state is a short sum of product
terms, its amplitudes c and, per ladder, each term's index into the ladder's
few distinct columns, and an operator is a sum of monomials, each a
coefficient times one word of raising and lowering symbols per ladder.  An
expectation sums, per monomial, conj(c_s) c_t times the product over the
ladders of the Gram entries of its words over pairs of terms (s, t), so its
cost grows with the number of ladders and pairs, not the joint dimension.

A ladder's distinct columns are either levels, the unit columns of a basis
sum, or a dense (dim, K) array, such as a displaced copy of those.  On
levels, a word's Gram entry is its weight at t's level where s's level is
t's shifted by the word and zero elsewhere, so ladders of levels decide
which pairs a monomial joins, and no Gram is formed there.  On dense
columns each word's K x K Gram is formed, K at most three for the reference
states.  One contraction, monomial_values, takes a state and, per ladder
that a batch of copies displaces, one stack of the copies' columns, or one
set of columns that every copy shares: the direct energies at many
amplitudes are one batch, and an expectation a batch of one.  Which pairs
a monomial joins and where each reads its factors is planned per operator,
state and set of stacked ladders (_pair_plan), and kept for a batch with
stacks, which a sweep contracts again call after call.  The stacks come
from one stacked block build per call (displacement_blocks), of which the
memoized single block is the stack of one.

Ladder operators use a hard cutoff: the raising operator annihilates the top
level.  Consequently ``[a, a+] = 1`` holds exactly only on the subspace that
excludes the top level; ``P ([a, a+] - 1) P = 0`` for P the projection onto
occupations <= cutoff - 1, and tests pin that equality exactly.

The module also owns the coherent-leakage policy: a displacement of amplitude
f on a ladder with cutoff N is admissible when f^2 < N and the Poisson tail
``exp(-f^2) f^(2N) / N!`` is below 1e-12.  Verification routines enforce the
policy; plain construction does not.

Importing the module sets every OpenBLAS mapped into the process to one
thread: each dense product here has at most a few hundred rows, so a second
thread only adds its wake-up to every GEMM.
"""
from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import LayoutError


# Bundled OpenBLAS builds prefix and suffix their exports differently.
_SET_THREADS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _one_blas_thread() -> None:
    """Run every OpenBLAS mapped into this process on a single thread; a
    no-op where none is mapped or /proc/self/maps does not exist.  numpy's
    wheel bundles one; scipy's bundles another, mapped only once
    scipy.linalg is imported, which fockbox never does."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            # The sixth field, the mapped file's path, may contain spaces.
            mapped = {line.split(maxsplit=5)[-1].strip() for line in fh}
    except OSError:
        return
    for path in sorted(p for p in mapped if "openblas" in os.path.basename(p).lower()):
        lib = ctypes.CDLL(path)
        for name in _SET_THREADS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                break


# After `import numpy`, which maps the OpenBLAS every dense product here runs on.
_one_blas_thread()

FAMILIES = ("a", "b", "d")

LEAKAGE_TAIL_BOUND = 1e-12
# A verify run on the built-in config computes 9 displacement blocks: the
# full ones and the work-frame column blocks at the grid amplitudes 0, 0.25,
# 0.5 and 1 on cutoff 16 (a negative amplitude reads the block of |f|, and
# amplitude 0 is the exact identity) and the probe that sizes the frames.
# The two-mode README config computes 27, and a 32-entry cache computes
# each of them once.
DISPLACEMENT_BLOCK_CACHE = 32
# (levels, columns) shapes of the blocks: 3 on the built-in config (the
# ladder, its work frame and the frame-size probe) and 9 on the two-mode
# README config.
PHASE_PATTERN_CACHE = 16
# Sizes a verify run diagonalizes: per cutoff the ladder itself, its work
# frame and the frame-size probe, so 3 on the built-in config and 9 on the
# two-mode README config.
X_BASIS_CACHE = 16
# Words of up to four symbols on the sizes of the ladders, their windows and
# their work frames: a verify run asks for 37 on the built-in config, 89 on
# the two-mode README config and 45 on twelve ladders of cutoff 16.
WORD_WEIGHTS_CACHE = 128
# Layouts hold a few distinct cutoffs, and the work frames and the wide
# benchmark ask for a few more.
ADMISSIBLE_AMPLITUDE_CACHE = 16
# Supports of basis sums, keyed on the layout and the occupations: the
# reference states of a layout use four, every seeded state the same one.
BASIS_SUPPORT_CACHE = 16
# Pair plans of batches with stacks, keyed on an operator, a state and the
# positions of its stacks.  A sweep batch on the built-in config reads 5
# (vacuum, one_a, one_b and seeded:7 twice, each a direct batch against H)
# and adds 1 for its fresh seeded:<n>; a verify run stores 4, one per
# reference state, and reads none twice.  A batch without stacks
# (coefficients, expectation) contracts a state once, so its plan is not kept.
PAIR_PLAN_CACHE = 8


@dataclass(frozen=True, order=True)
class LadderId:
    """One bosonic ladder: family 'a' (neutral), 'b' or 'd' (charged pair)."""

    family: str
    mode_index: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise LayoutError(f"unknown ladder family {self.family!r}")

    def __str__(self):
        return f"{self.family}{self.mode_index}"

    @classmethod
    def parse(cls, text: str) -> "LadderId":
        text = text.strip()
        if not text or text[0] not in FAMILIES:
            raise LayoutError(f"cannot parse ladder id {text!r}")
        try:
            mode = int(text[1:])
        except ValueError as exc:
            raise LayoutError(f"cannot parse ladder id {text!r}") from exc
        return cls(text[0], mode)


@dataclass(frozen=True)
class FockLayout:
    """Ordered ladders with per-ladder occupation cutoffs."""

    ladders: tuple[LadderId, ...]
    cutoffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.ladders) != len(self.cutoffs):
            raise LayoutError("one cutoff per ladder required")
        if not self.ladders:
            raise LayoutError("layout needs at least one ladder")
        if len(set(self.ladders)) != len(self.ladders):
            raise LayoutError("duplicate ladder in layout")
        if any(c < 1 for c in self.cutoffs):
            raise LayoutError("cutoffs must be >= 1")

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(c + 1 for c in self.cutoffs)

    @cached_property
    def dimension(self) -> int:
        """Size of the joint space, exact: nothing here allocates it."""
        return math.prod(self.dims)

    @cached_property
    def _positions(self) -> dict[LadderId, int]:
        return {lad: i for i, lad in enumerate(self.ladders)}

    def position(self, ladder: LadderId) -> int:
        try:
            return self._positions[ladder]
        except KeyError as exc:
            raise LayoutError(f"ladder {ladder} not in layout") from exc

    def cutoff(self, ladder: LadderId) -> int:
        return self.cutoffs[self.position(ladder)]

    def occupations(self, total: int) -> list[tuple[int, ...]]:
        """Occupations of every basis state with at most `total` quanta, in
        row-major order: the last ladder varies fastest."""
        states: list[tuple[int, ...]] = [()]
        for dim in reversed(self.dims):
            states = [(n,) + rest for n in range(min(dim - 1, total) + 1) for rest in states if n + sum(rest) <= total]
        return states


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Operator bound to a layout as a sum of monomials, each a coefficient
    times one word per ladder.  words[l] lists ladder l's distinct words as
    (shift, weights) pairs (word_weights), the empty word first; each term
    pairs a coefficient with the index of its word on every ladder."""

    layout: FockLayout
    words: tuple[tuple[tuple[int, np.ndarray], ...], ...]
    terms: tuple[tuple[complex, tuple[int, ...]], ...]

    @cached_property
    def word_indices(self) -> np.ndarray:
        """(monomials, ladders) array of each term's word indices."""
        return np.array([index for _, index in self.terms], dtype=int).reshape(len(self.terms), len(self.words))

    @cached_property
    def word_stacks(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per ladder, its words stacked: the (words,) shifts, the
        (words, dim) weights and the (words, dim) rows n + shift each level n
        goes to, dim where it leaves the ladder."""
        stacks = []
        for words, dim in zip(self.words, self.layout.dims):
            shifts = np.array([shift for shift, _ in words])
            rows = np.arange(dim) + shifts[:, None]
            rows[(rows < 0) | (rows >= dim)] = dim
            stacks.append((shifts, np.stack([weights for _, weights in words]), rows))
        return tuple(stacks)


@dataclass(frozen=True, eq=False)
class StateVector:
    """sum_t amplitudes[t] (x)_l x_l[:, columns_l[t]]: a short sum of product
    terms.  ladders[l] pairs each term's column index on ladder l, a (T,)
    int array, with the ladder's K distinct columns x_l: a (K,) array of
    levels, whose columns are the unit columns there (basis_sum), or a
    (dim, K) array."""

    layout: FockLayout
    amplitudes: np.ndarray
    ladders: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        if self.amplitudes.ndim != 1 or len(self.ladders) != len(self.layout.dims):
            raise LayoutError("a state needs a (T,) amplitude array and one (columns, source) pair per ladder")
        for (columns, source), dim in zip(self.ladders, self.layout.dims):
            if columns.shape != self.amplitudes.shape:
                raise LayoutError("a state needs one column index per term on every ladder")
            if source.ndim == 1:
                if source.size and (source.min() < 0 or source.max() >= dim):
                    raise LayoutError(f"a ladder of {dim} levels has no level {source}")
            elif source.ndim != 2 or source.shape[0] != dim:
                raise LayoutError(f"a ladder of {dim} levels takes (K,) levels or (dim, K) columns, not {source.shape}")
            if columns.size and (columns.min() < 0 or columns.max() >= source.shape[-1]):
                raise LayoutError(f"a column index is outside the ladder's {source.shape[-1]} distinct columns")


# ---------------------------------------------------------------------------
# single-ladder blocks and words


@lru_cache(maxsize=WORD_WEIGHTS_CACHE)
def word_weights(dim: int, daggers: tuple[bool, ...]) -> tuple[int, np.ndarray]:
    """(shift, weights) of the ordered product of raising (True) and
    lowering (False) blocks on dim levels: level n goes to n + shift with
    weight weights[n], 0 where n + shift leaves the ladder.  Each weight is
    the left-to-right product of its factors, as the dense chain forms it.
    Memoized, and the weights are read-only."""
    roots = np.sqrt(np.arange(1.0, dim))
    weight = np.ones(dim)
    shift = 0
    for dagger in daggers:
        step = np.zeros(dim)
        if dagger:
            step[:-1] = weight[1:] * roots
        else:
            step[1:] = weight[:-1] * roots
        weight = step
        shift += 1 if dagger else -1
    weight.setflags(write=False)
    return shift, weight


def word_gram(v: np.ndarray, word: tuple[int, np.ndarray]) -> np.ndarray:
    """v+ W v for a (dim, T) array of columns v, or for each of a stack
    (..., dim, T) of them, and the word W that takes level n to n + shift
    with weight weights[n] (word_weights): a product of two slices of v,
    each level n paired with level n + shift."""
    shift, weights = word
    dim = v.shape[-2]
    lo = min(dim, max(0, -shift))
    hi = max(lo, dim - max(0, shift))
    return v[..., lo + shift : hi + shift, :].conj().swapaxes(-1, -2) @ (weights[lo:hi, None] * v[..., lo:hi, :])


# ---------------------------------------------------------------------------
# states and expectations


def basis_sum(layout: FockLayout, occupations: Sequence[Sequence[int]], amplitudes: Sequence[complex]) -> StateVector:
    """sum_t amplitudes[t] |occupations[t]>, one product term per basis
    state: on every ladder each term's column index into the ladder's
    distinct levels.  Those depend only on the support and are shared,
    read-only, by every state on it."""
    ladders = _basis_support(layout, tuple(map(tuple, occupations)))
    amplitudes = np.asarray(amplitudes, dtype=np.complex128)
    if len(amplitudes) != len(occupations):
        raise LayoutError("one amplitude per basis state required")
    return StateVector(layout, amplitudes, ladders)


@lru_cache(maxsize=BASIS_SUPPORT_CACHE)
def _basis_support(layout: FockLayout, occupations: tuple[tuple[int, ...], ...]) -> tuple[tuple[np.ndarray, ...], ...]:
    """Per ladder, each term's column index and the distinct levels in
    ascending order; memoized on the layout and the occupations."""
    if any(len(occ) != len(layout.dims) for occ in occupations):
        raise LayoutError(f"occupations need one level for each of the {len(layout.dims)} ladders: {occupations}")
    occs = np.array(occupations, dtype=int).reshape(len(occupations), len(layout.dims))
    if np.any((occs < 0) | (occs > np.array(layout.cutoffs))):
        raise LayoutError(f"occupations outside 0..cutoff: {occupations}")
    ladders = []
    for occ in occs.T:
        levels, columns = np.unique(occ, return_inverse=True)
        levels.setflags(write=False)
        columns.setflags(write=False)
        ladders.append((columns, levels))
    return tuple(ladders)


def basis_state(layout: FockLayout, occupations: Mapping[LadderId, int] | Sequence[int]) -> StateVector:
    if isinstance(occupations, Mapping):
        occs = [0] * len(layout.ladders)
        for lad, n in occupations.items():
            occs[layout.position(lad)] = n
    else:
        occs = list(occupations)
    return basis_sum(layout, [occs], [1.0])


def vacuum(layout: FockLayout) -> StateVector:
    return basis_state(layout, {})


def displaced_columns(u: np.ndarray, source: np.ndarray) -> np.ndarray:
    """A single-ladder block u, or each of a (n, dim, dim) stack of them,
    times a ladder's distinct columns: its columns at (K,) levels, or its
    product with (dim, K) columns."""
    return u[..., source] if source.ndim == 1 else u @ source


def monomial_values(
    op: OperatorMatrix, state: StateVector, stacks: Mapping[int, np.ndarray] | None = None, copies: int = 1
) -> np.ndarray:
    """(copies, monomials) array of sum_(s,t) conj(c_s) c_t prod_l G_m,l[s, t],
    G_m,l[s, t] the Gram of monomial m's word on ladder l between terms s
    and t, for copies of a state.  stacks[p] replaces the distinct columns
    of the ladder at position p: a (copies, dim, K) stack, copy b's columns
    being stacks[p][b], or a (1, dim, K) stack that every copy shares; a
    position the layout does not have raises LayoutError.  So a
    copy carries a displaced ladder as Displacement.apply would put it there
    (displaced_columns), and a shared ladder's Grams are formed once.  A
    ladder of levels with no stack decides which pairs a monomial joins,
    and its factor there is the word's weight at t's level; any other
    ladder reads it from its K x K Grams (_column_grams).  A pair multiplies
    its factors in ladder order, then c_t, then conj(c_s), and a monomial
    sums its pairs in order from +0.0: the pairs that unit columns add where
    levels would not join are exact zeros, so a copy's values do not depend
    on the batch or on which copies share a stack."""
    if state.layout != op.layout:
        raise LayoutError("operator and state live on different layouts")
    stacks, c = stacks or {}, state.amplitudes
    for position in stacks:
        if position not in range(len(op.layout.dims)):
            raise LayoutError(f"the layout has no ladder at position {position!r} to take a stack")
    if not copies:
        return np.zeros((0, len(op.terms)), dtype=np.complex128)
    grams = {}
    for position, ((_, source), dim) in enumerate(zip(state.ladders, op.layout.dims)):
        x = stacks.get(position, source[None] if source.ndim == 2 else None)
        if x is None:
            continue
        if x.ndim != 3 or len(x) not in (1, copies) or x.shape[1:] != (dim, source.shape[-1]):
            raise LayoutError(f"ladder {position} takes a (1 or {copies}, {dim}, {source.shape[-1]}) stack, not {x.shape}")
        grams[position] = _column_grams(op.word_stacks[position], x).reshape(len(x), -1)
    plan = _pair_plan if stacks else _pair_plan.__wrapped__
    m, s, t, gathers = plan(op, state, tuple(sorted(stacks)))

    def full(factor: np.ndarray) -> np.ndarray:
        # numpy drops the pair axis of a lone pair and multiplies a factor
        # broadcast over the copies with a kernel that rounds complex
        # products differently, so there each copy gets its own entry
        return np.broadcast_to(factor, (copies, 1)).copy() if len(m) == 1 else factor

    value = np.ones((copies, len(m)))
    for position, ((_, weights, _), gather) in enumerate(zip(op.word_stacks, gathers)):
        value = value * full(np.take(grams[position], gather, axis=1) if position in grams else np.take(weights, gather))
    value = value * full(c[t]) * full(c.conj()[s])
    sums = np.zeros(copies * len(op.terms), dtype=np.complex128)
    np.add.at(sums, (np.arange(copies)[:, None] * len(op.terms) + m).ravel(), value.ravel())
    return sums.reshape(copies, len(op.terms))


@lru_cache(maxsize=PAIR_PLAN_CACHE)
def _pair_plan(op: OperatorMatrix, state: StateVector, stacked: tuple[int, ...]) -> tuple:
    """(m, s, t, gathers), read-only: the pairs each monomial joins
    (_pairs) on the state's ladders of levels that carry no stack, and per
    ladder the flat index of each pair's factor, into the word weights
    (words, dim) on such a ladder and into a copy's (words, K, K) Grams on
    any other.  Memoized for batches with stacks on the operator and the
    state, both read by identity, and the stacked positions, so a state's
    column indices and levels must not change once it is contracted (a
    basis sum's are read-only)."""
    levels = {
        position: source[columns]
        for position, (columns, source) in enumerate(state.ladders)
        if source.ndim == 1 and position not in stacked
    }
    m, s, t = _pairs(op, levels, len(state.amplitudes))
    gathers = []
    for position, ((columns, source), (_, weights, _), words) in enumerate(
        zip(state.ladders, op.word_stacks, op.word_indices.T)
    ):
        if position in levels:
            gathers.append(words[m] * weights.shape[1] + levels[position][t])
        else:
            k = source.shape[-1]
            gathers.append((words[m] * k + columns[s]) * k + columns[t])
    for array in (m, s, t, *gathers):
        array.setflags(write=False)
    return m, s, t, tuple(gathers)


def _pairs(op: OperatorMatrix, levels: Mapping[int, np.ndarray], terms: int) -> tuple[np.ndarray, ...]:
    """(monomial, s, t) arrays of the pairs each monomial joins, ordered by
    monomial, t, then s: on every ladder in levels, which holds each term's
    level there, s's level is t's shifted by the monomial's word.  A term's
    key is its row of levels, viewed as one fixed-width value, and t's
    partners are the terms whose row is t's plus the monomial's shifts."""
    monomials = len(op.terms)
    if not levels:
        m, t, s = np.indices((monomials, terms, terms)).reshape(3, -1)
        return m, s, t
    rows = np.stack(list(levels.values()), axis=-1, dtype=np.int64)
    shifts = np.stack([op.word_stacks[p][0][op.word_indices[:, p]] for p in levels], axis=-1)
    row = np.dtype((np.void, rows.itemsize * len(levels)))
    key, wanted = rows.view(row)[..., 0], (rows + shifts[:, None]).view(row)[..., 0]
    order = np.argsort(key, kind="stable")
    first = np.searchsorted(key[order], wanted)
    count = np.searchsorted(key[order], wanted, side="right") - first
    m, t = np.nonzero(count)
    n = count[m, t]
    start = np.repeat(first[m, t] - np.cumsum(n) + n, n)
    return np.repeat(m, n), order[start + np.arange(len(start))], np.repeat(t, n)


def _column_grams(stack: tuple[np.ndarray, np.ndarray, np.ndarray], x: np.ndarray) -> np.ndarray:
    """(copies, words, K, K) Grams x+ W x of every word W of one ladder on a
    (copies, dim, K) stack of columns x, in one gathered product: rows
    n + shift of x, a zero row where n + shift leaves the ladder, against
    weights[n] x[n].  The product is one 3-D matmul over (copy, word)
    pairs.  Each copy's columns are first laid out one after another, as a
    gather from a block gives them: numpy then picks each pair's kernel
    from the shapes alone, so a copy's Grams do not depend on the others."""
    _, weights, rows = stack
    x = np.ascontiguousarray(x.swapaxes(-1, -2)).swapaxes(-1, -2)
    copies, dim, k = x.shape
    padded = np.concatenate([x.conj(), np.zeros((copies, 1, k), dtype=x.dtype)], axis=1)
    left = np.ascontiguousarray(padded[:, rows].swapaxes(-1, -2)).reshape(copies * len(weights), k, dim)
    right = (weights[:, :, None] * x[:, None]).reshape(copies * len(weights), dim, k)
    return (left @ right).reshape(copies, len(weights), k, k)


def weighted_sum(terms: Sequence[tuple[complex, tuple[int, ...]]], values: np.ndarray) -> complex:
    """sum_m coefficient_m values[m] over the terms, in term order from 0j."""
    total = 0j
    for (coefficient, _), value in zip(terms, values.tolist()):
        total += coefficient * value
    return complex(total)


def expectation(op: OperatorMatrix, state: StateVector) -> complex:
    """<psi| O |psi>: the state's monomial_values, a batch of one, summed
    with the coefficients in term order from 0j."""
    return weighted_sum(op.terms, monomial_values(op, state)[0])


# ---------------------------------------------------------------------------
# displacement blocks


def displacement_block(cutoff: int, amplitude: float, columns: int | None = None) -> np.ndarray:
    """The first `columns` columns (all cutoff + 1 by default) of the dense
    single-ladder exp(f (a+ - a)); real and read-only.

    With P = diag(i^n), P* a P = i a and P* a+ P = -i a+, so the truncated
    generator is f (a+ - a) = -i f P (a + a+) P*.  The truncated a + a+ is
    the Jacobi matrix of the Hermite polynomials, V diag(mu) V^T (Golub &
    Welsch 1969), and exp(f (a+ - a)) = P V diag(exp(-i f mu)) V^T P*.  Its
    entry (r, c) is i^(r - c) times C - i S at (r, c), for the real
    C = V diag(cos(f mu)) V^T and S = V diag(sin(f mu)) V^T: C, S, -C or -S
    for (r - c) mod 4 = 0, 1, 2 or 3.

    The basis is diagonalized once per size and shared by every amplitude.
    Blocks are memoized on (cutoff, amplitude, columns): a verification
    grid asks for the same few blocks at every point.  A negative amplitude
    reads the block of |f|: C is even in f and S odd, so U(-f) is the
    parity image U(|f|) (-1)^(r - c).  NumPy's cos is exactly even and its
    sin exactly odd, so the image equals a direct diagonalization at -f
    entry for entry, up to the sign of an entry that is exactly zero.  At
    amplitude 0.0 the block is np.eye(levels, columns), not a rounded V V^T.
    """
    levels, columns = _block_shape(cutoff, columns)
    amplitude = float(amplitude)
    if amplitude < 0.0:
        _, _, parity = _phase_pattern(levels, columns)
        image = _displacement_block(levels, -amplitude, columns) * parity
        image.setflags(write=False)
        return image
    return _displacement_block(levels, amplitude, columns)


def displacement_blocks(cutoff: int, amplitudes: Sequence[float], columns: int | None = None) -> np.ndarray:
    """(n, levels, columns) stack of displacement_block(cutoff, f, columns)
    for the n amplitudes, bit for bit: one stacked build (_block_stack)
    over their distinct |f|, each negative one's parity image taken as
    displacement_block takes it.  Not memoized, and writable."""
    levels, columns = _block_shape(cutoff, columns)
    amplitudes = np.asarray(amplitudes, dtype=float)
    magnitudes = np.abs(amplitudes).tolist()
    distinct = {f: i for i, f in enumerate(dict.fromkeys(magnitudes))}
    stack = _block_stack(levels, np.array(list(distinct)), columns)[[distinct[f] for f in magnitudes]]
    stack[amplitudes < 0.0] *= _phase_pattern(levels, columns)[2]
    return stack


def _block_shape(cutoff: int, columns: int | None) -> tuple[int, int]:
    levels = int(cutoff) + 1
    columns = levels if columns is None else int(columns)
    if not 0 < columns <= levels:
        raise LayoutError(f"a block on {levels} levels has 1..{levels} columns, not {columns}")
    return levels, columns


@lru_cache(maxsize=DISPLACEMENT_BLOCK_CACHE)
def _displacement_block(levels: int, amplitude: float, columns: int) -> np.ndarray:
    """The block at either sign of the amplitude, diagonalized directly:
    the stack of one."""
    block = _block_stack(levels, np.array([amplitude]), columns)[0]
    block.setflags(write=False)
    return block


def _block_stack(levels: int, amplitudes: np.ndarray, columns: int) -> np.ndarray:
    """(n, levels, columns) blocks at the n amplitudes, either sign, as
    displacement_block builds one.  Every step but the matmuls is
    elementwise, and numpy's matmul runs one GEMM of the same shapes per
    block, so a block does not depend on its stack: each is the stack of
    one (_displacement_block) bit for bit, and exactly the identity at 0.0."""
    mu, v = _x_basis(levels)
    theta = amplitudes[:, None] * mu
    c = (v * np.cos(theta)[:, None]) @ v[:columns].T
    s = (v * np.sin(theta)[:, None]) @ v[:columns].T
    even, sign, _ = _phase_pattern(levels, columns)
    stack = np.where(even, c, s)
    stack *= sign
    if not amplitudes.all():
        stack[amplitudes == 0.0] = np.eye(levels, columns)
    return stack


@lru_cache(maxsize=PHASE_PATTERN_CACHE)
def _phase_pattern(levels: int, columns: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(even, sign, parity) on a (levels, columns) block, read-only: where
    (r - c) mod 4 is even; -1.0 where it is 2 or 3, else 1.0; and
    (-1)^(r - c)."""
    phase = (np.arange(levels)[:, None] - np.arange(columns)) % 4
    even = phase % 2 == 0
    patterns = even, np.where(phase >= 2, -1.0, 1.0), np.where(even, 1.0, -1.0)
    for pattern in patterns:
        pattern.setflags(write=False)
    return patterns


@lru_cache(maxsize=X_BASIS_CACHE)
def _x_basis(levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of a + a+ on `levels` levels."""
    roots = np.sqrt(np.arange(1.0, levels))
    mu, v = np.linalg.eigh(np.diag(roots, 1) + np.diag(roots, -1))
    mu.setflags(write=False)
    v.setflags(write=False)
    return mu, v


# ---------------------------------------------------------------------------
# coherent-leakage policy


def poisson_tail(amplitude: float, cutoff: int) -> float:
    """exp(-f^2) f^(2N) / N!, the weight the cutoff truncates away."""
    f2 = amplitude * amplitude
    if f2 == 0.0:
        return 0.0
    return math.exp(-f2 + cutoff * math.log(f2) - math.lgamma(cutoff + 1))


def leakage_admissible(amplitude: float, cutoff: int) -> bool:
    """A tail under the bound, on the range f^2 < N where the tail grows
    with |f|: past the Poisson peak the level-N weight falls again, so a
    small tail there means the amplitude overshoots the cutoff."""
    return amplitude * amplitude < cutoff and poisson_tail(amplitude, cutoff) < LEAKAGE_TAIL_BOUND


@lru_cache(maxsize=ADMISSIBLE_AMPLITUDE_CACHE)
def max_admissible_amplitude(cutoff: int) -> float:
    """Largest |f| the cutoff admits; tail grows with f on the relevant
    range.  Memoized on the cutoff."""
    lo, hi = 0.0, math.sqrt(cutoff)
    if leakage_admissible(hi, cutoff):
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        # lo stays admissible and hi inadmissible, so once the midpoint
        # rounds onto either end no later step moves them.
        if mid == lo or mid == hi:
            break
        if leakage_admissible(mid, cutoff):
            lo = mid
        else:
            hi = mid
    return lo
