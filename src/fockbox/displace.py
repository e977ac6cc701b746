"""Coherent displacement unitaries and the shift-identity checks.

U = U_cs * U_s with U_cs = exp(f1 ((b+_q + d+_q) - (b_q + d_q))) and
U_s = exp(f2 (a+_k - a_k)).  The generator is a sum of commuting single-ladder
blocks, so exp factorizes *exactly* into a Kronecker product of per-ladder
unitaries, truncation included.  Every check below conjugates operators
through those factors ladder by ladder; the reported residuals are the
projected max norms of the full-space residual operators (the interchange
checks report an upper bound on them), at a cost that stays polynomial in
single-ladder cutoffs instead of the joint dimension.

The checks window each residual to occupations <= cutoff/2, and the windowed
identities are statements about the untruncated algebra, so each conjugation
is evaluated on a work frame with enough levels above the window that the
hard cutoff cannot reflect into it.  A ladder's frames have one size per
cutoff (work_frame_size): the smallest at which every window column of U, at
the largest amplitude the cutoff admits, keeps a weight below
WORK_TAIL_BOUND = 1e-20 past the frame, plus WORK_BAND_MARGIN levels for the
words the checks apply.  Residuals scale with the square root of that
weight, so every windowed residual stays at the float64 noise floor at every
admissible amplitude.  The window's top level matters most: a displaced
level m reaches about (sqrt(m) + |f|)^2, far past the displaced vacuum.
A shift gap depends only on the cutoff, the amplitude and the word, and is
memoized on them (_frame_gap), so the check families at one grid point, and
the grid points that share a ladder amplitude, compute each gap once.  In
the same way a factor's unitarity and composition defects depend only on its
cutoff and amplitude (_factor_defects): b_q and d_q share them, and
composition reads what unitarity computed.  The x samples and the field
terms' plane-wave coefficients depend only on the config (_field_terms).

Verification-mode routines enforce the coherent-leakage policy on the
configured space itself: a displaced ladder must have a cutoff above f^2
whose Poisson tail at the requested amplitude is below 1e-12, else
LeakageError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .errors import LayoutError, LeakageError
from .fockspace import (
    FockLayout,
    LadderId,
    StateVector,
    displaced_columns,
    displacement_block,
    leakage_admissible,
    max_admissible_amplitude,
    poisson_tail,
    word_gram,
    word_weights,
)
from .ladderalg import LadderSymbol, box_points, subwords
from .model import ModelConfig, build_layout, field_algebra, shift_profiles

WORK_TAIL_BOUND = 1e-20
WORK_BAND_MARGIN = 4
X_SAMPLE_COUNT = 8

LADDER_SHIFT_TOL = 1e-8
FREE_SHIFT_TOL = 1e-8
FIELD_SHIFT_TOL = 1e-7
INTERCHANGE_TOL = 1e-7
UNITARITY_TOL = 1e-9
COMPOSITION_TOL = 1e-9


@dataclass(frozen=True)
class DisplacementParams:
    f1: float
    f2: float


@dataclass(frozen=True)
class ResidualCheck:
    """One named residual against its tolerance; f1/f2 are None for checks
    that do not belong to a displacement grid point."""

    name: str
    f1: float | None
    f2: float | None
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def displaced_amplitudes(config: ModelConfig, params: DisplacementParams) -> dict[LadderId, float]:
    """Each displaced ladder's amplitude (ModelConfig.displaced_ladders)."""
    amplitudes = (params.f1, params.f2)
    return {lad: amplitudes[index] for lad, index in config.displaced_ladders()}


def require_admissible(config: ModelConfig, params: DisplacementParams, layout: FockLayout) -> dict[LadderId, float]:
    """displaced_amplitudes, once every one of them is admissible on its
    ladder's cutoff."""
    amplitudes = displaced_amplitudes(config, params)
    for lad, f in amplitudes.items():
        cutoff = layout.cutoff(lad)
        if not leakage_admissible(f, cutoff):
            raise LeakageError(
                f"amplitude {f} on ladder {lad} (cutoff {cutoff}) leaks: admissible needs"
                f" f^2 < {cutoff} and a Poisson tail under 1e-12, here {poisson_tail(f, cutoff):.3e}"
            )
    return amplitudes


@dataclass(frozen=True, eq=False)
class Displacement:
    """Per-ladder dense factors of U; absent ladders are identity."""

    layout: FockLayout
    factors: Mapping[LadderId, np.ndarray]

    def apply(self, state: StateVector) -> StateVector:
        """U |psi>: each displaced ladder's distinct columns times its block,
        the terms' column indices kept."""
        if state.layout != self.layout:
            raise LayoutError("state lives on a different layout")
        ladders = list(state.ladders)
        for lad, u in self.factors.items():
            position = self.layout.position(lad)
            columns, source = ladders[position]
            ladders[position] = columns, displaced_columns(u, source)
        return StateVector(self.layout, state.amplitudes, tuple(ladders))


def displacement(config: ModelConfig, params: DisplacementParams, layout: FockLayout | None = None) -> Displacement:
    """U(f1, f2) on the layout: the blocks of its nonzero amplitudes.  The
    direct energies build the same blocks, stacked over a call's rows, and
    hand their columns to the contraction without it
    (coeffs.displaced_energies)."""
    layout = layout or build_layout(config)
    factors: dict[LadderId, np.ndarray] = {}
    for lad, f in displaced_amplitudes(config, params).items():
        if f != 0.0:
            factors[lad] = displacement_block(layout.cutoff(lad), f)
    return Displacement(layout, factors)


# ---------------------------------------------------------------------------
# working spaces and projected-residual helpers


# A verify run on the built-in config needs 15 (window, word) keys, on the
# two-mode README config 34; a window has at most 31 words of up to four
# symbols.
@lru_cache(maxsize=128)
def _shift_layers(window: int, daggers: tuple[bool, ...]) -> tuple[np.ndarray, ...]:
    """(e_0, e_1, ...) on the window, read-only: e_k sums the ordered
    sub-products of one ladder's word that drop k symbols, so e_0 is the
    word itself and prod_i (x_i + f) = sum_k f^k e_k.  Each sub-product is
    exact on the window because no word carries more than WORK_BAND_MARGIN
    symbols; on identity columns each Gram is the exact window of the
    sub-product's matrix."""
    levels = window + WORK_BAND_MARGIN
    eye = np.eye(levels)[:, :window]
    layers = [np.zeros((window, window)) for _ in range(len(daggers) + 1)]
    for kept, dropped in subwords(daggers):
        k = len(dropped)
        layers[k] = layers[k] + word_gram(eye, word_weights(levels, kept))
    for layer in layers:
        layer.setflags(write=False)
    return tuple(layers)


def _window(cutoff: int) -> int:
    """Levels 0..cutoff/2 of a ladder, where every residual is compared."""
    return cutoff // 2 + 1


# One size per cutoff: a layout has a few distinct cutoffs.
@lru_cache(maxsize=16)
def work_frame_size(cutoff: int) -> int:
    """Levels of every work frame on a ladder with this cutoff.

    The frame holds the smallest number of levels past which each window
    column of U, at max_admissible_amplitude(cutoff), carries a weight below
    WORK_TAIL_BOUND, plus WORK_BAND_MARGIN levels for the words' index
    shifts; a smaller amplitude reaches fewer levels, so one size serves the
    whole admissible range.  The weights are read from the columns on a
    probe frame, first of r^2 + 8 r + 20 levels for the reach
    r = sqrt(window - 1) + f of the window's top level, and doubled until
    2 WORK_BAND_MARGIN of its levels lie above the levels found.  Past the
    reach the weight falls by orders of magnitude per level, so the probe's
    own wall then moves the weights read by about 1e-5 of themselves.
    """
    window = _window(cutoff)
    amplitude = max_admissible_amplitude(cutoff)
    reach = math.sqrt(window - 1) + amplitude
    probe = math.ceil(reach * reach + 8 * reach + 20)
    while True:
        columns = displacement_block(probe - 1, amplitude, window)
        # tail[n]: the largest weight any window column keeps on levels >= n
        tail = np.cumsum(columns[::-1] ** 2, axis=0)[::-1].max(axis=1)
        below = np.flatnonzero(tail < WORK_TAIL_BOUND)
        if below.size and below[0] + 2 * WORK_BAND_MARGIN <= probe:
            return int(below[0]) + WORK_BAND_MARGIN
        probe *= 2


# Keyed on (cutoff, amplitude, word): one verify run asks for 56 gaps on the
# built-in config, 98 on twelve ladders (modes 1-4 per field) and 151 on the
# two-mode README config, and computes each of them once.
@lru_cache(maxsize=160)
def _frame_gap(
    cutoff: int, amplitude: float, daggers: tuple[bool, ...]
) -> tuple[np.ndarray, np.ndarray, tuple[float, float, float]]:
    """(c - e, c) on the window of a ladder with this cutoff, read-only, and
    (max|e|, max|c - e|, max|c|), for c = U+ word U on the ladder's work
    frame and e = prod_i (x_i + f) = sum_k f^k e_k (see _shift_layers).

    c is the Gram v+ word v (word_gram) of the window columns v of U.  c - e
    is formed as (((c - e_0) - f e_1) - f^2 e_2) ..., so each subtraction
    cancels the leading part of what is left and the gap keeps its own
    relative precision, even where it is far below the rounding of c.  At
    amplitude 0.0, U = 1 exactly, so c is e_0 and the gap exactly zero."""
    window, dim = _window(cutoff), work_frame_size(cutoff)
    layers = _shift_layers(window, daggers)
    c = word_gram(displacement_block(dim - 1, amplitude, window), word_weights(dim, daggers))
    e, gap = 0.0, c
    for k, layer in enumerate(layers):
        e = e + amplitude**k * layer
        gap = gap - amplitude**k * layer
    gap.setflags(write=False)
    c.setflags(write=False)
    return gap, c, tuple(float(np.max(np.abs(block))) for block in (e, gap, c))


def _window_sum_max(blocks: Mapping[LadderId, np.ndarray], scalars: np.ndarray) -> np.ndarray:
    """Exact windowed max norm of sum_l blocks[l][b] (x) identity + scalars[b]
    for each b, from a (B, m_l, m_l) stack of window blocks per ladder.

    Entries off-diagonal in one ladder come from that ladder's block alone;
    diagonal entries are sums of per-ladder diagonals plus the scalar, and
    the maximum over the projected box is taken by explicit outer addition.
    """
    off_max = np.zeros(len(scalars))
    diag_total = np.asarray(scalars, dtype=np.complex128)[:, None]
    for block in blocks.values():
        if not np.any(block):
            continue
        magnitudes = np.abs(block)
        np.einsum("bii->bi", magnitudes)[...] = 0.0
        off_max = np.maximum(off_max, magnitudes.max(axis=(1, 2)))
        diag = np.diagonal(block, axis1=1, axis2=2)
        diag_total = (diag_total[:, :, None] + diag[:, None, :]).reshape(len(scalars), -1)
    return np.maximum(off_max, np.abs(diag_total).max(axis=1))


# ---------------------------------------------------------------------------
# ladder and free-Hamiltonian shifts


def check_ladder_shifts(
    config: ModelConfig, params: DisplacementParams, layout: FockLayout | None = None
) -> list[ResidualCheck]:
    """Residuals of U+ x U = x + shift for every ladder operator and adjoint."""
    layout = layout or build_layout(config)
    amplitudes = require_admissible(config, params, layout)
    checks = []
    for lad, cutoff in zip(layout.ladders, layout.cutoffs):
        for dagger, suffix in ((False, ""), (True, "_dag")):
            _, _, (_, residual, _) = _frame_gap(cutoff, amplitudes.get(lad, 0.0), (dagger,))
            checks.append(
                ResidualCheck(f"ladder_shift[{lad}{suffix}]", params.f1, params.f2, residual, LADDER_SHIFT_TOL)
            )
    return checks


def check_free_hamiltonian_shift(
    config: ModelConfig, params: DisplacementParams, layout: FockLayout | None = None
) -> list[ResidualCheck]:
    """U+ H0 U minus the shifted H0, per sector, plus vacuum expectations.

    Neutral: H0_s picks up omega_k (f2 (a+_k + a_k) + f2^2).
    Charged: H0_cs picks up E_q (f1 (b+_q + b_q + d+_q + d_q) + 2 f1^2),
    assembled here as one f1^2 per displaced charged ladder.
    """
    layout = layout or build_layout(config)
    amplitudes = require_admissible(config, params, layout)
    f1, f2 = params.f1, params.f2

    ladders = config.mode_energies()
    sectors = (
        ("neutral", [(lad, e) for lad, e in ladders if lad.family == "a"], config.omega_k * f2 * f2),
        ("charged", [(lad, e) for lad, e in ladders if lad.family != "a"], 2.0 * config.energy_q * f1 * f1),
    )
    shifts, vacua = [], []
    for sector, energies, vacuum_shift in sectors:
        number = {lad: _frame_gap(layout.cutoff(lad), amplitudes.get(lad, 0.0), (True, False)) for lad, _ in energies}
        # energy (U+ a+a U - (a+ + f)(a + f)) per ladder, a batch of one
        blocks = {lad: (energy * number[lad][0])[None] for lad, energy in energies}
        residual = float(_window_sum_max(blocks, np.zeros(1))[0])
        shifts.append(ResidualCheck(f"free_shift[{sector}]", f1, f2, residual, FREE_SHIFT_TOL))
        # <0| U+ a+a U |0> is the corner of each ladder's conjugated a+a
        value = 0.0
        for lad, energy in energies:
            value += energy * float(number[lad][1][0, 0])
        vacua.append(ResidualCheck(f"free_shift_vacuum[{sector}]", f1, f2, abs(value - vacuum_shift), FREE_SHIFT_TOL))
    return shifts + vacua


# ---------------------------------------------------------------------------
# field shifts


# One entry per config: a verify run, and a wide benchmark pass, read one.
@lru_cache(maxsize=8)
def _field_terms(config: ModelConfig) -> tuple[np.ndarray, tuple[tuple[tuple[LadderSymbol, np.ndarray], ...], ...]]:
    """The x samples and, for phihat, phi and phi+ in that order, each term's
    symbol and kappa_t(x), its coefficient times its plane-wave phase at the
    samples; read-only."""
    xs = box_points(config.box_length, X_SAMPLE_COUNT)
    xs.setflags(write=False)
    fa = field_algebra(config)
    fields = []
    for poly in (fa.phihat, fa.phi, fa.phi_dag):
        terms = []
        for t in poly.terms:
            (sym,) = t.symbols
            kappa = t.coefficient * t.phase(xs, config.box_length)
            kappa.setflags(write=False)
            terms.append((sym, kappa))
        fields.append(tuple(terms))
    return xs, tuple(fields)


def check_field_shift(
    config: ModelConfig, params: DisplacementParams, layout: FockLayout | None = None
) -> list[ResidualCheck]:
    """U+ field(x) U = field(x) + shift profile, at sampled x values."""
    layout = layout or build_layout(config)
    amplitudes = require_admissible(config, params, layout)
    xs, (phihat, phi, phi_dag) = _field_terms(config)
    n1, n2 = shift_profiles(config)
    checks = []
    for field_kind, terms, profile, amplitude in (
        ("neutral", phihat, n2, params.f2),
        ("charged", phi, n1, params.f1),
        ("charged_dagger", phi_dag, n1, params.f1),
    ):
        # One (x sample, row, column) stack per ladder, summed term by term
        # in the order a single sample's block would be.  Each gap already
        # subtracts its own ladder's amplitude, so the scalar compares the
        # sum of those shifts with the closed-form profile.
        blocks: dict[LadderId, np.ndarray] = {}
        shifts = np.zeros(len(xs), dtype=np.complex128)
        for sym, kappa in terms:
            shift = amplitudes.get(sym.ladder, 0.0)
            gap, _, _ = _frame_gap(layout.cutoff(sym.ladder), shift, (sym.dagger,))
            contrib = kappa[:, None, None] * gap
            if sym.ladder in blocks:
                blocks[sym.ladder] = blocks[sym.ladder] + contrib
            else:
                blocks[sym.ladder] = contrib
            shifts = shifts + kappa * shift
        residuals = _window_sum_max(blocks, shifts - amplitude * profile(xs))
        for j, residual in enumerate(residuals):
            checks.append(
                ResidualCheck(
                    f"field_shift[{field_kind}][x{j}]", params.f1, params.f2, float(residual), FIELD_SHIFT_TOL
                )
            )
    return checks


# ---------------------------------------------------------------------------
# normal-ordering interchange


_Word = tuple[tuple[bool, ...], ...]


def _telescoped(maxima: list[tuple[float, float, float]]) -> float:
    """Bound on max|(x)_l c_l - (x)_l e_l| from each ladder's (max|e_l|,
    max|c_l - e_l|, max|c_l|), by the telescoping sum
    sum_l (x)_{j<l} e_j (x) (c_l - e_l) (x) (x)_{j>l} c_j: the largest entry
    of a Kronecker product is the product of its factors' largest entries."""
    total, lead = 0.0, 1.0
    for k, (e_max, gap, _) in enumerate(maxima):
        total += lead * gap * math.prod(c_max for _, _, c_max in maxima[k + 1 :])
        lead *= e_max
    return total


@dataclass(frozen=True, eq=False)
class _InterchangeSystem:
    """One identity over the ladders its terms touch.

    A word gives, per ladder, the daggers of an ordered product on it;
    moduli and lhs_words describe the left-hand monomials.  Row r of the
    expansion sum_m kappa_m(x) (x)_l e_{m,l} - S(x) over words has the
    x-coefficient base[:, r] * prod(factors(x) ** exponents[r]), where the
    factors are the ladder amplitudes followed by f1 n1(x) and f2 n2(x), and
    words[r] is the index w of its word, whose largest windowed entry is
    word_norms[w].
    """

    name: str
    ladders: tuple[LadderId, ...]
    moduli: np.ndarray
    lhs_words: tuple[_Word, ...]
    base: np.ndarray
    exponents: np.ndarray
    words: np.ndarray
    word_norms: np.ndarray


class InterchangeChecker:
    """Conjugated normal-ordered interaction densities vs their shifted
    expansions, pointwise in x.

    quartic: U+ :phihat^4: U = sum_j C(4,j) (f2 n2)^(4-j) :phihat^j:
    cubic:   U+ :phi+ phi: phihat U = :phi+ phi: phihat
             + f1 n1 (phi+ + phi) phihat + f1^2 n1^2 phihat
             + f2 n2 :phi+ phi: + f1 f2 n1 n2 (phi+ + phi) + f1^2 f2 n1^2 n2

    Each residual reported is an upper bound on the windowed max norm of
    R(x) = sum_m kappa_m(x) (x)_l c_{m,l} - S(x), built from single-ladder
    blocks only.  Here m runs over the left-hand monomials, kappa_m is a
    monomial's coefficient times its phase, c_{m,l} is the windowed
    U_l+ word U_l on ladder l's working space, and S(x) is the expansion.
    With e_{m,l} the windowed shift prod_i (x_i + f_l) of the same word,

        R(x) = sum_m kappa_m(x) [(x)_l c_{m,l} - (x)_l e_{m,l}]
               + [sum_m kappa_m(x) (x)_l e_{m,l} - S(x)].

    The first part is bounded by sum_m |kappa_m| times the telescoped
    per-ladder gaps, which does not depend on x.  The second expands every
    shift into words, each weighted by the amplitudes of the symbols it
    drops, subtracts S(x) word by word, and is bounded by
    sum_W |Delta_W(x)| prod_l max|W_l|.  Words and their windowed blocks do
    not depend on the amplitudes, so they are built once; the blocks come
    from _shift_layers, which the shift gaps (_frame_gap) share.
    """

    def __init__(self, config: ModelConfig, layout: FockLayout | None = None):
        self.config = config
        self.layout = layout or build_layout(config)
        self.x_samples = box_points(config.box_length, X_SAMPLE_COUNT)
        n1, n2 = shift_profiles(config)
        self._n1x = n1(self.x_samples)
        self._n2x = n2(self.x_samples)

        fa = field_algebra(config)
        powers = fa.ordered_powers
        quartic = [(powers[j], float(math.comb(4, j)), 0, 4 - j) for j in range(5)]
        cubic = [
            (fa.cubic, 1.0, 0, 0),
            (fa.charged_sum_neutral, 1.0, 1, 0),
            (fa.phihat, 1.0, 2, 0),
            (fa.density, 1.0, 0, 1),
            (fa.charged_sum, 1.0, 1, 1),
            (powers[0], 1.0, 2, 1),
        ]
        self._systems = [
            self._system("quartic", powers[4], quartic),
            self._system("cubic", fa.cubic, cubic),
        ]

    def _system(self, name, lhs_poly, expansion) -> _InterchangeSystem:
        """expansion lists (polynomial, weight, power of f1 n1, power of f2 n2)."""
        expanded = [(mono, weight, a, b) for poly, weight, a, b in expansion for mono in poly.terms]
        used = {s.ladder for mono in lhs_poly.terms + tuple(t[0] for t in expanded) for s in mono.symbols}
        ladders = tuple(lad for lad in self.layout.ladders if lad in used)

        def word(symbols) -> _Word:
            return tuple(tuple(s.dagger for s in symbols if s.ladder == lad) for lad in ladders)

        def phased(mono) -> np.ndarray:
            return complex(mono.coefficient) * mono.phase(self.x_samples, self.config.box_length)

        lhs_words = tuple(word(mono.symbols) for mono in lhs_poly.terms)
        rows = []  # (base, exponents, word)
        for mono, w in zip(lhs_poly.terms, lhs_words):
            kappa = phased(mono)
            for choice in itertools.product(*(subwords(daggers) for daggers in w)):
                dropped = [len(d) for _, d in choice]
                rows.append((kappa, dropped + [0, 0], tuple(kept for kept, _ in choice)))
        for mono, weight, a, b in expanded:
            rows.append((-weight * phased(mono), [0] * len(ladders) + [a, b], word(mono.symbols)))
        columns: dict[_Word, int] = {}
        for _, _, w in rows:
            columns.setdefault(w, len(columns))
        norms = [
            math.prod(
                float(np.max(np.abs(_shift_layers(_window(self.layout.cutoff(lad)), daggers)[0])))
                for lad, daggers in zip(ladders, w)
            )
            for w in columns
        ]
        return _InterchangeSystem(
            name=name,
            ladders=ladders,
            moduli=np.array([abs(mono.coefficient) for mono in lhs_poly.terms]),
            lhs_words=lhs_words,
            base=np.stack([base for base, _, _ in rows], axis=1),
            exponents=np.array([exponents for _, exponents, _ in rows]),
            words=np.array([columns[w] for _, _, w in rows]),
            word_norms=np.array(norms),
        )

    def run(self, params: DisplacementParams) -> list[ResidualCheck]:
        amplitudes = require_admissible(self.config, params, self.layout)
        checks = []
        for system in self._systems:
            cutoffs = [self.layout.cutoff(lad) for lad in system.ladders]
            shifts = [amplitudes.get(lad, 0.0) for lad in system.ladders]
            conjugation_gap = 0.0
            for modulus, w in zip(system.moduli, system.lhs_words):
                per_ladder = [_frame_gap(n, f, daggers)[2] for n, f, daggers in zip(cutoffs, shifts, w) if daggers]
                conjugation_gap += modulus * _telescoped(per_ladder)
            factors = np.column_stack(
                [np.tile(shifts, (len(self.x_samples), 1)), params.f1 * self._n1x, params.f2 * self._n2x]
            )
            coefficients = system.base * np.prod(factors[:, None, :] ** system.exponents, axis=2)
            per_word = np.zeros((len(self.x_samples), len(system.word_norms)), dtype=np.complex128)
            np.add.at(per_word.T, system.words, coefficients.T)
            residuals = conjugation_gap + np.abs(per_word) @ system.word_norms
            for j, residual in enumerate(residuals):
                checks.append(
                    ResidualCheck(
                        f"interchange[{system.name}][x{j}]", params.f1, params.f2, float(residual), INTERCHANGE_TOL
                    )
                )
        return checks


# ---------------------------------------------------------------------------
# structural checks


# Keyed on (cutoff, amplitude): b_q and d_q share one entry, and composition
# reads the entry unitarity filled at the same grid point.  One verify run
# fills 7 on the built-in config and 21 on the two-mode README config.
@lru_cache(maxsize=32)
def _factor_defects(cutoff: int, amplitude: float) -> tuple[float, float]:
    """(max|U+ U - 1|, max|U(f) U(-f) - 1|) of one ladder's factor U(f),
    with U(-f) the provider's separate block at the negated amplitude."""
    u = displacement_block(cutoff, amplitude)
    eye = np.eye(u.shape[0])
    unitarity = float(np.max(np.abs(u.conj().T @ u - eye)))
    composition = float(np.max(np.abs(u @ displacement_block(cutoff, -amplitude) - eye)))
    return unitarity, composition


def _summed_defect(config: ModelConfig, params: DisplacementParams, layout: FockLayout, index: int) -> float:
    """One of the _factor_defects, summed over the displaced ladders."""
    total = 0.0
    for lad, f in displaced_amplitudes(config, params).items():
        total += _factor_defects(layout.cutoff(lad), f)[index]
    return total


def check_unitarity(config: ModelConfig, params: DisplacementParams, layout: FockLayout | None = None) -> ResidualCheck:
    """Summed per-factor defect of U+ U = 1; the factors are exact Kronecker
    components, so a zero sum certifies the full-space product."""
    total = _summed_defect(config, params, layout or build_layout(config), 0)
    return ResidualCheck("unitarity", params.f1, params.f2, total, UNITARITY_TOL)


def check_composition(config: ModelConfig, params: DisplacementParams, layout: FockLayout | None = None) -> ResidualCheck:
    """U(f) U(-f) = 1, evaluated factor by factor."""
    total = _summed_defect(config, params, layout or build_layout(config), 1)
    return ResidualCheck("composition", params.f1, params.f2, total, COMPOSITION_TOL)
