"""Symbolic ladder-operator polynomials with plane-wave phases.

A monomial is an ordered product of ladder symbols times a complex
coefficient.  Each symbol carries a phase sign in {-1, 0, +1}: field symbols
contribute exp(i * phase_sign * p * x) with p the ladder's box momentum, so a
monomial's total x-dependence is exp(i * K * x) with K = (2 pi / L) *
wave_index and wave_index the sum of signed mode indices.  Symbols with phase
sign 0 build x-independent ladder polynomials such as a+ + a.

Normal ordering here is the definitional colon operation: daggered symbols
move left of undaggered ones with *no* commutator terms, and each block is
sorted by (family, mode index), which is exact for bosons since same-dagger
symbols always commute.  Box integration over x in [-L/2, L/2] keeps exactly
the wave_index == 0 monomials and multiplies them by L.

Realization maps a polynomial onto a truncated Fock layout: each monomial
becomes the ordered product of its symbols' sparse matrices.  Because symbols
on different ladders commute exactly (Kronecker factors), the product is
assembled per ladder and tensor-embedded, preserving within-ladder order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, GridError
from .fockspace import FockLayout, LadderId, OperatorMatrix, embed, ladder_product

PRUNE_TOL = 1e-14
# One verify run realizes 49 distinct monomials on the default layout and 165
# on the README's two-mode layout; the bound holds either without eviction.
MONOMIAL_MATRIX_CACHE = 256


def mode_energy(momentum: float, mass: float) -> float:
    """Relativistic single-mode energy sqrt(p^2 + m^2)."""
    return math.hypot(momentum, mass)


@dataclass(frozen=True, order=True)
class LadderSymbol:
    ladder: LadderId
    dagger: bool
    phase_sign: int = 0

    def __post_init__(self):
        if self.phase_sign not in (-1, 0, 1):
            raise ValueError("phase_sign must be -1, 0 or +1")

    @property
    def wave_index(self) -> int:
        return self.phase_sign * self.ladder.mode_index

    def sort_key(self):
        return (self.ladder.family, self.ladder.mode_index, self.dagger, self.phase_sign)


@dataclass(frozen=True)
class LadderMonomial:
    coefficient: complex
    symbols: tuple[LadderSymbol, ...]

    @property
    def wave_index(self) -> int:
        """Net wavenumber in units of 2 pi / L, recomputed from the symbols."""
        return sum(s.wave_index for s in self.symbols)

    def phase(self, x, box_length: float):
        """The plane-wave factor exp(i 2 pi wave_index x / L) at x."""
        return np.exp(1j * (2.0 * math.pi / box_length) * self.wave_index * x)

    def scaled(self, factor: complex) -> "LadderMonomial":
        return LadderMonomial(self.coefficient * factor, self.symbols)


def _term_key(symbols: tuple[LadderSymbol, ...]):
    return (len(symbols),) + tuple(s.sort_key() for s in symbols)


@dataclass(frozen=True)
class LadderPolynomial:
    """Sum of monomials, like terms combined, coefficients below 1e-14 pruned."""

    terms: tuple[LadderMonomial, ...]

    @classmethod
    def from_terms(cls, terms: Iterable[LadderMonomial]) -> "LadderPolynomial":
        acc: dict[tuple[LadderSymbol, ...], complex] = {}
        for t in terms:
            acc[t.symbols] = acc.get(t.symbols, 0.0) + complex(t.coefficient)
        kept = [
            LadderMonomial(c, syms)
            for syms, c in acc.items()
            if abs(c) > PRUNE_TOL
        ]
        kept.sort(key=lambda m: _term_key(m.symbols))
        return cls(tuple(kept))

    def __add__(self, other: "LadderPolynomial") -> "LadderPolynomial":
        return LadderPolynomial.from_terms(self.terms + other.terms)

    def __sub__(self, other: "LadderPolynomial") -> "LadderPolynomial":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "LadderPolynomial":
        return LadderPolynomial.from_terms(t.scaled(scalar) for t in self.terms)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms


def constant(value: complex) -> LadderPolynomial:
    return LadderPolynomial.from_terms([LadderMonomial(value, ())])


def ladder_sum(entries: Sequence[tuple[LadderId, bool]], coefficient: complex = 1.0) -> LadderPolynomial:
    """Phase-free sum like a+_k + a_k from (ladder, dagger) pairs."""
    return LadderPolynomial.from_terms(
        LadderMonomial(coefficient, (LadderSymbol(lad, dag, 0),)) for lad, dag in entries
    )


def multiply(p: LadderPolynomial, q: LadderPolynomial) -> LadderPolynomial:
    """Operator product; symbol order is concatenation, never reordered."""
    return LadderPolynomial.from_terms(
        LadderMonomial(a.coefficient * b.coefficient, a.symbols + b.symbols)
        for a in p.terms
        for b in q.terms
    )


def power(p: LadderPolynomial, n: int) -> LadderPolynomial:
    result = constant(1.0)
    for _ in range(n):
        result = multiply(result, p)
    return result


def normal_order(p: LadderPolynomial) -> LadderPolynomial:
    """Definitional colon ordering: daggers left, no commutator terms."""
    out = []
    for t in p.terms:
        daggered = sorted((s for s in t.symbols if s.dagger), key=LadderSymbol.sort_key)
        plain = sorted((s for s in t.symbols if not s.dagger), key=LadderSymbol.sort_key)
        out.append(LadderMonomial(t.coefficient, tuple(daggered + plain)))
    return LadderPolynomial.from_terms(out)


def box_points(box_length: float, n: int) -> np.ndarray:
    """The n equal-spaced points -L/2 + j L / n of one box period."""
    points = np.array([-0.5 * box_length + j * box_length / n for j in range(n)])
    if not np.all(np.isfinite(points)):
        raise ConfigError(f"{n} points over box_length = {box_length!r} overflow float64")
    return points


def integrate_box(p: LadderPolynomial, box_length: float) -> LadderPolynomial:
    """Integrate exp(i K x) over the box: only K == 0 survives, times L."""
    return LadderPolynomial.from_terms(
        t.scaled(box_length) for t in p.terms if t.wave_index == 0
    )


# ---------------------------------------------------------------------------
# field expansions


def field_polynomial(field: str, config) -> LadderPolynomial:
    """Mode expansion of a field at x (phases carried symbolically).

    field is one of "neutral", "charged", "charged_dagger".  Per mode p:
      neutral:         (a_p e^{ipx} + a+_p e^{-ipx}) / sqrt(2 omega_p L)
      charged:         (b_p e^{ipx} + d+_p e^{-ipx}) / sqrt(2 E_p L)
      charged_dagger:  (b+_p e^{-ipx} + d_p e^{ipx}) / sqrt(2 E_p L)
    """
    L = config.box_length
    terms = []
    if field == "neutral":
        for n in config.neutral_modes:
            p = 2.0 * math.pi * n / L
            amp = 1.0 / math.sqrt(2.0 * mode_energy(p, config.mass_neutral) * L)
            lad = LadderId("a", n)
            terms.append(LadderMonomial(amp, (LadderSymbol(lad, False, +1),)))
            terms.append(LadderMonomial(amp, (LadderSymbol(lad, True, -1),)))
    elif field in ("charged", "charged_dagger"):
        conj = field == "charged_dagger"
        for n in config.charged_modes:
            p = 2.0 * math.pi * n / L
            amp = 1.0 / math.sqrt(2.0 * mode_energy(p, config.mass_charged) * L)
            b, d = LadderId("b", n), LadderId("d", n)
            if conj:
                terms.append(LadderMonomial(amp, (LadderSymbol(b, True, -1),)))
                terms.append(LadderMonomial(amp, (LadderSymbol(d, False, +1),)))
            else:
                terms.append(LadderMonomial(amp, (LadderSymbol(b, False, +1),)))
                terms.append(LadderMonomial(amp, (LadderSymbol(d, True, -1),)))
    else:
        raise ValueError(f"unknown field {field!r}")
    return LadderPolynomial.from_terms(terms)


# ---------------------------------------------------------------------------
# realization on a truncated layout


@lru_cache(maxsize=MONOMIAL_MATRIX_CACHE)
def _monomial_matrix(layout: FockLayout, symbols: tuple[LadderSymbol, ...]) -> sp.csr_matrix:
    blocks = {
        lad: ladder_product(layout.cutoff(lad), [s.dagger for s in symbols if s.ladder == lad])
        for lad in {s.ladder for s in symbols}
    }
    return embed(layout, blocks)


def realize(p: LadderPolynomial, layout: FockLayout) -> OperatorMatrix:
    """Sum of coefficient times ordered matrix product, phases ignored.

    Use realize_at for x-dependent polynomials; realize is the x = 0 value
    and the natural form for integrated (wave_index == 0) polynomials.
    """
    dim = layout.dimension
    acc = sp.csr_matrix((dim, dim), dtype=np.complex128)
    for t in p.terms:
        acc = acc + t.coefficient * _monomial_matrix(layout, t.symbols)
    return OperatorMatrix(layout, acc.tocsr())


def realize_at(p: LadderPolynomial, layout: FockLayout, x: float, box_length: float) -> OperatorMatrix:
    """Realization with each monomial weighted by exp(i 2pi wave_index x / L)."""
    dim = layout.dimension
    acc = sp.csr_matrix((dim, dim), dtype=np.complex128)
    for t in p.terms:
        acc = acc + (t.coefficient * t.phase(x, box_length)) * _monomial_matrix(layout, t.symbols)
    return OperatorMatrix(layout, acc.tocsr())


def quadrature_realize(p: LadderPolynomial, layout: FockLayout, box_length: float, n_x: int) -> OperatorMatrix:
    """Riemann-sum oracle for integrate_box: sum_j realize_at(x_j) * (L / N).

    The equal-weight sum over a full period is exact once n_x exceeds the
    polynomial's band limit max|wave_index| (no wave index can alias to 0);
    a grid at or under the band limit raises GridError rather than silently
    corrupting a check.
    """
    band = max((abs(t.wave_index) for t in p.terms), default=0)
    if n_x <= band:
        raise GridError(f"n_x = {n_x} at or under band limit {band}")
    dim = layout.dimension
    acc = sp.csr_matrix((dim, dim), dtype=np.complex128)
    for x in box_points(box_length, n_x):
        acc = acc + realize_at(p, layout, x, box_length).matrix
    return OperatorMatrix(layout, (acc * (box_length / n_x)).tocsr())

