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
symbols always commute.  powers gives the chain (1, p, ..., p^n) of
products, and adjoint the conjugate p+, which is how phi+ comes from phi.
Box integration over x in [-L/2, L/2] keeps exactly the wave_index == 0
monomials and multiplies them by L.  A coherent displacement acts on a
box-integrated polynomial symbolically: shift rewrites each symbol on a
displaced ladder as symbol + f and groups the result by the powers of the
amplitudes.

Realization maps a polynomial onto a truncated Fock layout in product
form: symbols on different ladders commute exactly, so each monomial keeps
its coefficient and, per ladder, the ordered product of its symbols there as
one word, stored as the shift and weights of word_weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import ConfigError, GridError
from .fockspace import FockLayout, LadderId, OperatorMatrix, word_weights

PRUNE_TOL = 1e-14


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


def constant(value: complex) -> LadderPolynomial:
    return LadderPolynomial.from_terms([LadderMonomial(value, ())])


def multiply(p: LadderPolynomial, q: LadderPolynomial) -> LadderPolynomial:
    """Operator product; symbol order is concatenation, never reordered."""
    return LadderPolynomial.from_terms(
        LadderMonomial(a.coefficient * b.coefficient, a.symbols + b.symbols)
        for a in p.terms
        for b in q.terms
    )


def powers(p: LadderPolynomial, n: int) -> tuple[LadderPolynomial, ...]:
    """The chain (1, p, ..., p^n), each power the previous one times p."""
    chain = [constant(1.0)]
    for _ in range(n):
        chain.append(multiply(chain[-1], p))
    return tuple(chain)


def normal_order(p: LadderPolynomial) -> LadderPolynomial:
    """Definitional colon ordering: daggers left, no commutator terms."""
    out = []
    for t in p.terms:
        daggered = sorted((s for s in t.symbols if s.dagger), key=LadderSymbol.sort_key)
        plain = sorted((s for s in t.symbols if not s.dagger), key=LadderSymbol.sort_key)
        out.append(LadderMonomial(t.coefficient, tuple(daggered + plain)))
    return LadderPolynomial.from_terms(out)


def adjoint(p: LadderPolynomial) -> LadderPolynomial:
    """p+: each monomial reversed, with every symbol's dagger flipped and its
    phase negated, and its coefficient conjugated."""
    return LadderPolynomial.from_terms(
        LadderMonomial(
            complex(t.coefficient).conjugate(),
            tuple(LadderSymbol(s.ladder, not s.dagger, -s.phase_sign) for s in reversed(t.symbols)),
        )
        for t in p.terms
    )


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


def subwords(word: tuple) -> list[tuple[tuple, tuple]]:
    """Every ordered sub-product of a word, with the symbols it drops:
    prod_i (x_i + f_i) = sum of prod(f_i over dropped) * kept over them."""
    return [
        (
            tuple(x for i, x in enumerate(word) if mask >> i & 1),
            tuple(x for i, x in enumerate(word) if not mask >> i & 1),
        )
        for mask in range(1 << len(word))
    ]


def shift(p: LadderPolynomial, amplitudes: Mapping[LadderId, int]) -> dict[tuple[int, ...], LadderPolynomial]:
    """U+ p U for a displacement U that adds the real amplitude f_g to every
    symbol, raising or lowering, on a ladder l with amplitudes[l] = g.

    Returns the groups G keyed by powers (i_0, i_1, ...) of (f_0, f_1, ...),
    with U+ p U = sum f_0^i_0 f_1^i_1 ... G.  Each symbol's shift is a
    c-number, so only box-integrated (wave index 0) polynomials are accepted:
    a monomial's total phase stays 0 whichever of its symbols become
    c-numbers, and the groups are x-independent, with phase-free symbols.
    """
    count = max(amplitudes.values(), default=-1) + 1
    groups: dict[tuple[int, ...], list[LadderMonomial]] = {}
    for t in p.terms:
        if t.wave_index != 0:
            raise ValueError(f"shift needs a box-integrated polynomial; a monomial has wave index {t.wave_index}")
        for kept, dropped in subwords(t.symbols):
            if any(s.ladder not in amplitudes for s in dropped):
                continue
            powers = [0] * count
            for s in dropped:
                powers[amplitudes[s.ladder]] += 1
            symbols = tuple(LadderSymbol(s.ladder, s.dagger) for s in kept)
            groups.setdefault(tuple(powers), []).append(LadderMonomial(t.coefficient, symbols))
    return {powers: LadderPolynomial.from_terms(terms) for powers, terms in sorted(groups.items())}


# ---------------------------------------------------------------------------
# field expansions


def field_polynomial(field: str, config) -> LadderPolynomial:
    """Mode expansion of a field at x (phases carried symbolically).

    field is "neutral" or "charged"; phi+ is the charged field's adjoint.
    Per mode p, with the config's dispersions:
      neutral:  (a_p e^{ipx} + a+_p e^{-ipx}) / sqrt(2 omega_p L)
      charged:  (b_p e^{ipx} + d+_p e^{-ipx}) / sqrt(2 E_p L)
    """
    if field == "neutral":
        modes, energy, lowered, raised = config.neutral_modes, config.omega, "a", "a"
    elif field == "charged":
        modes, energy, lowered, raised = config.charged_modes, config.charged_energy, "b", "d"
    else:
        raise ValueError(f"unknown field {field!r}")
    terms = []
    for n in modes:
        amp = 1.0 / math.sqrt(2.0 * energy(n) * config.box_length)
        terms.append(LadderMonomial(amp, (LadderSymbol(LadderId(lowered, n), False, +1),)))
        terms.append(LadderMonomial(amp, (LadderSymbol(LadderId(raised, n), True, -1),)))
    return LadderPolynomial.from_terms(terms)


# ---------------------------------------------------------------------------
# realization on a truncated layout


def realize(p: LadderPolynomial, layout: FockLayout) -> OperatorMatrix:
    """Each monomial's coefficient and its word on every ladder, phases
    ignored: the x = 0 value of an x-dependent polynomial and the natural
    form for integrated (wave_index == 0) polynomials.  Each ladder lists
    its distinct words once, the empty word first."""
    indices: list[dict[tuple[bool, ...], int]] = [{(): 0} for _ in layout.ladders]
    terms = []
    for t in p.terms:
        daggers: dict[LadderId, tuple[bool, ...]] = {}
        for s in t.symbols:
            daggers[s.ladder] = daggers.get(s.ladder, ()) + (s.dagger,)
        for ladder in daggers:
            layout.position(ladder)
        index = tuple(seen.setdefault(daggers.get(ladder, ()), len(seen)) for ladder, seen in zip(layout.ladders, indices))
        terms.append((t.coefficient, index))
    words = tuple(tuple(word_weights(dim, word) for word in seen) for dim, seen in zip(layout.dims, indices))
    return OperatorMatrix(layout, words, tuple(terms))


def quadrature_integrate(p: LadderPolynomial, box_length: float, n_x: int) -> LadderPolynomial:
    """Riemann-sum oracle for integrate_box: (L / N) sum_j p(x_j), term by term.

    Each monomial's coefficient is multiplied by its phase summed over the
    nodes and by L / N; nothing is pruned, so each coefficient can be compared
    with integrate_box's at the rounding floor.  The equal-weight sum over a
    full period is exact once n_x exceeds the polynomial's band limit
    max|wave_index| (no wave index can alias to 0); a grid at or under the
    band limit raises GridError rather than silently corrupting a check.
    """
    band = max((abs(t.wave_index) for t in p.terms), default=0)
    if n_x <= band:
        raise GridError(f"n_x = {n_x} at or under band limit {band}")
    xs = box_points(box_length, n_x)
    weight = box_length / n_x
    return LadderPolynomial(tuple(t.scaled(np.sum(t.phase(xs, box_length)) * weight) for t in p.terms))


def coefficient_gap(p: LadderPolynomial, q: LadderPolynomial) -> float:
    """Largest |coefficient of p - coefficient of q| over their monomials,
    a monomial missing from one side counting as 0; nothing is pruned."""
    gaps = {t.symbols: complex(t.coefficient) for t in p.terms}
    for t in q.terms:
        gaps[t.symbols] = gaps.get(t.symbols, 0.0) - t.coefficient
    return float(max((abs(g) for g in gaps.values()), default=0.0))
