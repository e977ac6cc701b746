"""Coherent displacement unitaries and the shift-identity checks.

U = U_cs * U_s with U_cs = exp(f1 ((b+_q + d+_q) - (b_q + d_q))) and
U_s = exp(f2 (a+_k - a_k)).  The generator is a sum of commuting single-ladder
blocks, so exp factorizes *exactly* into a Kronecker product of per-ladder
unitaries, truncation included.  Every check below conjugates operators
through those factors ladder by ladder; the reported residuals are exactly
the projected max norms of the full-space residual operators, at a cost that
stays polynomial in single-ladder cutoffs instead of the joint dimension.

The checks window each residual to occupations <= cutoff/2, and the windowed
identities are statements about the untruncated algebra, so each conjugation
is evaluated on a working space with enough levels above the window that the
hard cutoff cannot reflect into it.  The working headroom comes from the same
Poisson-tail bound as the admissibility policy, just at a far smaller
tail target: the displaced amplitude reaching D levels above the window
carries weight ~ exp(-f^2) f^(2D) / D!, and residuals scale with its square
root, so a 1e-20 tail keeps every windowed residual at the float64 noise
floor.  Without the headroom, the top-of-cutoff reflection contaminates the
window at the 1e-4 level for |f| = 1 and the checks would measure truncation
artifacts instead of the identities.

Verification-mode routines enforce the coherent-leakage policy on the
configured space itself: a displaced ladder must have a cutoff whose Poisson
tail at the requested amplitude is below 1e-12, else LeakageError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
import scipy.sparse as sp

from .errors import LayoutError, LeakageError
from .fockspace import (
    FockLayout,
    LadderId,
    OperatorMatrix,
    StateVector,
    displacement_block,
    embed,
    ladder_product,
    leakage_admissible,
    lowering_block,
    poisson_tail,
    raising_block,
)
from .ladderalg import box_points
from .model import ModelConfig, build_layout, field_algebra, shift_profiles

MATERIALIZE_NNZ_CAP = 30_000_000

WORK_TAIL_BOUND = 1e-20
WORK_BAND_MARGIN = 4
X_SAMPLE_COUNT = 8
# entries per residual-window tile: its real and imaginary parts, 512 KB
# each in float64, stay in a core's L2 cache while they are reduced
WINDOW_TILE_ENTRIES = 1 << 16

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
    """Which ladder is displaced by how much: b_q, d_q by f1 and a_k by f2."""
    return {
        LadderId("b", config.q_index): params.f1,
        LadderId("d", config.q_index): params.f1,
        LadderId("a", config.k_index): params.f2,
    }


def require_admissible(config: ModelConfig, params: DisplacementParams, layout: FockLayout) -> None:
    for lad, f in displaced_amplitudes(config, params).items():
        cutoff = layout.cutoff(lad)
        if not leakage_admissible(f, cutoff):
            raise LeakageError(
                f"amplitude {f} on ladder {lad} (cutoff {cutoff}) leaks"
                f" {poisson_tail(f, cutoff):.3e} > 1e-12"
            )


@dataclass(frozen=True, eq=False)
class Displacement:
    """Per-ladder dense factors of U; absent ladders are identity."""

    layout: FockLayout
    params: DisplacementParams
    factors: Mapping[LadderId, np.ndarray]

    def apply(self, state: StateVector) -> StateVector:
        if state.layout != self.layout:
            raise LayoutError("state lives on a different layout")
        tensor = state.amplitudes.reshape(self.layout.dims)
        for lad, u in self.factors.items():
            axis = self.layout.position(lad)
            tensor = np.moveaxis(np.tensordot(u, tensor, axes=(1, axis)), 0, axis)
        return StateVector(self.layout, np.ascontiguousarray(tensor).reshape(-1))

    def as_operator(self) -> OperatorMatrix:
        nnz = 1
        for lad, dim in zip(self.layout.ladders, self.layout.dims):
            nnz *= dim * dim if lad in self.factors else dim
        if nnz > MATERIALIZE_NNZ_CAP:
            raise LayoutError(
                f"materializing this displacement needs ~{nnz} nonzeros"
                f" (cap {MATERIALIZE_NNZ_CAP}); use apply instead"
            )
        return OperatorMatrix(self.layout, embed(self.layout, self.factors))


def displacement(config: ModelConfig, params: DisplacementParams, layout: FockLayout | None = None) -> Displacement:
    layout = layout or build_layout(config)
    factors: dict[LadderId, np.ndarray] = {}
    for lad, f in displaced_amplitudes(config, params).items():
        if f != 0.0:
            factors[lad] = displacement_block(layout.cutoff(lad), f)
    return Displacement(layout, params, factors)


def build_U(config: ModelConfig, params: DisplacementParams, layout: FockLayout | None = None) -> OperatorMatrix:
    return displacement(config, params, layout).as_operator()


# ---------------------------------------------------------------------------
# working spaces and projected-residual helpers


def working_headroom(amplitude: float) -> int:
    """Levels above the window needed before the cutoff wall is invisible."""
    head = 1
    while poisson_tail(amplitude, head) >= WORK_TAIL_BOUND:
        head += 1
    return head


@dataclass(frozen=True, eq=False)
class _WorkFrame:
    """Single-ladder evaluation space: window plus headroom above it."""

    amplitude: float
    window: int
    lowering: np.ndarray
    raising: np.ndarray
    unitary: np.ndarray | None

    @property
    def dim(self) -> int:
        return self.lowering.shape[0]

    def conjugate(self, block: np.ndarray) -> np.ndarray:
        if self.unitary is None:
            return block
        return self.unitary.conj().T @ block @ self.unitary

    def shift_defect(self, dagger: bool) -> np.ndarray:
        """U+ x U - x - f, for x this ladder's lowering or raising block."""
        block = self.raising if dagger else self.lowering
        diff = self.conjugate(block) - block
        if self.amplitude != 0.0:
            diff = diff - self.amplitude * np.eye(self.dim)
        return diff


def _window(cutoff: int) -> int:
    """Levels 0..cutoff/2 of a ladder, where every residual is compared."""
    return cutoff // 2 + 1


def _work_frames(
    config: ModelConfig, params: DisplacementParams, layout: FockLayout
) -> dict[LadderId, _WorkFrame]:
    amplitudes = displaced_amplitudes(config, params)
    frames = {}
    for lad in layout.ladders:
        amp = amplitudes.get(lad, 0.0)
        window = _window(layout.cutoff(lad))
        work = (window - 1) + WORK_BAND_MARGIN + working_headroom(abs(amp))
        frames[lad] = _WorkFrame(
            amplitude=amp,
            window=window,
            lowering=lowering_block(work),
            raising=raising_block(work),
            unitary=displacement_block(work, amp) if amp != 0.0 else None,
        )
    return frames


def _window_sum_max(blocks: Mapping[LadderId, np.ndarray], scalar: complex, frames: Mapping[LadderId, _WorkFrame]) -> float:
    """Exact projected max norm of sum_l blocks[l] (x) identity + scalar.

    Entries off-diagonal in one ladder come from that ladder's block alone;
    diagonal entries are sums of per-ladder diagonals plus the scalar, and
    the maximum over the projected box is taken by explicit outer addition.
    """
    off_max = 0.0
    diag_total = np.array([scalar], dtype=np.complex128)
    for lad, block in blocks.items():
        if not np.any(block):
            continue
        m = frames[lad].window
        sub = block[:m, :m]
        off = sub - np.diag(np.diag(sub))
        off_max = max(off_max, float(np.max(np.abs(off))))
        diag_total = np.add.outer(diag_total, np.diag(sub)).ravel()
    return max(off_max, float(np.max(np.abs(diag_total))))


# ---------------------------------------------------------------------------
# ladder and free-Hamiltonian shifts


def check_ladder_shifts(
    config: ModelConfig, params: DisplacementParams, layout: FockLayout | None = None
) -> list[ResidualCheck]:
    """Residuals of U+ x U = x + shift for every ladder operator and adjoint."""
    layout = layout or build_layout(config)
    require_admissible(config, params, layout)
    frames = _work_frames(config, params, layout)
    checks = []
    for lad in layout.ladders:
        frame = frames[lad]
        m = frame.window
        for dagger, suffix in ((False, ""), (True, "_dag")):
            if frame.unitary is None:
                residual = 0.0
            else:
                residual = float(np.max(np.abs(frame.shift_defect(dagger)[:m, :m])))
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
    require_admissible(config, params, layout)
    frames = _work_frames(config, params, layout)
    f1, f2 = params.f1, params.f2

    def shifted_number_residual(lad: LadderId, energy: float, amplitude: float) -> np.ndarray | None:
        frame = frames[lad]
        if frame.unitary is None and amplitude == 0.0:
            return None
        number = np.diag(np.arange(frame.dim, dtype=np.float64))
        expected = amplitude * (frame.raising + frame.lowering) + amplitude * amplitude * np.eye(frame.dim)
        return energy * (frame.conjugate(number) - number - expected)

    neutral_blocks = {}
    for n in config.neutral_modes:
        lad = LadderId("a", n)
        block = shifted_number_residual(lad, config.omega(n), f2 if n == config.k_index else 0.0)
        if block is not None:
            neutral_blocks[lad] = block
    charged_blocks = {}
    for n in config.charged_modes:
        for fam in ("b", "d"):
            lad = LadderId(fam, n)
            block = shifted_number_residual(lad, config.charged_energy(n), f1 if n == config.q_index else 0.0)
            if block is not None:
                charged_blocks[lad] = block

    checks = [
        ResidualCheck(
            "free_shift[neutral]",
            f1,
            f2,
            _window_sum_max(neutral_blocks, 0.0, frames),
            FREE_SHIFT_TOL,
        ),
        ResidualCheck(
            "free_shift[charged]",
            f1,
            f2,
            _window_sum_max(charged_blocks, 0.0, frames),
            FREE_SHIFT_TOL,
        ),
    ]

    def vacuum_number_value(lads_energies) -> float:
        total = 0.0
        for lad, energy in lads_energies:
            u = frames[lad].unitary
            if u is None:
                continue
            column = u[:, 0]
            total += energy * float(np.sum(np.arange(len(column)) * np.abs(column) ** 2))
        return total

    neutral_value = vacuum_number_value((LadderId("a", n), config.omega(n)) for n in config.neutral_modes)
    charged_value = vacuum_number_value(
        (LadderId(fam, n), config.charged_energy(n)) for n in config.charged_modes for fam in ("b", "d")
    )
    checks.append(
        ResidualCheck(
            "free_shift_vacuum[neutral]",
            f1,
            f2,
            abs(neutral_value - config.omega_k * f2 * f2),
            FREE_SHIFT_TOL,
        )
    )
    checks.append(
        ResidualCheck(
            "free_shift_vacuum[charged]",
            f1,
            f2,
            abs(charged_value - 2.0 * config.energy_q * f1 * f1),
            FREE_SHIFT_TOL,
        )
    )
    return checks


# ---------------------------------------------------------------------------
# field shifts


def check_field_shift(
    config: ModelConfig, params: DisplacementParams, layout: FockLayout | None = None
) -> list[ResidualCheck]:
    """U+ field(x) U = field(x) + shift profile, at sampled x values."""
    layout = layout or build_layout(config)
    require_admissible(config, params, layout)
    frames = _work_frames(config, params, layout)
    xs = box_points(config.box_length, X_SAMPLE_COUNT)
    n1, n2 = shift_profiles(config)

    def ladder_diff(lad: LadderId, dagger: bool) -> np.ndarray:
        frame = frames[lad]
        block = frame.raising if dagger else frame.lowering
        return frame.conjugate(block) - block

    fa = field_algebra(config)
    checks = []
    for field_kind, poly, shift_of_x in (
        ("neutral", fa.phihat, lambda x: params.f2 * n2(x)),
        ("charged", fa.phi, lambda x: params.f1 * n1(x)),
        ("charged_dagger", fa.phi_dag, lambda x: params.f1 * n1(x)),
    ):
        diffs = {
            (s.ladder, s.dagger): ladder_diff(s.ladder, s.dagger)
            for t in poly.terms
            for s in t.symbols
        }
        for j, x in enumerate(xs):
            blocks: dict[LadderId, np.ndarray] = {}
            for t in poly.terms:
                (sym,) = t.symbols
                contrib = (t.coefficient * t.phase(x, config.box_length)) * diffs[(sym.ladder, sym.dagger)]
                if sym.ladder in blocks:
                    blocks[sym.ladder] = blocks[sym.ladder] + contrib
                else:
                    blocks[sym.ladder] = contrib
            residual = _window_sum_max(blocks, -shift_of_x(float(x)), frames)
            checks.append(
                ResidualCheck(f"field_shift[{field_kind}][x{j}]", params.f1, params.f2, residual, FIELD_SHIFT_TOL)
            )
    return checks


# ---------------------------------------------------------------------------
# normal-ordering interchange


@dataclass(frozen=True)
class _InterchangeTerm:
    """One Kronecker term c(x; f1, f2) * K of an interchange residual.

    The x-coefficient is base(x) * (f1 n1(x))^n1_power * (f2 n2(x))^n2_power,
    with sign, monomial coefficient, binomial weight, and plane-wave phase all
    folded into base.
    """

    base: np.ndarray
    n1_power: int
    n2_power: int
    symbols: tuple


@dataclass(frozen=True, eq=False)
class _InterchangeSystem:
    """One identity laid out as a real rows x cols residual window.

    Rows run over the raveled Kronecker product of the leading ladders'
    windowed blocks, cols over the raveled block of the last ladder, so a
    full-space entry sits at flat index row * cols + col.  Conjugated terms
    (the U+ ... U side) are rebuilt at every grid point; static terms (the
    shifted expansion, entering with negative weight) are stored once as
    static_rows over the ascending flat indices in support, their union
    sparsity pattern.
    """

    name: str
    ladders: tuple[LadderId, ...]
    conjugated: tuple[_InterchangeTerm, ...]
    static: tuple[_InterchangeTerm, ...]
    support: np.ndarray
    static_rows: np.ndarray


def _window_max(
    grouped_re: np.ndarray,
    grouped_im: np.ndarray,
    class_blocks: np.ndarray,
    support: np.ndarray,
    static_re: np.ndarray,
    static_im: np.ndarray,
) -> float:
    """Largest |entry| of (grouped_re + i grouped_im) @ class_blocks + static.

    The static values sit at the ascending flat indices support and are zero
    elsewhere.  The window is formed WINDOW_TILE_ENTRIES at a time, in whole
    rows, so each tile is written and reduced while it is still in cache; a
    NaN anywhere makes the result NaN.
    """
    rows = grouped_re.shape[0]
    cols = class_blocks.shape[1]
    step = max(1, WINDOW_TILE_ENTRIES // cols)
    starts = np.arange(0, rows, step)
    bounds = np.searchsorted(support, np.append(starts, rows) * cols)
    peaks = np.empty(len(starts))
    for k, r0 in enumerate(starts):
        re = grouped_re[r0 : r0 + step] @ class_blocks
        im = grouped_im[r0 : r0 + step] @ class_blocks
        lo, hi = bounds[k], bounds[k + 1]
        local = support[lo:hi] - r0 * cols
        re.ravel()[local] += static_re[lo:hi]
        im.ravel()[local] += static_im[lo:hi]
        np.multiply(re, re, out=re)
        np.multiply(im, im, out=im)
        re += im
        peaks[k] = re.max()
    return math.sqrt(peaks.max())


class InterchangeChecker:
    """Conjugated normal-ordered interaction densities vs their shifted
    expansions, pointwise in x.

    quartic: U+ :phihat^4: U = sum_j C(4,j) (f2 n2)^(4-j) :phihat^j:
    cubic:   U+ :phi+ phi: phihat U = :phi+ phi: phihat
             + f1 n1 (phi+ + phi) phihat + f1^2 n1^2 phihat
             + f2 n2 :phi+ phi: + f1 f2 n1 n2 (phi+ + phi) + f1^2 f2 n1^2 n2

    Both sides are sums of Kronecker-product terms whose per-ladder blocks do
    not depend on x.  The expansion side does not depend on the amplitudes
    either: its windowed blocks are plain products of ladder matrices, exact
    on window + WORK_BAND_MARGIN levels because no monomial carries more
    than WORK_BAND_MARGIN symbols on one ladder.  So it is built once, as
    sparse Kronecker rows on its union support.  Each run conjugates only
    the left-hand terms on the working spaces, where the windows are clean
    of cutoff reflections at any admissible amplitude, and folds them into
    a two-stage contraction.  All blocks are real, so the complex
    x-coefficients enter as two real GEMMs per x, evaluated in row tiles.
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
        quartic_static = [(powers[j], -float(math.comb(4, j)), 0, 4 - j) for j in range(5)]
        cubic_static = [
            (fa.cubic, -1.0, 0, 0),
            (fa.charged_sum_neutral, -1.0, 1, 0),
            (fa.phihat, -1.0, 2, 0),
            (fa.density, -1.0, 0, 1),
            (fa.charged_sum, -1.0, 1, 1),
            (powers[0], -1.0, 2, 1),
        ]
        self._systems = [
            self._system("quartic", powers[4], quartic_static),
            self._system("cubic", fa.cubic, cubic_static),
        ]

    def _system(self, name, lhs_poly, static_groups) -> _InterchangeSystem:
        conjugated = self._poly_terms(lhs_poly, +1.0, 0, 0)
        static = [t for poly, weight, a, b in static_groups for t in self._poly_terms(poly, weight, a, b)]
        used = {s.ladder for t in conjugated + static for s in t.symbols}
        ladders = tuple(lad for lad in self.layout.ladders if lad in used)

        def block(term: _InterchangeTerm, lad: LadderId) -> sp.csr_matrix:
            m = _window(self.layout.cutoff(lad))
            mat = ladder_product(m - 1 + WORK_BAND_MARGIN, [s.dagger for s in term.symbols if s.ladder == lad])
            return sp.csr_matrix(mat[:m, :m])

        vectors = []
        for t in static:
            *leading, last = (block(t, lad) for lad in ladders)
            lead = sp.csr_matrix(np.ones((1, 1)))
            for part in leading:
                lead = sp.kron(lead, part)
            vectors.append(sp.kron(lead.reshape(1, -1), last.reshape(1, -1)))
        stacked = sp.vstack(vectors, format="csr")
        stacked.eliminate_zeros()
        support = np.unique(stacked.indices)
        return _InterchangeSystem(
            name, ladders, tuple(conjugated), tuple(static), support, stacked[:, support].toarray()
        )

    def _poly_terms(self, poly, weight, a, b) -> list[_InterchangeTerm]:
        out = []
        for mono in poly.terms:
            phase = mono.phase(self.x_samples, self.config.box_length)
            out.append(_InterchangeTerm(weight * complex(mono.coefficient) * phase, a, b, mono.symbols))
        return out

    def _coefficients(self, terms, params: DisplacementParams) -> np.ndarray:
        return np.stack(
            [
                t.base * (params.f1 * self._n1x) ** t.n1_power * (params.f2 * self._n2x) ** t.n2_power
                for t in terms
            ],
            axis=1,
        )

    def _folded_terms(self, system: _InterchangeSystem, frames):
        """Conjugated Kronecker rows, grouped for a two-stage contraction.

        All but the last ladder fold into per-term raveled rows; the last
        ladder usually carries only a handful of distinct blocks (the field
        factor), so its blocks are deduplicated into classes.
        """

        def block(term: _InterchangeTerm, lad: LadderId) -> np.ndarray:
            frame = frames[lad]
            daggers = [s.dagger for s in term.symbols if s.ladder == lad]
            if not daggers:
                return np.eye(frame.window)
            mat = frame.conjugate(ladder_product(frame.dim - 1, daggers))
            return mat[: frame.window, : frame.window]

        terms = system.conjugated
        *leading, last = system.ladders
        lead = np.ones((len(terms), 1, 1))
        for lad in leading:
            part = np.stack([block(t, lad) for t in terms])
            rows = lead.shape[1] * part.shape[1]
            lead = np.einsum("tab,tcd->tacbd", lead, part).reshape(len(terms), rows, rows)
        class_of = []
        class_blocks: list[np.ndarray] = []
        signatures: dict = {}
        for t in terms:
            sig = tuple(s.dagger for s in t.symbols if s.ladder == last)
            if sig not in signatures:
                signatures[sig] = len(class_blocks)
                class_blocks.append(block(t, last).ravel())
            class_of.append(signatures[sig])
        membership = np.eye(len(class_blocks))[class_of]
        return lead.reshape(len(terms), -1), np.stack(class_blocks), membership

    def run(self, params: DisplacementParams) -> list[ResidualCheck]:
        require_admissible(self.config, params, self.layout)
        frames = _work_frames(self.config, params, self.layout)
        checks = []
        for system in self._systems:
            lead, class_blocks, membership = self._folded_terms(system, frames)
            coeff = self._coefficients(system.conjugated, params)
            static_coeff = self._coefficients(system.static, params)
            static_re = static_coeff.real @ system.static_rows
            static_im = static_coeff.imag @ system.static_rows
            for j in range(len(self.x_samples)):
                weights = coeff[j][:, None] * membership
                residual = _window_max(
                    lead.T @ weights.real,
                    lead.T @ weights.imag,
                    class_blocks,
                    system.support,
                    static_re[j],
                    static_im[j],
                )
                checks.append(
                    ResidualCheck(f"interchange[{system.name}][x{j}]", params.f1, params.f2, residual, INTERCHANGE_TOL)
                )
        return checks


# ---------------------------------------------------------------------------
# structural checks


def check_unitarity(config: ModelConfig, params: DisplacementParams, layout: FockLayout | None = None) -> ResidualCheck:
    """Summed per-factor defect of U+ U = 1; the factors are exact Kronecker
    components, so a zero sum certifies the full-space product."""
    layout = layout or build_layout(config)
    disp = displacement(config, params, layout)
    total = 0.0
    for u in disp.factors.values():
        eye = np.eye(u.shape[0])
        total += float(np.max(np.abs(u.conj().T @ u - eye)))
    return ResidualCheck("unitarity", params.f1, params.f2, total, UNITARITY_TOL)


def check_composition(config: ModelConfig, params: DisplacementParams, layout: FockLayout | None = None) -> ResidualCheck:
    """U(f) U(-f) = 1, evaluated factor by factor."""
    layout = layout or build_layout(config)
    forward = displacement(config, params, layout)
    backward = displacement(config, DisplacementParams(-params.f1, -params.f2), layout)
    total = 0.0
    for lad, u in forward.factors.items():
        v = backward.factors[lad]
        eye = np.eye(u.shape[0])
        total += float(np.max(np.abs(u @ v - eye)))
    return ResidualCheck("composition", params.f1, params.f2, total, COMPOSITION_TOL)
