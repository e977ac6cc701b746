"""Truncated multi-ladder bosonic Fock spaces.

A layout is an ordered list of independent bosonic ladders, each truncated at
a per-ladder occupation cutoff.  The joint basis is the tensor product of the
single-ladder bases in row-major order, with the occupation of the *last*
ladder varying fastest, so basis index i maps to occupations
``np.unravel_index(i, dims)`` with ``dims = (cutoff + 1, ...)``.

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
from typing import Iterable, Mapping, Sequence

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

DIMENSION_CAP = 2_000_000
LEAKAGE_TAIL_BOUND = 1e-12
# A verify run on the built-in config needs 13 distinct displacement blocks:
# 6 full ones at cutoff 16 (an undisplaced ladder needs none), 6 work-frame
# column blocks and the probe that sizes the frames.  The two-mode README
# config needs 39, and a 32-entry cache still computes each of them once.
DISPLACEMENT_BLOCK_CACHE = 32
# Sizes a verify run diagonalizes: per cutoff the ladder itself, its work
# frame and the frame-size probe, so 3 on the built-in config and 9 on the
# two-mode README config.
X_BASIS_CACHE = 16


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
        dim = 1
        for c in self.cutoffs:
            dim *= c + 1
            if dim > DIMENSION_CAP:
                raise LayoutError(f"layout dimension exceeds cap {DIMENSION_CAP}")

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(c + 1 for c in self.cutoffs)

    @cached_property
    def dimension(self) -> int:
        return int(np.prod(self.dims, dtype=np.int64))

    def position(self, ladder: LadderId) -> int:
        try:
            return self.ladders.index(ladder)
        except ValueError as exc:
            raise LayoutError(f"ladder {ladder} not in layout") from exc

    def cutoff(self, ladder: LadderId) -> int:
        return self.cutoffs[self.position(ladder)]

    def basis_index(self, occupations: Sequence[int]) -> int:
        return int(np.ravel_multi_index(tuple(occupations), self.dims))

    def occupations(self) -> np.ndarray:
        """(dimension, n_ladders) array of occupations per basis state."""
        grids = np.indices(self.dims).reshape(len(self.dims), -1)
        return grids.T


def _translate(values: np.ndarray, shift: Sequence[int]) -> np.ndarray:
    """out[n + shift] = values[n], zero where n - shift leaves the layout."""
    out = np.zeros_like(values)
    target = tuple(slice(max(0, k), max(0, d + k)) for k, d in zip(shift, values.shape))
    out[target] = values[tuple(slice(max(0, -k), max(0, d - k)) for k, d in zip(shift, values.shape))]
    return out


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Operator bound to a layout, as one dims-shaped array per tuple s of
    per-ladder shifts: entry n of diagonals[s] is <n + s| O |n>, zero where
    n + s leaves the layout (a product of ladder words is one such array).
    Each entry is formed as a sparse matrix forms it, so it is the same float.
    """

    layout: FockLayout
    diagonals: Mapping[tuple[int, ...], np.ndarray]

    def _check(self, other: "OperatorMatrix"):
        if self.layout != other.layout:
            raise LayoutError("operators live on different layouts")

    def _merge(self, other: "OperatorMatrix", op) -> "OperatorMatrix":
        self._check(other)
        a, b = self.diagonals, other.diagonals
        return OperatorMatrix(self.layout, {s: op(a.get(s, 0.0), b.get(s, 0.0)) for s in dict.fromkeys([*a, *b])})

    def __add__(self, other):
        return self._merge(other, np.add)

    def __sub__(self, other):
        return self._merge(other, np.subtract)

    def __mul__(self, scalar):
        return OperatorMatrix(self.layout, {s: v * scalar for s, v in self.diagonals.items()})

    __rmul__ = __mul__

    def __matmul__(self, other):
        """other moves n to n + t, then self moves n + t to n + t + s."""
        self._check(other)
        out: dict[tuple[int, ...], np.ndarray] = {}
        for t, right in other.diagonals.items():
            for s, left in self.diagonals.items():
                shift = tuple(a + b for a, b in zip(s, t))
                out[shift] = out.get(shift, 0.0) + _translate(left, [-k for k in t]) * right
        return OperatorMatrix(self.layout, out)

    def adjoint(self) -> "OperatorMatrix":
        flipped = {tuple(-k for k in s): _translate(v.conj(), s) for s, v in self.diagonals.items()}
        return OperatorMatrix(self.layout, flipped)

    @cached_property
    def _flat(self) -> list[tuple[int, np.ndarray]]:
        """(basis-index offset, flat values) per diagonal; a sparse row sums
        its terms in ascending column order, which is descending offset."""
        strides = np.cumprod((1,) + self.layout.dims[:0:-1])[::-1]
        flat = [(int(np.dot(s, strides)), v.reshape(-1)) for s, v in self.diagonals.items()]
        return sorted(flat, key=lambda e: -e[0])

    def apply(self, state: "StateVector") -> "StateVector":
        """O |psi>.  A diagonal is zero where n + s leaves the layout, so it
        acts as one flat slice at its offset, in the order of _flat."""
        if state.layout != self.layout:
            raise LayoutError("operator and state live on different layouts")
        psi, out = state.amplitudes, np.zeros(len(state.amplitudes), dtype=np.complex128)
        for k, values in self._flat:
            lo, n = max(0, -k), max(0, len(psi) - abs(k))
            out[lo + k : lo + k + n] += values[lo : lo + n] * psi[lo : lo + n]
        return StateVector(self.layout, out)

    def max_abs(self) -> float:
        return max((float(np.max(np.abs(v))) for v in self.diagonals.values()), default=0.0)

    def hermiticity_residual(self) -> float:
        return (self - self.adjoint()).max_abs()


@dataclass(frozen=True, eq=False)
class StateVector:
    """Dense complex state bound to a layout."""

    layout: FockLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.amplitudes.shape != (self.layout.dimension,):
            raise LayoutError("state length does not match layout dimension")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.layout, self.amplitudes / n)


# ---------------------------------------------------------------------------
# single-ladder blocks and words


def lowering_block(cutoff: int) -> np.ndarray:
    """Dense single-ladder lowering block: <n-1|a|n> = sqrt(n), top row kept."""
    return np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)


def raising_block(cutoff: int) -> np.ndarray:
    """Exact transpose of the lowering block (real entries)."""
    return lowering_block(cutoff).T.copy()


def word_weights(dim: int, daggers: Iterable[bool]) -> tuple[int, np.ndarray]:
    """(shift, weights) of the ordered product of raising (True) and
    lowering (False) blocks on dim levels: level n goes to n + shift with
    weight weights[n], 0 where n + shift leaves the ladder.  Each weight is
    the left-to-right product of its factors, as the dense chain forms it."""
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
    return shift, weight


def word_rows(rows: np.ndarray, daggers: Iterable[bool]) -> np.ndarray:
    """rows @ word, for the ordered product of raising (True) and lowering
    (False) blocks: column n is weights[n] times column n + shift of rows
    (word_weights), and zero where that runs off either end."""
    shift, weight = word_weights(rows.shape[1], daggers)
    out = rows.take(np.arange(shift, rows.shape[1] + shift), axis=1, mode="clip") * weight
    out[:, weight == 0.0] = 0.0
    return out


def ladder_product(cutoff: int, daggers: Iterable[bool]) -> np.ndarray:
    """Ordered product of raising (True) and lowering (False) blocks on one
    ladder; the identity for an empty word."""
    return word_rows(np.eye(cutoff + 1), daggers)


def number_operator(layout: FockLayout, ladder: LadderId) -> OperatorMatrix:
    occ = np.indices(layout.dims)[layout.position(ladder)].astype(np.complex128)
    return OperatorMatrix(layout, {(0,) * len(layout.dims): occ})


# ---------------------------------------------------------------------------
# states


def vacuum(layout: FockLayout) -> StateVector:
    amps = np.zeros(layout.dimension, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(layout, amps)


def basis_state(layout: FockLayout, occupations: Mapping[LadderId, int] | Sequence[int]) -> StateVector:
    if isinstance(occupations, Mapping):
        occs = [0] * len(layout.ladders)
        for lad, n in occupations.items():
            occs[layout.position(lad)] = n
    else:
        occs = list(occupations)
    for n, cutoff in zip(occs, layout.cutoffs):
        if not 0 <= n <= cutoff:
            raise LayoutError(f"occupation {n} outside 0..{cutoff}")
    amps = np.zeros(layout.dimension, dtype=np.complex128)
    amps[layout.basis_index(occs)] = 1.0
    return StateVector(layout, amps)


def expectation(op: OperatorMatrix, state: StateVector) -> complex:
    return complex(np.vdot(state.amplitudes, op.apply(state).amplitudes))


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
    grid asks for the same few blocks at every point.
    """
    levels = int(cutoff) + 1
    columns = levels if columns is None else int(columns)
    if not 0 < columns <= levels:
        raise LayoutError(f"a block on {levels} levels has 1..{levels} columns, not {columns}")
    return _displacement_block(levels, float(amplitude), columns)


@lru_cache(maxsize=DISPLACEMENT_BLOCK_CACHE)
def _displacement_block(levels: int, amplitude: float, columns: int) -> np.ndarray:
    mu, v = _x_basis(levels)
    theta = amplitude * mu
    c = (v * np.cos(theta)) @ v[:columns].T
    s = (v * np.sin(theta)) @ v[:columns].T
    phase = (np.arange(levels)[:, None] - np.arange(columns)) % 4
    block = np.where(phase % 2 == 0, c, s)
    block[phase >= 2] *= -1.0
    block.setflags(write=False)
    return block


@lru_cache(maxsize=X_BASIS_CACHE)
def _x_basis(levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of a + a+ on `levels` levels."""
    mu, v = np.linalg.eigh(lowering_block(levels - 1) + raising_block(levels - 1))
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


def max_admissible_amplitude(cutoff: int) -> float:
    """Largest |f| the cutoff admits; tail grows with f on the relevant range."""
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
