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
f on a ladder with cutoff N is admissible when the Poisson tail
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
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import LayoutError


# Bundled OpenBLAS builds prefix and suffix their exports differently.
_SET_THREADS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _one_blas_thread() -> None:
    """Run every OpenBLAS mapped into this process (numpy's and scipy's
    wheels each bundle one) on a single thread; a no-op where none is mapped
    or /proc/self/maps does not exist."""
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


# After `import scipy.linalg`, so numpy's and scipy's OpenBLAS are both mapped.
_one_blas_thread()

FAMILIES = ("a", "b", "d")

DIMENSION_CAP = 2_000_000
LEAKAGE_TAIL_BOUND = 1e-12
# A verify run needs 12 distinct displacement blocks.
DISPLACEMENT_BLOCK_CACHE = 32


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

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c + 1 for c in self.cutoffs)

    @property
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


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Sparse complex operator bound to a layout."""

    layout: FockLayout
    matrix: sp.csr_matrix

    def _check(self, other: "OperatorMatrix"):
        if self.layout != other.layout:
            raise LayoutError("operators live on different layouts")

    def __add__(self, other):
        self._check(other)
        return OperatorMatrix(self.layout, (self.matrix + other.matrix).tocsr())

    def __sub__(self, other):
        self._check(other)
        return OperatorMatrix(self.layout, (self.matrix - other.matrix).tocsr())

    def __mul__(self, scalar):
        return OperatorMatrix(self.layout, (self.matrix * scalar).tocsr())

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check(other)
        return OperatorMatrix(self.layout, (self.matrix @ other.matrix).tocsr())

    def adjoint(self) -> "OperatorMatrix":
        return OperatorMatrix(self.layout, self.matrix.conj().T.tocsr())

    def max_abs(self) -> float:
        if self.matrix.nnz == 0:
            return 0.0
        return float(np.max(np.abs(self.matrix.data)))

    def hermiticity_residual(self) -> float:
        return (self - self.adjoint()).max_abs()

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


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
# single-ladder blocks and tensor embedding


def lowering_block(cutoff: int) -> np.ndarray:
    """Dense single-ladder lowering block: <n-1|a|n> = sqrt(n), top row kept."""
    return np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)


def raising_block(cutoff: int) -> np.ndarray:
    """Exact transpose of the lowering block (real entries)."""
    return lowering_block(cutoff).T.copy()


def ladder_product(cutoff: int, daggers: Iterable[bool]) -> np.ndarray:
    """Ordered product of raising (True) and lowering (False) blocks on one
    ladder; the identity for an empty word."""
    lower, upper = lowering_block(cutoff), raising_block(cutoff)
    mat = np.eye(cutoff + 1)
    for dagger in daggers:
        mat = mat @ (upper if dagger else lower)
    return mat


def embed(layout: FockLayout, blocks: Mapping[LadderId, np.ndarray]) -> sp.csr_matrix:
    """Kronecker-embed per-ladder blocks (identity on absent ladders)."""
    for lad in blocks:
        layout.position(lad)
    result = None
    for lad, dim in zip(layout.ladders, layout.dims):
        if lad in blocks:
            block = blocks[lad]
            if block.shape != (dim, dim):
                raise LayoutError(f"block for {lad} has wrong shape {block.shape}")
            factor = sp.csr_matrix(block.astype(np.complex128, copy=False))
        else:
            factor = sp.identity(dim, dtype=np.complex128, format="csr")
        result = factor if result is None else sp.kron(result, factor, format="csr")
    return result.tocsr()


def number_operator(layout: FockLayout, ladder: LadderId) -> OperatorMatrix:
    occ = layout.occupations()[:, layout.position(ladder)].astype(np.complex128)
    return OperatorMatrix(layout, sp.diags(occ, format="csr"))


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
    if op.layout != state.layout:
        raise LayoutError("operator and state live on different layouts")
    return complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))


# ---------------------------------------------------------------------------
# matrix exponential


def displacement_block(cutoff: int, amplitude: float) -> np.ndarray:
    """Dense single-ladder exp(f (a+ - a)); real orthogonal and read-only.

    Blocks are memoized on (cutoff, amplitude): a verification grid asks for
    the same few blocks at every point, and expm is deterministic, so the
    cached block is bitwise the one a fresh call would build.
    """
    return _displacement_block(int(cutoff), float(amplitude))


@lru_cache(maxsize=DISPLACEMENT_BLOCK_CACHE)
def _displacement_block(cutoff: int, amplitude: float) -> np.ndarray:
    gen = amplitude * (raising_block(cutoff) - lowering_block(cutoff))
    block = scipy.linalg.expm(gen)
    block.setflags(write=False)
    return block


# ---------------------------------------------------------------------------
# coherent-leakage policy


def poisson_tail(amplitude: float, cutoff: int) -> float:
    """exp(-f^2) f^(2N) / N!, the weight the cutoff truncates away."""
    f2 = amplitude * amplitude
    if f2 == 0.0:
        return 0.0
    return math.exp(-f2 + cutoff * math.log(f2) - math.lgamma(cutoff + 1))


def leakage_admissible(amplitude: float, cutoff: int) -> bool:
    return poisson_tail(amplitude, cutoff) < LEAKAGE_TAIL_BOUND


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
