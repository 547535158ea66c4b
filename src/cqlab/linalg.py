"""Dense complex linear algebra used throughout the laboratory.

Everything operates on plain ``numpy`` arrays of ``complex128``.  Density
operators and projectors get thin wrapper types that validate their defining
invariants once at construction time; after that the code trusts them.

Eigendecompositions follow a fixed convention so repeated runs produce
identical bases: eigenvalues are sorted in descending order and each
eigenvector is rotated by a global phase that makes its largest-magnitude
component (lowest index on ties) real and positive.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

#: Largest dense dimension the laboratory will materialise.  Tensor powers
#: beyond this raise :class:`DimensionCapError` instead of thrashing memory.
DIM_CAP = 4096

HERMITIAN_RTOL = 1e-10
PROJECTOR_TOL = 1e-9
RANK_TOL = 1e-10


class DimensionCapError(Exception):
    """A requested dense dimension exceeds the configured cap."""

    def __init__(self, required: int, cap: int = DIM_CAP):
        super().__init__(
            f"requested dense dimension {required} exceeds the cap {cap}; "
            f"reduce the block length or the local dimensions"
        )
        self.required = required
        self.cap = cap


def check_dim_cap(required: int, cap: int | None = None) -> None:
    cap = DIM_CAP if cap is None else cap
    if required > cap:
        raise DimensionCapError(required, cap)


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a square complex128 matrix."""
    a = np.asarray(getattr(m, "matrix", m), dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise ValueError("matrix contains non-finite entries")
    return a


def operator_norm(m) -> float:
    """Spectral norm.  Uses the Hermitian fast path when applicable."""
    a = as_matrix(m)
    if is_hermitian(a):
        w = np.linalg.eigvalsh(a)
        return float(np.max(np.abs(w))) if w.size else 0.0
    return float(np.linalg.norm(a, 2))


def is_hermitian(m, rtol: float = 1e-9) -> bool:
    a = as_matrix(m)
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    return bool(np.max(np.abs(a - a.conj().T)) <= rtol * scale) if a.size else True


def require_hermitian(m, rtol: float = 1e-9, what: str = "matrix") -> np.ndarray:
    a = as_matrix(m)
    if not is_hermitian(a, rtol):
        raise ValueError(f"{what} is not Hermitian within tolerance {rtol}")
    return a


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-|entry| component is real positive."""
    out = vecs.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        idx = int(np.argmax(np.abs(col)))  # first maximum on ties
        pivot = col[idx]
        mag = abs(pivot)
        if mag > 0:
            out[:, k] = col * (pivot.conjugate() / mag)
    return out


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix under the fixed convention.

    Returns ``(w, v)`` with ``w`` real eigenvalues in descending order and
    ``v`` unitary, columns being the matching eigenvectors with the phase
    convention applied.  ``m`` must be Hermitian within tolerance.
    """
    a = require_hermitian(m)
    h = (a + a.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    w = w[::-1].copy()
    v = _fix_phases(v[:, ::-1].copy())
    return w, v


def trace_distance(a, b) -> float:
    """Trace norm ||a - b||_1 of the difference of two Hermitian operators."""
    x = require_hermitian(a, what="first operand")
    y = require_hermitian(b, what="second operand")
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    diff = (x - y + (x - y).conj().T) / 2.0
    return float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def psd_leq(a, b, tol: float = 1e-9) -> bool:
    """Loewner comparison ``a <= b`` up to ``tol``.

    True when the smallest eigenvalue of ``b - a`` is at least
    ``-tol * max(1, ||b||)``.
    """
    x = require_hermitian(a, what="first operand")
    y = require_hermitian(b, what="second operand")
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    gap = (y - x + (y - x).conj().T) / 2.0
    lo = float(np.min(np.linalg.eigvalsh(gap))) if gap.size else 0.0
    return lo >= -tol * max(1.0, operator_norm(y))


def tensor_product(factors: Sequence, cap: int | None = None) -> np.ndarray:
    """Kronecker product of the factors, guarded by the dimension cap."""
    mats = [as_matrix(f) for f in factors]
    if not mats:
        return np.ones((1, 1), dtype=np.complex128)
    total = 1
    for f in mats:
        total *= f.shape[0]
    check_dim_cap(total, cap)
    return functools.reduce(np.kron, mats)


def kron_vectors(vectors: Sequence[np.ndarray]) -> np.ndarray:
    out = np.ones(1, dtype=np.complex128)
    for v in vectors:
        out = np.kron(out, v)
    return out


def orthonormal_basis(vectors: Iterable[np.ndarray], rank_tol: float = RANK_TOL) -> list[np.ndarray]:
    """Deterministic orthonormal basis for the span of the given vectors.

    Singular directions with singular value <= ``rank_tol`` are dropped, so
    linearly dependent inputs simply collapse.  Empty input gives [].
    """
    vecs = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in vectors]
    if not vecs:
        return []
    a = np.column_stack(vecs)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    keep = s > rank_tol
    u = _fix_phases(u[:, keep])
    return [u[:, k].copy() for k in range(u.shape[1])]


@dataclass(frozen=True)
class DensityOperator:
    """Validated density operator, optionally subnormalised (trace <= 1)."""

    matrix: np.ndarray
    subnormalized: bool = False

    def __post_init__(self):
        a = as_matrix(self.matrix)
        scale = max(1.0, operator_norm(a))
        if np.max(np.abs(a - a.conj().T)) > 1e-10 * scale:
            raise ValueError("density operator is not Hermitian within 1e-10")
        w = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
        if w.size and float(np.min(w)) < -1e-10:
            raise ValueError(f"density operator has negative eigenvalue {np.min(w):.3e}")
        tr = float(np.real(np.trace(a)))
        if self.subnormalized:
            if tr > 1.0 + 1e-10:
                raise ValueError(f"subnormalised operator has trace {tr} > 1")
        elif abs(tr - 1.0) > 1e-10:
            raise ValueError(f"density operator has trace {tr}, expected 1")
        object.__setattr__(self, "matrix", a)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        return hermitian_eig(self.matrix)


class Projector:
    """Orthogonal projector, dense or diagonal in a known product eigenbasis.

    The structured form stores one unitary per tensor position (columns are
    local basis vectors) plus the set of kept multi-indices.  It densifies
    lazily; traces against states diagonal in the same product basis never
    need the dense form at all.  Support columns are built once and kept
    read-only.
    """

    __slots__ = ("dim", "_dense", "_factors", "_indices", "_cols", "meta")

    def __init__(self, *, dim, dense=None, factors=None, indices=None, meta=None):
        self.dim = int(dim)
        self._dense = dense
        self._factors = factors
        self._indices = indices
        self._cols = None
        self.meta = dict(meta or {})

    # -- constructors -------------------------------------------------
    @classmethod
    def from_matrix(cls, p, tol: float = PROJECTOR_TOL, meta=None) -> "Projector":
        a = as_matrix(p)
        d = a.shape[0]
        budget = tol * d
        if np.max(np.abs(a - a.conj().T)) > budget:
            raise ValueError("projector matrix is not Hermitian within tolerance")
        if np.max(np.abs(a @ a - a)) > budget:
            raise ValueError("projector matrix is not idempotent within tolerance")
        return cls(dim=d, dense=a, meta=meta)

    @classmethod
    def from_vectors(cls, vectors, meta=None) -> "Projector":
        vecs = orthonormal_basis(vectors)
        if not vecs:
            raise ValueError("cannot infer dimension from an empty vector list")
        u = np.column_stack(vecs)
        return cls(dim=u.shape[0], dense=u @ u.conj().T, meta=meta)

    @classmethod
    def from_product_basis(cls, factors, indices, meta=None) -> "Projector":
        facs = [as_matrix(f) for f in factors]
        dims = [f.shape[0] for f in facs]
        total = int(np.prod(dims)) if dims else 1
        idx = []
        for t in indices:
            t = tuple(int(i) for i in t)
            if len(t) != len(facs):
                raise ValueError("multi-index length does not match the factor count")
            for i, d in zip(t, dims):
                if not 0 <= i < d:
                    raise ValueError(f"multi-index entry {i} out of range for dimension {d}")
            idx.append(t)
        return cls(dim=total, factors=facs, indices=tuple(sorted(set(idx))), meta=meta)

    @classmethod
    def zero(cls, dim: int) -> "Projector":
        return cls(dim=dim, dense=np.zeros((dim, dim), dtype=np.complex128))

    @classmethod
    def identity(cls, dim: int) -> "Projector":
        return cls(dim=dim, dense=np.eye(dim, dtype=np.complex128))

    # -- inspection ---------------------------------------------------
    @property
    def is_structured(self) -> bool:
        return self._indices is not None

    @property
    def indices(self):
        return self._indices

    @property
    def factors(self):
        return self._factors

    @property
    def rank(self) -> int:
        if self._indices is not None:
            return len(self._indices)
        return int(round(float(np.real(np.trace(self._dense)))))

    def dense(self) -> np.ndarray:
        if self._dense is None:
            cols = self.support_columns()
            if cols.shape[1] == 0:
                self._dense = np.zeros((self.dim, self.dim), dtype=np.complex128)
            else:
                self._dense = cols @ cols.conj().T
        return self._dense

    def support_columns(self) -> np.ndarray:
        """Orthonormal columns spanning the range, in a deterministic order.

        Built on the first call; every call returns the same read-only array.
        """
        if self._cols is None:
            if self._indices is not None:
                cols = np.empty((self.dim, len(self._indices)), dtype=np.complex128)
                for k, t in enumerate(self._indices):
                    cols[:, k] = kron_vectors([f[:, i] for f, i in zip(self._factors, t)])
            else:
                w, v = hermitian_eig(self._dense)
                cols = v[:, w > 0.5]
            cols.flags.writeable = False
            self._cols = cols
        return self._cols

    def complement_dense(self) -> np.ndarray:
        return np.eye(self.dim, dtype=np.complex128) - self.dense()

    def trace(self) -> float:
        return float(self.rank)

    def trace_with(self, op) -> float:
        """Tr[P op] for Hermitian ``op``."""
        a = as_matrix(op)
        if a.shape[0] != self.dim:
            raise ValueError("dimension mismatch in trace_with")
        if self._dense is not None or self._indices is None:
            return float(np.real(np.trace(self.dense() @ a)))
        if not self._indices:
            return 0.0
        cols = self.support_columns()
        return float(np.real(np.einsum("ik,ij,jk->", cols.conj(), a, cols)))

    def index_mass(self, probs_per_position: Sequence[np.ndarray]) -> float:
        """Sum of product weights over the kept multi-indices.

        Equals Tr[P rho] when rho is diagonal in the same product basis with
        per-position eigenvalue vectors ``probs_per_position``.
        """
        if self._indices is None:
            raise ValueError("index_mass requires the structured form")
        total = 0.0
        for t in self._indices:
            w = 1.0
            for probs, i in zip(probs_per_position, t):
                w *= float(probs[i])
            total += w
        return total
