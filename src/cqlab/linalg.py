"""Dense complex linear algebra used throughout the laboratory.

Everything operates on plain ``numpy`` arrays of ``complex128``.  Density
operators and projectors get thin wrapper types that validate their defining
invariants once at construction time; after that the code trusts them.  A
projector has one form, its orthonormal columns V; its dense matrix V V^dag
is formed on each request and never kept.

Eigendecompositions follow a fixed convention so repeated runs produce
identical bases: eigenvalues are sorted in descending order and each
eigenvector is rotated by a global phase that makes its largest-magnitude
component (lowest index on ties) real and positive.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: Largest dense dimension the laboratory will materialise.  Tensor powers
#: beyond this raise :class:`DimensionCapError` instead of thrashing memory.
DIM_CAP = 4096

#: Largest |a - a^dag| entry, relative to max(1, max |a|), still Hermitian.
HERMITIAN_RTOL = 1e-9
#: Per-dimension budget on a projector matrix's idempotence defect.
PROJECTOR_TOL = 1e-9
#: Singular values at or below this are dropped from a spanning set.
RANK_TOL = 1e-10
#: Absolute slack on a density operator's smallest eigenvalue and its trace.
STATE_TOL = 1e-9


class DimensionCapError(Exception):
    """A requested dense dimension exceeds :data:`DIM_CAP`."""

    def __init__(self, required: int):
        super().__init__(
            f"requested dense dimension {required} exceeds the cap {DIM_CAP}; "
            f"reduce the block length or the local dimensions"
        )
        self.required = required
        self.cap = DIM_CAP


def check_dim_cap(required: int) -> None:
    if required > DIM_CAP:
        raise DimensionCapError(required)


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a square complex128 matrix."""
    a = np.asarray(getattr(m, "matrix", m), dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    return a


def _is_hermitian(a: np.ndarray) -> bool:
    """The one Hermitian rule, on a matrix ``as_matrix`` already returned:
    every entry of a - a^dag within HERMITIAN_RTOL * max(1, max |a|).

    A defect within HERMITIAN_RTOL passes whatever max |a| is, so the scale
    is only read for a larger one.
    """
    if not a.size:
        return True
    defect = float(np.abs(a - a.conj().T).max())
    return defect <= HERMITIAN_RTOL or defect <= HERMITIAN_RTOL * max(1.0, float(np.abs(a).max()))


def operator_norm(m) -> float:
    """Spectral norm.  Uses the Hermitian fast path when applicable."""
    a = as_matrix(m)
    if _is_hermitian(a):
        w = np.linalg.eigvalsh(a)
        return float(np.abs(w).max()) if w.size else 0.0
    return float(np.linalg.norm(a, 2))


def require_hermitian(m, what: str = "matrix") -> np.ndarray:
    a = as_matrix(m)
    if not _is_hermitian(a):
        raise ValueError(f"{what} is not Hermitian within tolerance {HERMITIAN_RTOL}")
    return a


def _state_spectrum(m, what: str = "state", subnormalized: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The one density-operator rule: ``m`` Hermitian within HERMITIAN_RTOL, no
    eigenvalue below -STATE_TOL, trace within STATE_TOL of 1 (or at most 1).

    Returns the checked matrix and the ascending spectrum of its symmetrised
    form, which the check has taken anyway.
    """
    a = require_hermitian(m, what)
    w = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    low = float(w.min(initial=0.0))
    if low < -STATE_TOL:
        raise ValueError(f"{what} is not positive semidefinite (min eig {low:.3g})")
    tr = float(a.trace().real)
    if tr > 1.0 + STATE_TOL or (not subnormalized and tr < 1.0 - STATE_TOL):
        raise ValueError(f"{what} trace is {tr!r}, expected {'at most 1' if subnormalized else '1'}")
    return a, w


def require_state(m, what: str = "state", subnormalized: bool = False) -> np.ndarray:
    """``m`` as a density-operator matrix, checked by ``_state_spectrum``."""
    return _state_spectrum(m, what, subnormalized)[0]


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-|entry| component is real positive.

    The pivot is the first maximum of |entry| in its column; its magnitude
    is ``hypot(re, im)``, the value the scalar ``abs`` gives (the array
    ``abs`` can differ in the last bit).  All-zero columns are left alone.
    """
    out = vecs.copy()
    if not out.size:
        return out
    pivots = out[np.argmax(np.abs(out), axis=0), np.arange(out.shape[1])]
    mag = np.hypot(pivots.real, pivots.imag)
    live = mag > 0
    np.multiply(out, pivots.conj() / np.where(live, mag, 1.0), out=out, where=live)
    return out


def _eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``hermitian_eig`` of a matrix that already passed the Hermitian rule."""
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    return w[::-1].copy(), _fix_phases(v[:, ::-1])


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix under the fixed convention.

    Returns ``(w, v)`` with ``w`` real eigenvalues in descending order and
    ``v`` unitary, columns being the matching eigenvectors with the phase
    convention applied.  ``m`` must be Hermitian within tolerance.
    """
    return _eig(require_hermitian(m))


def trace_distance(a, b) -> float:
    """Trace norm ||a - b||_1 of the difference of two Hermitian operators."""
    return _trace_norm(require_hermitian(a, what="first operand"), require_hermitian(b, what="second operand"))


def _trace_norm(x: np.ndarray, y: np.ndarray) -> float:
    """``trace_distance`` of two matrices that already passed the Hermitian rule."""
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    diff = (x - y + (x - y).conj().T) / 2.0
    return float(np.abs(np.linalg.eigvalsh(diff)).sum())


def psd_leq(a, b, tol: float = 1e-9) -> bool:
    """Loewner comparison ``a <= b`` up to ``tol``.

    True when the smallest eigenvalue of ``b - a`` is at least
    ``-tol * max(1, ||b||)``.  A gap at least ``-tol`` passes whatever ||b||
    is, so ||b|| is only read for a smaller gap, off one ``eigvalsh`` of the
    already checked ``b``: the value ``operator_norm(b)`` gives.
    """
    x = require_hermitian(a, what="first operand")
    y = require_hermitian(b, what="second operand")
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    gap = (y - x + (y - x).conj().T) / 2.0
    lo = float(np.linalg.eigvalsh(gap).min()) if gap.size else 0.0
    if tol >= 0.0 and lo >= -tol:
        return True  # max(1, ||b||) >= 1 only widens the allowance
    return lo >= -tol * max(1.0, float(np.abs(np.linalg.eigvalsh(y)).max(initial=0.0)))


def psd_leq_factors(x: np.ndarray, y: np.ndarray) -> bool:
    """``psd_leq(X X^dag, Y Y^dag, tol=1e-8)`` from the factors X and Y (D x r each).

    Both operators vanish outside the joint column span of [X | Y], so the
    comparison runs in an orthonormal basis Q of that span (a thin SVD):
    Q^dag X X^dag Q against Q^dag Y Y^dag Q.  The gap's nonzero spectrum and
    ||Y Y^dag|| are those of the D x D operators, so the verdict is the
    dense one, at O(D m^2) for m = r_X + r_Y instead of O(D^3).
    """
    q = np.linalg.svd(np.hstack([x, y]), full_matrices=False)[0].conj().T
    qx, qy = q @ x, q @ y
    return psd_leq(qx @ qx.conj().T, qy @ qy.conj().T, tol=1e-8)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, bit-identical to ``np.kron``.

    Each entry is the one product ``np.kron`` forms, without its generic
    n-d set-up; the explicit column count keeps zero-column factors working.
    """
    (ra, ca), (rb, cb) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


def tensor_product(factors: Sequence) -> np.ndarray:
    """Kronecker product of the factors, guarded by the dimension cap."""
    mats = [as_matrix(f) for f in factors]
    if not mats:
        return np.ones((1, 1), dtype=np.complex128)
    total = 1
    for f in mats:
        total *= f.shape[0]
    check_dim_cap(total)
    return functools.reduce(_kron, mats)


def orthonormal_basis(vectors: Iterable[np.ndarray]) -> list[np.ndarray]:
    """Deterministic orthonormal basis for the span of the given vectors.

    Singular directions with singular value <= ``RANK_TOL`` are dropped, so
    linearly dependent inputs simply collapse.  Empty input gives [].
    """
    vecs = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in vectors]
    if not vecs:
        return []
    a = np.column_stack(vecs)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    keep = s > RANK_TOL
    u = _fix_phases(u[:, keep])
    return [u[:, k].copy() for k in range(u.shape[1])]


@dataclass(frozen=True)
class DensityOperator:
    """Validated density operator, optionally subnormalised (trace <= 1)."""

    matrix: np.ndarray
    subnormalized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "matrix", require_state(self.matrix, "density operator", self.subnormalized))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        return hermitian_eig(self.matrix)


def _product_columns(factors: Sequence[np.ndarray], flat: np.ndarray) -> np.ndarray:
    """The product-basis vectors f_1[:, i_1] x ... x f_n[:, i_n] as columns,
    one per flat index of the grid of the factors' dimensions.

    ``flat`` must hold valid indices; the columns follow its order, so
    ascending indices give the lexicographic order of the multi-indices.
    Columns are gathered one position at a time in the left-to-right order
    of ``np.kron``, row-major: BLAS products of a column-major V differ in
    the last bits.
    """
    picks = np.unravel_index(flat, tuple(f.shape[0] for f in factors))
    cols = np.ones((1, len(flat)), dtype=np.complex128)
    for f, column in zip(factors, picks):
        cols = np.multiply(cols[:, None, :], f[None, :, column], order="C").reshape(len(cols) * len(f), len(flat))
    return cols


def require_projector(m) -> np.ndarray:
    """``m`` as a projector matrix: Hermitian by the one ``require_hermitian``
    rule, and idempotent within PROJECTOR_TOL * D."""
    a = require_hermitian(m, "projector matrix")
    if np.abs(a @ a - a).max() > PROJECTOR_TOL * a.shape[0]:
        raise ValueError("projector matrix is not idempotent within tolerance")
    return a


class Projector:
    """Orthogonal projector P = V V^dag held as its orthonormal columns V.

    V (D x r, read-only) is the projector's only form: ``dim`` and ``rank``
    are its shape, and ``dense()`` forms V V^dag afresh on every call.
    """

    __slots__ = ("_cols",)

    def __init__(self, cols: np.ndarray):
        cols.flags.writeable = False
        self._cols = cols

    # -- constructors -------------------------------------------------
    @classmethod
    def from_matrix(cls, p) -> "Projector":
        """The eigenvectors of a checked projector matrix with eigenvalue above 1/2."""
        w, v = _eig(require_projector(p))
        return cls(v[:, w > 0.5])

    @classmethod
    def from_vectors(cls, vectors) -> "Projector":
        vecs = orthonormal_basis(vectors)
        if not vecs:
            raise ValueError("cannot infer dimension from an empty vector list")
        return cls(np.column_stack(vecs))

    @classmethod
    def zero(cls, dim: int) -> "Projector":
        return cls(np.zeros((dim, 0), dtype=np.complex128))

    # -- inspection ---------------------------------------------------
    @property
    def dim(self) -> int:
        return self._cols.shape[0]

    @property
    def rank(self) -> int:
        return self._cols.shape[1]

    def dense(self) -> np.ndarray:
        return self._cols @ self._cols.conj().T

    def support_columns(self) -> np.ndarray:
        """Orthonormal columns spanning the range, in a deterministic order.

        Every call returns the same read-only array.
        """
        return self._cols

    def trace_with(self, op) -> float:
        """Tr[P op] for Hermitian ``op``, from the dense form."""
        a = as_matrix(op)
        if a.shape[0] != self.dim:
            raise ValueError("dimension mismatch in trace_with")
        return float(np.real(np.trace(self.dense() @ a)))
