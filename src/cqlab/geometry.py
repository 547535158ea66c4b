"""Two-subspace geometry and chained projective measurements.

Any pair of subspaces decomposes the ambient space into one- and
two-dimensional invariant blocks (Jordan's lemma; Halmos, "Two subspaces",
Trans. AMS 144 (1969)): lines orthogonal to both, lines common to both,
lines lying in exactly one, and planes meeting each subspace in a line at
some angle strictly between 0 and pi/2.

One private core pairs the orthonormal columns V_A (D x r_A) and V_B
(D x r_B) of the two subspaces through a thin SVD of their r_A x r_B
cross-Gram V_A^dag V_B, at O(D r_A r_B) cost.  It checks the pairing in
those coordinates: the rotation of A is unitary, the paired lines of B are
orthonormal and the two rotations diagonalise the cross-Gram, which is the
joint orthonormality of every line it hands out.

``intersection_projector`` reads only the core and checks its result in the
span of its own factors, never forming a D x D matrix.  ``jordan_decompose``
adds the unpaired lines of the second subspace, the lines outside both (a
D x D SVD) and a full-space check that the block bases fill the space
orthonormally and rebuild both projectors, at O(D^3) cost.

The measurement side collapses a state through a chain of projective steps
without renormalising, records the surviving trace at each step, and checks
the closed-form lower bound on the final trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .linalg import (
    Projector,
    _trace_norm,
    as_matrix,
    psd_leq_factors,
    require_hermitian,
    require_projector,
    require_state,
)

#: Singular values at least this close to 1 mean the two lines coincide.
SIGMA_ONE_TOL = 1e-10
#: Singular values at most this large mean the directions are orthogonal.
SIGMA_ZERO_TOL = 1e-10

BLOCK_OUTSIDE_BOTH = 1
BLOCK_IN_BOTH = 2
BLOCK_FIRST_ONLY = 3
BLOCK_SECOND_ONLY = 4
BLOCK_TILTED_PLANE = 5


@dataclass
class Block:
    """One invariant block of a two-subspace decomposition.

    ``basis`` holds orthonormal columns spanning the block (one column for
    kinds 1-4, two for kind 5).  For tilted planes ``angle`` is the principal
    angle in (0, pi/2).  The block's lines in each subspace are columns of
    the decomposition's ``first_lines`` and ``second_lines``.
    """

    kind: int
    basis: np.ndarray
    angle: float | None = None

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass
class CanonicalDecomposition:
    """Blocks of a two-subspace decomposition over their stacked lines.

    ``basis`` holds every block's basis side by side in block order (each
    block's ``basis`` is a column slice of it); ``first_lines`` and
    ``second_lines`` hold each subspace's lines in block order.
    """

    dim: int
    blocks: list[Block]
    basis: np.ndarray
    first_lines: np.ndarray
    second_lines: np.ndarray

    def reconstruct_first(self) -> np.ndarray:
        return self.first_lines @ self.first_lines.conj().T

    def reconstruct_second(self) -> np.ndarray:
        return self.second_lines @ self.second_lines.conj().T


def _as_projector(p) -> Projector:
    if isinstance(p, Projector):
        return p
    return Projector.from_matrix(p)


def _dense(p) -> np.ndarray:
    """V V^dag of a Projector, or a raw projector matrix checked and read as given."""
    return p.dense() if isinstance(p, Projector) else require_projector(p)


def _applier(p):
    """x -> P x: V (V^dag x) on a Projector's columns, at O(D r) per vector,
    or the product with a raw projector matrix checked and read as given."""
    if isinstance(p, Projector):
        v = p.support_columns()
        vh = v.conj().T
        return lambda x: v @ (vh @ x)
    return require_projector(p).__matmul__


def _trace_with(p, r: np.ndarray) -> float:
    """Tr[P r]: Re<V, r V> on a Projector's columns, at O(D^2 r) with no D x D
    product, or the trace of a raw projector matrix's product with r."""
    if isinstance(p, Projector):
        v = p.support_columns()
        return float(np.vdot(v, r @ v).real)
    return float((require_projector(p) @ r).trace().real)


def _support_pair(pa, pb) -> tuple[Projector, Projector]:
    pa = _as_projector(pa)
    pb = _as_projector(pb)
    if pa.dim != pb.dim:
        raise ValueError("projectors live on different dimensions")
    return pa, pb


@dataclass(frozen=True)
class _Pairing:
    """Principal pairing of V_A (D x r_A) with V_B (D x r_B), k = min(r_A, r_B).

    ``a_lines`` = V_A u holds all r_A lines of the first subspace, the first
    k of them paired; ``b_lines`` = V_B w[:, :k] the paired lines of the
    second.  ``cosines`` are the k singular values of ``gram`` = V_A^dag V_B,
    clipped to 1; ``shared`` marks pairs that coincide and ``tilted`` pairs
    at an angle in (0, pi/2).  The other pairs are orthogonal, and so are the
    unpaired lines of A to all of B.
    """

    gram: np.ndarray
    w: np.ndarray
    a_lines: np.ndarray
    b_lines: np.ndarray
    cosines: np.ndarray

    @property
    def shared(self) -> np.ndarray:
        return self.cosines >= 1.0 - SIGMA_ONE_TOL

    @property
    def tilted(self) -> np.ndarray:
        return ~self.shared & (self.cosines > SIGMA_ZERO_TOL)


def _pair(a: np.ndarray, b: np.ndarray, full: bool = False) -> _Pairing:
    """The shared core: pair the columns of ``a`` and ``b`` and check the pairing.

    The SVD is thin on B's side, so only the k paired columns of B are
    rotated; ``full`` also returns the r_B - k unpaired directions of w,
    which only the full decomposition reads.
    """
    ra, rb = a.shape[1], b.shape[1]
    k = min(ra, rb)
    gram = a.conj().T @ b
    if not k:
        return _Pairing(gram, np.eye(rb, dtype=np.complex128), a, b[:, :0], np.zeros(0))
    u, sigma, w_h = np.linalg.svd(gram, full_matrices=full or ra > rb)
    w = w_h.conj().T
    _check_pairing(gram, u, sigma, w[:, :k])
    return _Pairing(gram, w, a @ u, b @ w[:, :k], np.minimum(sigma, 1.0))


def _check_pairing(gram: np.ndarray, u: np.ndarray, sigma: np.ndarray, w: np.ndarray) -> None:
    """The lines V_A u and the paired lines V_B w are jointly orthonormal.

    With V_A and V_B orthonormal the three Grams are u^dag u, w^dag w and
    u^dag gram w, which must be I, I and diag(sigma) padded with zero rows.
    So V_A u rebuilds P_A exactly when u is unitary: an r_A x r_A check in
    place of a D x D reconstruction.
    """
    ra, k = u.shape[0], w.shape[1]
    if np.abs(u.conj().T @ u - np.eye(ra)).max() > 1e-8:
        raise RuntimeError("first projector does not reconstruct from its lines")
    if np.abs(w.conj().T @ w - np.eye(k)).max() > 1e-8:
        raise RuntimeError("paired second-subspace lines are not orthonormal")
    if np.abs(u.conj().T @ gram @ w - np.eye(ra, k) * sigma).max() > 1e-8:
        raise RuntimeError("line pairs are not jointly orthonormal")


def jordan_decompose(pa, pb) -> CanonicalDecomposition:
    """Joint block decomposition of two projectors' ranges.

    Returns blocks of the five kinds; their bases together form an
    orthonormal basis of the whole space, each subspace is the direct sum of
    its lines across blocks, and tilted planes carry their principal angle.

    On top of the core's pairing this builds the unpaired lines of the
    second subspace and the lines outside both (a D x D SVD), then checks in
    the whole space that the block bases fill it and are jointly
    orthonormal and that each projector is the sum of its lines (1e-8 in
    every entry).  That is O(D^3); ``intersection_projector`` needs none of
    it.

    The block bases are column slices of one stack in block order, filled
    from the pairing's arrays; the checks read that stack and each
    subspace's stack of lines.
    """
    pa, pb = _support_pair(pa, pb)
    d = pa.dim
    b = pb.support_columns()
    pairs = _pair(pa.support_columns(), b, full=True)
    k = len(pairs.cosines)
    first = pairs.a_lines  # A's lines in block order: the paired, then the unpaired
    ra = first.shape[1]
    shared, tilted = pairs.shared, pairs.tilted
    orthogonal = ~(shared | tilted)
    # B's lines in block order: those paired with a line of A, then the second-only ones
    lone = np.hstack([pairs.b_lines[:, orthogonal], b @ pairs.w[:, k:]])
    second = np.hstack([pairs.b_lines[:, ~orthogonal], lone])

    # each line of A takes a column, and a tilted plane a second one for the
    # a-line's in-plane complement; the second-only lines follow
    kinds = np.full(ra, BLOCK_FIRST_ONLY)
    kinds[:k][shared] = BLOCK_IN_BOTH
    kinds[:k][tilted] = BLOCK_TILTED_PLANE
    planes = np.flatnonzero(tilted)
    ortho = pairs.b_lines.T[planes] - pairs.cosines[planes, None] * first.T[planes]
    for row in ortho:  # a row at a time: norm's axis form rounds differently
        row /= np.linalg.norm(row)
    in_plane = kinds == BLOCK_TILTED_PLANE
    slot = np.arange(ra) + np.cumsum(in_plane) - in_plane
    span = np.empty((d, ra + len(planes) + lone.shape[1]), dtype=np.complex128)
    span[:, slot] = first
    span[:, slot[planes] + 1] = ortho.T
    span[:, ra + len(planes) :] = lone

    blocks: list[Block] = []
    for i, (kind, j) in enumerate(zip(kinds.tolist(), slot.tolist())):
        if kind == BLOCK_TILTED_PLANE:
            angle = float(math.acos(pairs.cosines[i]))
            blocks.append(Block(kind, span[:, j : j + 2], angle))
        else:
            blocks.append(Block(kind, span[:, j : j + 1]))
    blocks.extend(Block(BLOCK_SECOND_ONLY, span[:, j : j + 1]) for j in range(ra + len(planes), span.shape[1]))

    full = span
    if span.shape[1] < d:
        # complement of everything seen so far
        u, s, _ = np.linalg.svd(
            np.eye(d, dtype=complex) - span @ span.conj().T if span.shape[1] else np.eye(d, dtype=complex)
        )
        comp = u[:, s > 0.5]
        blocks.extend(Block(BLOCK_OUTSIDE_BOTH, comp[:, j : j + 1]) for j in range(comp.shape[1]))
        full = np.hstack([span, comp])

    decomp = CanonicalDecomposition(d, blocks, full, first, second)
    if full.shape[1] != d:
        raise RuntimeError("block bases do not fill the space")
    if np.abs(full.conj().T @ full - np.eye(d)).max() > 1e-8:
        raise RuntimeError("block bases are not jointly orthonormal")
    if np.abs(decomp.reconstruct_first() - pa.dense()).max() > 1e-8:
        raise RuntimeError("first projector does not reconstruct from its lines")
    if np.abs(decomp.reconstruct_second() - pb.dense()).max() > 1e-8:
        raise RuntimeError("second projector does not reconstruct from its lines")
    return decomp


def intersection_projector(pa, pb, tau: float) -> Projector:
    """Near-intersection projector built from the joint block structure.

    Take the orthonormal basis of the first subspace formed by its lines in
    the decomposition, keep every line whose image under the second projector
    retains squared norm at least ``tau`` (boundary kept) and more than 0,
    and project onto the span of those images: the first subspace's line for
    a shared block, the second's for a tilted plane.  The result R satisfies
    R <= tau^{-1} PB PA PB, and every unit vector in the span of the kept
    lines keeps squared norm at least tau under PB.

    Only the core's pairing is built: no blocks, no unpaired lines of the
    second subspace, no complement.  Every check runs in the span of the
    factors, at O(D r_A r_B + D r^2) for r = r_A + rank R instead of O(D^3):
    the pairing's coordinate checks; the sandwich as V_R V_R^dag <= Y Y^dag
    with Y = V_B (V_B^dag V_A) / sqrt(tau), compared in an orthonormal basis
    of their joint column span (``psd_leq_factors``); and the kept lines C
    through the eigenvalues of (V_B^dag C)^dag (V_B^dag C), without the
    dense PB.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")
    pa, pb = _support_pair(pa, pb)
    b = pb.support_columns()
    pairs = _pair(pa.support_columns(), b)
    shared = pairs.shared
    keep = shared.copy()
    for i in np.flatnonzero(pairs.tilted):
        keep[i] = math.cos(math.acos(pairs.cosines[i])) ** 2 >= tau - 1e-12
    paired_a = pairs.a_lines[:, : len(keep)]
    kept_lines = paired_a[:, keep]
    images = np.where(shared, paired_a, pairs.b_lines)[:, keep]

    result = Projector.from_vectors(images.T) if images.shape[1] else Projector.zero(pa.dim)

    bound = b @ pairs.gram.conj().T / math.sqrt(tau)
    if not psd_leq_factors(result.support_columns(), bound):
        raise RuntimeError("intersection projector violates its operator bound")
    if kept_lines.shape[1]:
        in_b = b.conj().T @ kept_lines
        if float(np.min(np.linalg.eigvalsh(in_b.conj().T @ in_b))) < tau - 1e-8:
            raise RuntimeError("kept subspace retains less than tau under the second projector")
    return result


@dataclass
class SeqOutcome:
    step_traces: list[float]
    success_probability: float


def sequential_collapse(rho, steps: Iterable[tuple]) -> SeqOutcome:
    """Conjugate ``rho`` through the steps in order, without renormalising.

    Each step is a (projector, pass_on) pair: ``pass_on`` "success" passes
    on the projector and "failure" on its complement.  The trace after each
    conjugation is recorded; the final trace is the probability that every
    step passes.
    """
    current = as_matrix(rho).copy()
    traces: list[float] = []
    for projector, pass_on in steps:
        e = _dense(projector)
        if pass_on == "failure":
            e = np.eye(len(e), dtype=np.complex128) - e
        elif pass_on != "success":
            raise ValueError(f"pass_on must be 'success' or 'failure', got {pass_on!r}")
        current = e @ current @ e
        traces.append(float(current.trace().real))
    return SeqOutcome(
        step_traces=traces,
        success_probability=traces[-1] if traces else float(current.trace().real),
    )


def seq_success_lower_bound(rho, hostile: Sequence, target) -> float:
    """Closed-form floor for passing all hostile complements then the target.

    Equals Tr[rho] - 2*sqrt(sum_i Tr[rho P_i] + Tr[rho (I - T)]); may be
    negative, in which case it is vacuous but still valid.

    Each Tr[rho P] of a ``Projector`` is read off its columns V as
    Re<V, rho V>, at O(D^2 r) with no D x D product.  A raw projector matrix
    is checked and read as given, through the trace of its product with
    rho.

    The floor is ill-conditioned near leak = 0, where its slope
    -1/sqrt(leak) is unbounded: with a leak of order 1e-16, which is pure
    rounding, 1e-16 more rounding moves the floor by about 1e-8, so the two
    forms of one projector give floors that agree on the leak scale only.
    """
    r = as_matrix(rho)
    total = float(r.trace().real)
    leak = 0.0
    for p in hostile:
        leak += _trace_with(p, r)
    leak += total - _trace_with(target, r)
    return total - 2.0 * math.sqrt(max(0.0, leak))


def key_inequality_check(v, projectors: Sequence) -> dict:
    """Defect of a vector under a chain of pass-through projectors.

    Compares ||v - P_k ... P_1 v||^2 against the sum of the complement
    overlaps sum_i ||(I - P_i) v||^2, each read as ||v||^2 - <v, P_i v>.  A
    ``Projector`` is applied through its columns V as V (V^dag x), at O(D r)
    per vector; a raw projector matrix is checked and applied as given.
    """
    vec = np.asarray(v, dtype=np.complex128).reshape(-1)
    norm2 = np.vdot(vec, vec)
    chained = vec
    rhs = 0.0
    for p in projectors:
        apply = _applier(p)
        rhs += float((norm2 - np.vdot(vec, apply(vec))).real)
        chained = apply(chained)
    defect = vec - chained
    lhs = float(np.vdot(defect, defect).real)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + 1e-9}


def gentle_measurement_check(rho, m) -> dict:
    """Disturbance versus success probability for a single gentle operator.

    For 0 <= M <= I the collapse M rho M moves the state by at most
    2*sqrt(1 - Tr[M rho M]) in trace norm.  ``rho`` must be a density
    operator of trace at most 1; anything else raises ``ValueError``.
    """
    r = require_state(rho, "state", subnormalized=True)
    op = require_hermitian(m, what="measurement operator")
    w = np.linalg.eigvalsh(op)
    if w.size and (float(np.min(w)) < -1e-9 or float(np.max(w)) > 1.0 + 1e-9):
        raise ValueError("measurement operator must satisfy 0 <= M <= I")
    collapsed = op @ r @ op
    kept = float(collapsed.trace().real)
    total = float(r.trace().real)
    # rho passed the Hermitian rule in require_state; only the collapse is checked here
    l1 = _trace_norm(r, require_hermitian(collapsed, what="second operand"))
    bound = 2.0 * math.sqrt(max(0.0, total - kept))
    return {"l1": l1, "bound": bound, "kept": kept, "holds": l1 <= bound + 1e-9}
