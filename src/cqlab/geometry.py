"""Two-subspace geometry and chained projective measurements.

Any pair of subspaces decomposes the ambient space into one- and
two-dimensional invariant blocks: lines orthogonal to both, lines common to
both, lines lying in exactly one, and planes meeting each subspace in a line
at some angle strictly between 0 and pi/2.  The decomposition is computed
from the singular values of the cross-Gram matrix of orthonormal bases; it
powers the intersection-style projector used by the multi-sender decoders.

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
    as_matrix,
    psd_leq,
    require_hermitian,
    trace_distance,
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
    angle in (0, pi/2), ``a_line`` the unit vector spanning the block's
    intersection with the first subspace and ``b_line`` with the second.
    """

    kind: int
    basis: np.ndarray
    angle: float | None = None
    a_line: np.ndarray | None = None
    b_line: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass
class CanonicalDecomposition:
    dim: int
    blocks: list[Block]

    def blocks_of_kind(self, kind: int) -> list[Block]:
        return [b for b in self.blocks if b.kind == kind]

    def first_subspace_lines(self) -> list[np.ndarray]:
        """Orthonormal basis of the first subspace read off the blocks."""
        lines = []
        for b in self.blocks:
            if b.kind in (BLOCK_IN_BOTH, BLOCK_FIRST_ONLY):
                lines.append(b.basis[:, 0])
            elif b.kind == BLOCK_TILTED_PLANE:
                lines.append(b.a_line)
        return lines

    def second_subspace_lines(self) -> list[np.ndarray]:
        lines = []
        for b in self.blocks:
            if b.kind in (BLOCK_IN_BOTH, BLOCK_SECOND_ONLY):
                lines.append(b.basis[:, 0])
            elif b.kind == BLOCK_TILTED_PLANE:
                lines.append(b.b_line)
        return lines

    def reconstruct_first(self) -> np.ndarray:
        return _sum_outer(self.first_subspace_lines(), self.dim)

    def reconstruct_second(self) -> np.ndarray:
        return _sum_outer(self.second_subspace_lines(), self.dim)

    def full_basis(self) -> np.ndarray:
        cols = [b.basis for b in self.blocks if b.dim > 0]
        return np.column_stack(cols) if cols else np.zeros((self.dim, 0), dtype=complex)


def _sum_outer(vectors: Iterable[np.ndarray], dim: int) -> np.ndarray:
    out = np.zeros((dim, dim), dtype=np.complex128)
    for v in vectors:
        out += np.outer(v, v.conj())
    return out


def _as_projector(p) -> Projector:
    if isinstance(p, Projector):
        return p
    return Projector.from_matrix(as_matrix(p))


def jordan_decompose(pa, pb) -> CanonicalDecomposition:
    """Joint block decomposition of two projectors' ranges.

    Returns blocks of the five kinds; their bases together form an
    orthonormal basis of the whole space, each subspace is the direct sum of
    its lines across blocks, and tilted planes carry their principal angle.
    """
    pa = _as_projector(pa)
    pb = _as_projector(pb)
    if pa.dim != pb.dim:
        raise ValueError("projectors live on different dimensions")
    d = pa.dim
    a = pa.support_columns()
    b = pb.support_columns()
    blocks: list[Block] = []

    if a.shape[1] and b.shape[1]:
        gram = a.conj().T @ b
        left, sigma, right_h = np.linalg.svd(gram)
        a_rot = a @ left
        b_rot = b @ right_h.conj().T
    else:
        sigma = np.zeros(0)
        a_rot = a
        b_rot = b

    k = len(sigma)
    used_b = np.zeros(b.shape[1], dtype=bool)
    for i in range(k):
        s = float(min(1.0, sigma[i]))
        av = a_rot[:, i]
        bv = b_rot[:, i]
        if s >= 1.0 - SIGMA_ONE_TOL:
            blocks.append(Block(BLOCK_IN_BOTH, av.reshape(-1, 1)))
            used_b[i] = True
        elif s <= SIGMA_ZERO_TOL:
            blocks.append(Block(BLOCK_FIRST_ONLY, av.reshape(-1, 1)))
        else:
            # orthonormal plane basis: the a-line and its in-plane complement
            ortho = bv - s * av
            ortho = ortho / np.linalg.norm(ortho)
            basis = np.column_stack([av, ortho])
            blocks.append(
                Block(
                    BLOCK_TILTED_PLANE,
                    basis,
                    angle=float(math.acos(s)),
                    a_line=av,
                    b_line=bv,
                )
            )
            used_b[i] = True
    for i in range(k, a_rot.shape[1]):
        blocks.append(Block(BLOCK_FIRST_ONLY, a_rot[:, i].reshape(-1, 1)))
    for j in range(b_rot.shape[1]):
        if j < k and (used_b[j] or sigma[j] > SIGMA_ZERO_TOL):
            continue
        blocks.append(Block(BLOCK_SECOND_ONLY, b_rot[:, j].reshape(-1, 1)))

    occupied = [blk.basis for blk in blocks]
    span = np.column_stack(occupied) if occupied else np.zeros((d, 0), dtype=complex)
    if span.shape[1] < d:
        # complement of everything seen so far
        u, s, _ = np.linalg.svd(
            np.eye(d, dtype=complex) - span @ span.conj().T if span.shape[1] else np.eye(d, dtype=complex)
        )
        comp = u[:, s > 0.5]
        for j in range(comp.shape[1]):
            blocks.append(Block(BLOCK_OUTSIDE_BOTH, comp[:, j].reshape(-1, 1)))

    decomp = CanonicalDecomposition(dim=d, blocks=blocks)
    _validate_decomposition(decomp, pa, pb)
    return decomp


def _validate_decomposition(decomp: CanonicalDecomposition, pa: Projector, pb: Projector) -> None:
    d = decomp.dim
    full = decomp.full_basis()
    if full.shape[1] != d:
        raise RuntimeError("block bases do not fill the space")
    gram = full.conj().T @ full
    if np.max(np.abs(gram - np.eye(d))) > 1e-8:
        raise RuntimeError("block bases are not jointly orthonormal")
    if np.max(np.abs(decomp.reconstruct_first() - pa.dense())) > 1e-8:
        raise RuntimeError("first projector does not reconstruct from its lines")
    if np.max(np.abs(decomp.reconstruct_second() - pb.dense())) > 1e-8:
        raise RuntimeError("second projector does not reconstruct from its lines")


def intersection_projector(pa, pb, tau: float) -> Projector:
    """Near-intersection projector built from the joint block structure.

    Take the orthonormal basis of the first subspace formed by its lines in
    the decomposition, keep every line whose image under the second projector
    retains squared norm at least ``tau`` (boundary kept), and project onto
    the span of those images.  The result R satisfies
    R <= tau^{-1} PB PA PB, and every unit vector in the span of the kept
    lines keeps squared norm at least tau under PB.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")
    pa = _as_projector(pa)
    pb = _as_projector(pb)
    decomp = jordan_decompose(pa, pb)

    kept_images = []
    kept_lines = []
    for blk in decomp.blocks:
        if blk.kind == BLOCK_IN_BOTH:
            overlap = 1.0
            image = blk.basis[:, 0]
            line = image
        elif blk.kind == BLOCK_FIRST_ONLY:
            overlap = 0.0
            image = None
            line = blk.basis[:, 0]
        elif blk.kind == BLOCK_TILTED_PLANE:
            overlap = math.cos(blk.angle) ** 2
            image = blk.b_line
            line = blk.a_line
        else:
            continue
        if overlap >= tau - 1e-12:
            kept_images.append(image)
            kept_lines.append(line)

    if kept_images:
        result = Projector.from_vectors(kept_images, meta={"kept_count": len(kept_images), "tau": tau})
    else:
        result = Projector.zero(pa.dim)
        result.meta.update({"kept_count": 0, "tau": tau})

    _validate_intersection(result, pa, pb, tau, kept_lines)
    return result


def _validate_intersection(result, pa, pb, tau, kept_lines) -> None:
    pb_dense = pb.dense()
    bound = pb_dense @ pa.dense() @ pb_dense / tau
    if not psd_leq(result.dense(), bound, tol=1e-8):
        raise RuntimeError("intersection projector violates its operator bound")
    if kept_lines:
        cols = np.column_stack(kept_lines)
        overlap = cols.conj().T @ pb_dense @ cols
        lo = float(np.min(np.linalg.eigvalsh((overlap + overlap.conj().T) / 2)))
        if lo < tau - 1e-8:
            raise RuntimeError("kept subspace retains less than tau under the second projector")


@dataclass
class SeqStep:
    """One projective step: pass on the projector or on its complement."""

    projector: Projector
    pass_on: str = "success"

    def effective(self) -> np.ndarray:
        if self.pass_on == "success":
            return self.projector.dense()
        if self.pass_on == "failure":
            return self.projector.complement_dense()
        raise ValueError(f"pass_on must be 'success' or 'failure', got {self.pass_on!r}")


@dataclass
class SeqOutcome:
    step_traces: list[float]
    final_operator: np.ndarray
    success_probability: float


def sequential_collapse(rho, steps: Sequence[SeqStep | tuple]) -> SeqOutcome:
    """Conjugate ``rho`` through the steps in order, without renormalising.

    ``steps`` may contain SeqStep instances or (projector, pass_on) tuples.
    The trace after each conjugation is recorded; the final trace is the
    probability that every step passes.
    """
    current = as_matrix(rho).copy()
    traces: list[float] = []
    for step in steps:
        if not isinstance(step, SeqStep):
            step = SeqStep(*step) if isinstance(step, tuple) else SeqStep(step)
        e = step.effective()
        current = e @ current @ e
        traces.append(float(np.real(np.trace(current))))
    return SeqOutcome(
        step_traces=traces,
        final_operator=current,
        success_probability=traces[-1] if traces else float(np.real(np.trace(current))),
    )


def seq_success_lower_bound(rho, hostile: Sequence, target) -> float:
    """Closed-form floor for passing all hostile complements then the target.

    Equals Tr[rho] - 2*sqrt(sum_i Tr[rho P_i] + Tr[rho (I - T)]); may be
    negative, in which case it is vacuous but still valid.

    The floor is ill-conditioned near leak = 0, where its slope
    -1/sqrt(leak) is unbounded: with a leak of order 1e-16, which is pure
    rounding, 1e-16 more rounding moves the floor by about 1e-8.  The
    decoders therefore keep this function's dense target term,
    Tr[rho] - Tr[T rho], for their ungated floors, since reference values
    pin its rounding; they sum the hostile terms as squared norms of the
    state factor, and the gated floor wholly so.
    """
    r = as_matrix(rho)
    leak = 0.0
    for p in hostile:
        leak += _as_projector(p).trace_with(r)
    t = _as_projector(target)
    leak += float(np.real(np.trace(r))) - t.trace_with(r)
    leak = max(0.0, leak)
    return float(np.real(np.trace(r))) - 2.0 * math.sqrt(leak)


def key_inequality_check(v, projectors: Sequence) -> dict:
    """Defect of a vector under a chain of pass-through projectors.

    Compares ||v - P_k ... P_1 v||^2 against the sum of the complement
    overlaps sum_i ||(I - P_i) v||^2.
    """
    vec = np.asarray(v, dtype=np.complex128).reshape(-1)
    chained = vec.copy()
    rhs = 0.0
    for p in projectors:
        dense = _as_projector(p).dense()
        rhs += float(np.real(np.vdot(vec, vec) - np.vdot(vec, dense @ vec)))
        chained = dense @ chained
    lhs = float(np.real(np.vdot(vec - chained, vec - chained)))
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + 1e-9}


def gentle_measurement_check(rho, m) -> dict:
    """Disturbance versus success probability for a single gentle operator.

    For 0 <= M <= I the collapse M rho M moves the state by at most
    2*sqrt(1 - Tr[M rho M]) in trace norm.
    """
    r = require_hermitian(rho, what="state")
    if float(np.real(np.trace(r))) > 1.0 + 1e-9:
        raise ValueError("state must have trace at most 1")
    op = require_hermitian(m, what="measurement operator")
    w = np.linalg.eigvalsh(op)
    if w.size and (float(np.min(w)) < -1e-9 or float(np.max(w)) > 1.0 + 1e-9):
        raise ValueError("measurement operator must satisfy 0 <= M <= I")
    collapsed = op @ r @ op
    kept = float(np.real(np.trace(collapsed)))
    total = float(np.real(np.trace(r)))
    l1 = trace_distance(r, collapsed)
    bound = 2.0 * math.sqrt(max(0.0, total - kept))
    return {"l1": l1, "bound": bound, "kept": kept, "holds": l1 <= bound + 1e-9}
