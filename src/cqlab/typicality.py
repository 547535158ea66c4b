"""Frequency-typical sets and typical projectors.

A length-n sequence is typical for a distribution p, with relative slack
delta, when every symbol's empirical frequency N(x)/n sits within delta*p(x)
of p(x); symbols of probability zero must not occur at all.  The quantum
analogue keeps the tensor-power eigenbasis multi-indices whose eigenvalue
labels form a typical sequence for the eigenvalue distribution.

All entropies and exponents are base 2 throughout the package.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import product as cartesian
from typing import Iterable, Mapping, Sequence

import numpy as np

from .linalg import (
    Projector,
    _kron,
    _product_columns,
    as_matrix,
    check_dim_cap,
    hermitian_eig,
    tensor_product,
)

#: Eigenvalues closer than this are snapped to a common value before the
#: frequency test, so exact degeneracies survive floating-point noise.  The
#: merge defines a degenerate label; why it seldom moves a kept set is in
#: ``_snap_eigenvalues``.
EIGENVALUE_MERGE_TOL = 1e-12

#: Eigenvalues at or below this count as zero-probability labels.
ZERO_EIGENVALUE_TOL = 1e-12

#: Slack applied to the frequency window so knife-edge cases (exact boundary
#: frequencies) land inside rather than outside.
WINDOW_SLACK = 1e-12

#: Ceiling on brute-force sequence enumeration.
SEQUENCE_CAP = 2**20


def entropy_bits(probs: Iterable[float]) -> float:
    """Shannon entropy in bits, ignoring entries <= 1e-14."""
    h = 0.0
    for p in probs:
        if p > 1e-14:
            h -= p * math.log2(p)
    return h


@dataclass(frozen=True)
class ClassicalDistribution:
    """Finite distribution over hashable symbols (order is part of identity)."""

    symbols: tuple
    probs: tuple

    def __post_init__(self):
        if len(self.symbols) != len(self.probs):
            raise ValueError("symbols and probabilities differ in length")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate symbols in distribution")
        p = np.asarray(self.probs, dtype=float)
        if p.size == 0:
            raise ValueError("empty distribution")
        if not np.isfinite(p).all():
            raise ValueError("probabilities must be finite")
        if np.any(p < -1e-12):
            raise ValueError("negative probability")
        if abs(float(p.sum()) - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {p.sum()}, expected 1")
        object.__setattr__(self, "probs", tuple(float(x) for x in p))

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "ClassicalDistribution":
        items = list(mapping.items())
        return cls(tuple(k for k, _ in items), tuple(v for _, v in items))

    def prob(self, symbol) -> float:
        try:
            return self.probs[self.symbols.index(symbol)]
        except ValueError:
            raise KeyError(f"unknown symbol {symbol!r}") from None

    @property
    def size(self) -> int:
        return len(self.symbols)

    @property
    def support(self) -> tuple:
        return tuple(s for s, p in zip(self.symbols, self.probs) if p > 0)

    @property
    def p_min(self) -> float:
        pos = [p for p in self.probs if p > 0]
        return min(pos)

    def entropy(self) -> float:
        return entropy_bits(self.probs)

    def product(self, other: "ClassicalDistribution") -> "ClassicalDistribution":
        """Independent joint distribution over symbol pairs."""
        syms, probs = [], []
        for a, pa in zip(self.symbols, self.probs):
            for b, pb in zip(other.symbols, other.probs):
                syms.append((a, b))
                probs.append(pa * pb)
        return ClassicalDistribution(tuple(syms), tuple(probs))

    @functools.cached_property
    def _cdf(self) -> np.ndarray:
        """The cdf ``Generator.choice(p=probs)`` forms on every call, formed
        once.  A negative entry (admitted down to -1e-12) is refused, as
        ``choice`` refuses it."""
        p = np.asarray(self.probs, dtype=float)
        if np.any(p < 0):
            raise ValueError("probabilities are not non-negative")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        cdf.flags.writeable = False
        return cdf

    def symbols_at(self, u: np.ndarray) -> tuple:
        """The symbols ``rng.choice(size, p=probs)`` returns when its uniform
        draws are ``u``: it reads each off the cdf, right side."""
        return tuple(self.symbols[i] for i in self._cdf.searchsorted(u, side="right"))

    def sample_sequence(self, n: int, rng: np.random.Generator) -> tuple:
        """n i.i.d. symbols, bit-identical to ``rng.choice(size=n, p=probs)``."""
        return self.symbols_at(rng.random(n))


def sequence_counts(seq: Sequence) -> dict:
    counts: dict = {}
    for s in seq:
        counts[s] = counts.get(s, 0) + 1
    return counts


def is_typical(dist: ClassicalDistribution, seq: Sequence, delta: float) -> bool:
    """Membership in the relative-delta frequency-typical set, read off the
    count windows the typical projectors use.

    Works for any positive ``delta``; never enumerates anything.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    n = len(seq)
    if n == 0:
        raise ValueError("empty sequence")
    counts = sequence_counts(seq)
    known = set(dist.symbols)
    for s in counts:
        if s not in known:
            raise ValueError(f"sequence contains unknown symbol {s!r}")
    for s, (lo, hi) in zip(dist.symbols, _typical_count_windows(dist.probs, n, delta)):
        if not lo <= counts.get(s, 0) <= hi:
            return False
    return True


def typical_set(dist: ClassicalDistribution, n: int, delta: float) -> list[tuple]:
    """All typical sequences of length n, by full enumeration over the support."""
    support = dist.support
    total = len(support) ** n
    if total > SEQUENCE_CAP:
        raise ValueError(
            f"enumerating {total} sequences exceeds the cap {SEQUENCE_CAP}; "
            f"use is_typical for membership queries instead"
        )
    return [
        seq
        for seq in cartesian(support, repeat=n)
        if is_typical(dist, seq, delta)
    ]


def sequence_probability(dist: ClassicalDistribution, seq: Iterable) -> float:
    """Product of the symbols' probabilities, multiplied in sequence order."""
    w = 1.0
    for s in seq:
        w *= dist.prob(s)
    return w


def _ordered_total(masses: Sequence[float]) -> float:
    """Sum of the masses, added one at a time in the given order."""
    return float(np.add.accumulate(masses)[-1]) if len(masses) else 0.0


@dataclass(frozen=True)
class TypicalityParams:
    """Slack parameters shared by the finite-size guarantees.

    ``context_dims`` are the alphabet/space sizes whose product enters the
    exponent correction c(delta) = delta*log2(prod dims) - delta*log2(delta).
    The base ``delta`` must lie in (0, 1); scaled variants used by layered
    constructions (2*delta, 6*delta) may exceed 1 and are handled by the
    frequency window directly.
    """

    delta: float
    epsilon: float
    context_dims: tuple

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if any(int(d) < 1 for d in self.context_dims):
            raise ValueError("context dimensions must be positive")
        object.__setattr__(self, "context_dims", tuple(int(d) for d in self.context_dims))

    def c(self, scale: float = 1.0) -> float:
        """Exponent correction at ``scale * delta``."""
        return exponent_correction(scale * self.delta, self.context_dims)


def exponent_correction(d: float, context_dims: Sequence[int]) -> float:
    """c(d) = d*log2(prod context_dims) - d*log2(d), for a window width d > 0."""
    return d * math.log2(float(np.prod(context_dims))) - d * math.log2(d)


def typicality_threshold_n(
    params: TypicalityParams,
    *,
    p_min: float | None = None,
    q_min: float | None = None,
) -> int:
    """Smallest block length for which the one-shot guarantees are promised.

    The prefactor follows from the minima given: p_min alone (sequences)
    needs 2/p_min, q_min alone (states) needs 2/q_min, and both
    (conditional projectors, averaged-state overlaps, smoothing) need
    4/(p_min*q_min).  The log argument is always prod(context_dims)/epsilon.
    """
    log_term = math.log2(float(np.prod(params.context_dims)) / params.epsilon)
    inv_d2 = params.delta**-2
    if p_min is None and q_min is None:
        raise ValueError("the threshold needs p_min, q_min or both")
    if q_min is None:
        value = 2.0 * inv_d2 * log_term / p_min
    elif p_min is None:
        value = 2.0 * inv_d2 * log_term / q_min
    else:
        value = 4.0 * inv_d2 * log_term / (p_min * q_min)
    return int(math.ceil(value - 1e-9))


def _snap_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Replace eigenvalues equal within the merge tolerance by a shared value.

    Keeps one probability label per eigenvector; only the numerical values
    are unified so the frequency window treats exact degeneracies uniformly.
    The merge defines a degenerate label: eigenvalues within
    ``EIGENVALUE_MERGE_TOL`` share one count window.  A merged label moves
    by at most 5e-13, so a window bound moves by less than its slack
    n * WINDOW_SLACK, except for splits of about 3e-13 to 1e-12 at a slack
    multiple of delta above 1.  There, unmerged, the layer would hang on the
    eigenvectors rounding picks inside the pair; ``near_degenerate_case`` in
    the invariance tests pins that case.
    """
    snapped = w.astype(float).copy()
    i = 0
    while i < len(snapped):
        j = i + 1
        while j < len(snapped) and abs(snapped[i] - snapped[j]) <= EIGENVALUE_MERGE_TOL:
            j += 1
        if j - i > 1:
            snapped[i:j] = float(np.mean(snapped[i:j]))
        i = j
    snapped[snapped <= ZERO_EIGENVALUE_TOL] = 0.0
    return snapped


@functools.lru_cache(maxsize=1024)
def _typical_count_windows(q: tuple[float, ...], n: int, delta: float) -> tuple[tuple[int, int], ...]:
    """Per-label inclusive count windows: N(x)/n within delta*p(x) of p(x), and
    N(x) = 0 when p(x) is zero.  The one rule for sequences and projectors,
    formed once per (law, n, delta)."""
    slack = n * WINDOW_SLACK
    return tuple(
        (math.ceil(n * (p - delta * p) - slack), math.floor(n * (p + delta * p) + slack)) if p > 0 else (0, 0)
        for p in q
    )


@functools.lru_cache(maxsize=1024)
def _group_mask(labels: tuple[float, ...], g: int, delta: float) -> np.ndarray:
    """Kept cells of one symbol group's d^g eigenbasis grid (d = len(labels)),
    read-only: each label's count lies in its window at length g.

    The one place where count windows meet an index grid.  The mask depends
    on counts alone, so it is symmetric in its g axes.
    """
    d = len(labels)
    grid = np.indices((d,) * g).reshape(g, d**g)
    keep = np.ones(d**g, dtype=bool)
    for label, (lo, hi) in enumerate(_typical_count_windows(labels, g, delta)):
        count = np.count_nonzero(grid == label, axis=0)
        keep &= (lo <= count) & (count <= hi)
    keep = keep.reshape((d,) * g)
    keep.flags.writeable = False
    return keep


def _kept_flat(groups, d: int, n: int, delta: float) -> np.ndarray:
    """Kept flat indices of the d^n eigenbasis grid, ascending, which is the
    lexicographic order of their multi-indices.

    ``groups`` pairs positions with the snapped eigenvalue labels used
    there.  The layer's mask is the AND of its groups' masks, each placed on
    its positions by singleton axes; a group mask is symmetric in its axes,
    so the order of the positions does not matter.
    """
    keep = np.ones((d,) * n, dtype=bool)
    for pos, q in groups:
        shape = [1] * n
        for j in pos:
            shape[j] = d
        keep &= _group_mask(tuple(q), len(pos), delta).reshape(shape)
    return np.flatnonzero(keep)


def _kept_masses(groups, n: int, flat: np.ndarray) -> tuple[list[float], float]:
    """Product weight of each kept basis vector under the groups' labels,
    multiplied in position order, and their total summed in index order
    (Tr[P rho] for rho diagonal in that basis)."""
    at = {j: q for pos, q in groups for j in pos}
    d = len(at[0])
    masses = np.ones(len(flat))
    for j, picks in enumerate(np.unravel_index(flat, (d,) * n)):
        masses = masses * np.asarray(at[j], dtype=float)[picks]
    return masses.tolist(), _ordered_total(masses)


def typical_projector(rho, n: int, delta: float) -> Projector:
    """Typical projector of the n-th tensor power of ``rho``.

    The result is diagonal in the tensor-power eigenbasis of ``rho``
    (deterministic descending eigenbasis), keeping the multi-indices whose
    snapped eigenvalue labels are frequency-typical for the eigenvalue
    distribution.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    a = as_matrix(rho)
    d = a.shape[0]
    check_dim_cap(d**n)
    w, v = hermitian_eig(a)
    flat = _kept_flat([(range(n), _snap_eigenvalues(w))], d, n, delta)
    return Projector(_product_columns([v] * n, flat))


@dataclass(frozen=True)
class CqEnsemble:
    """Finite family of density operators indexed by classical symbols,
    each checked by ``as_matrix`` once, at construction, and decomposed by
    ``hermitian_eig`` and its eigenvalues snapped at most once, on first
    request."""

    dist: ClassicalDistribution
    states: Mapping
    _checked: dict = field(init=False, repr=False, compare=False)
    _eigs: dict = field(init=False, repr=False, compare=False)
    _labels: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        checked = {s: as_matrix(m) for s, m in self.states.items()}
        for s in self.dist.support:
            if s not in checked:
                raise ValueError(f"missing state for symbol {s!r}")
        if len({checked[s].shape[0] for s in self.dist.support}) != 1:
            raise ValueError("ensemble states have inconsistent dimensions")
        object.__setattr__(self, "_checked", checked)
        object.__setattr__(self, "_eigs", {})
        object.__setattr__(self, "_labels", {})

    @property
    def dim(self) -> int:
        return self._checked[self.dist.support[0]].shape[0]

    def state(self, symbol) -> np.ndarray:
        return self._checked[symbol]

    def eig(self, symbol) -> tuple[np.ndarray, np.ndarray]:
        """``hermitian_eig`` of the symbol's state, as read-only arrays
        shared by every caller of this ensemble."""
        if symbol not in self._eigs:
            w, v = hermitian_eig(self._checked[symbol])
            w.flags.writeable = False
            v.flags.writeable = False
            self._eigs[symbol] = (w, v)
        return self._eigs[symbol]

    def labels(self, symbol) -> np.ndarray:
        """Snapped eigenvalue labels of ``eig(symbol)``, read-only, in its
        eigenvector order."""
        if symbol not in self._labels:
            q = _snap_eigenvalues(self.eig(symbol)[0])
            q.flags.writeable = False
            self._labels[symbol] = q
        return self._labels[symbol]

    def average_state(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for s in self.dist.support:
            out += self.dist.prob(s) * self.state(s)
        return out

    def conditional_entropy(self) -> float:
        """Average output entropy sum_x p(x) H(rho_x), in bits, read off the
        spectra ``eig`` keeps."""
        total = 0.0
        for s in self.dist.support:
            total += self.dist.prob(s) * entropy_bits(self.eig(s)[0])
        return total

    def sequence_state(self, seq: Sequence) -> np.ndarray:
        """Kronecker product of the states along ``seq``, guarded by the dimension cap."""
        check_dim_cap(self.dim ** len(seq))
        mats = [self._checked[s] for s in seq]
        return functools.reduce(_kron, mats) if mats else np.ones((1, 1), dtype=np.complex128)

    def q_min(self) -> float:
        """Smallest positive eigenvalue across the ensemble states, read off
        the spectra ``eig`` keeps."""
        vals = []
        for s in self.dist.support:
            vals.extend(x for x in self.eig(s)[0] if x > ZERO_EIGENVALUE_TOL)
        return float(min(vals))


def cond_typical_projector(ensemble: CqEnsemble, seq: Sequence, delta: float) -> Projector:
    """Conditional typical projector for the product state along ``seq``.

    Positions are grouped by symbol; each group contributes the typical
    projector of the corresponding tensor-power state at slack ``delta``,
    and the factors are placed back at the group's original positions.  The
    result commutes with the product state by construction.

    A state with a repeated nonzero eigenvalue (I/d, say) leaves its basis
    of that eigenspace to ``hermitian_eig``.  Where the count windows cut the
    eigenspace (I/2 on two positions keeps one of each label,
    span{v1 (x) v2, v2 (x) v1}), the projector depends on that basis, so a
    decode's simulated errors are not a function of the channel alone: a
    unitary on its states can move them.  Its bounds still hold.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    n = len(seq)
    if n == 0:
        raise ValueError("empty sequence")
    d = ensemble.dim
    check_dim_cap(d**n)
    factors, groups = _conditional_basis(ensemble, seq)
    return Projector(_product_columns(factors, _kept_flat(groups, d, n, delta)))


def _conditional_basis(ensemble: CqEnsemble, seq: Sequence) -> tuple[list, list]:
    """Per-position eigenbases of the states along ``seq`` and the symbol
    groups as (positions, snapped labels)."""
    positions: dict = {}
    for j, s in enumerate(seq):
        positions.setdefault(s, []).append(j)
    factors: list = [None] * len(seq)
    groups = []
    for s, pos in positions.items():
        v = ensemble.eig(s)[1]
        for j in pos:
            factors[j] = v
        groups.append((pos, ensemble.labels(s)))
    return factors, groups


# ---------------------------------------------------------------------------
# report-style verification
#
# Each report is a dict of Checks.  The three typical-set reports (sequences,
# states, conditional projectors) share one builder for their mass, sandwich
# and size checks, and every "probability at least 1 - epsilon" statement is
# one mass check.  ``informative`` marks a check whose promise does not apply
# (block length below its threshold, atypical input); ``vacuous`` marks a
# bound outside the range of its quantity, which cannot fail.


@dataclass
class Check:
    name: str
    value: float
    bound: float
    passed: bool
    informative: bool = False
    note: str = ""
    vacuous: bool = False


def _mass_check(name: str, value: float, params: TypicalityParams, informative: bool, note: str) -> Check:
    """``value`` against the promised floor 1 - epsilon."""
    floor = 1.0 - params.epsilon
    return Check(name, value, floor, value >= floor - 1e-12, informative=informative, note=note)


def _sandwich_check(masses: list[float], n: int, entropy: float, c: float, informative: bool) -> Check:
    """Every kept weight within [2^{-n(entropy + c)}, 2^{-n(entropy - c)}];
    vacuous when the ceiling is at least 1, which no weight exceeds."""
    if not masses:
        return Check("sandwich", 0.0, 0.0, True, informative=True, note="empty support")
    lo = 2.0 ** (-n * (entropy + c))
    hi = 2.0 ** (-n * (entropy - c))
    worst_lo, worst_hi = min(masses), max(masses)
    return Check(
        "sandwich",
        worst_lo,
        lo,
        lo * (1 - 1e-9) <= worst_lo and worst_hi <= hi * (1 + 1e-9),
        informative=informative,
        note=f"probabilities in [{worst_lo:.3e}, {worst_hi:.3e}], sandwich [{lo:.3e}, {hi:.3e}]",
        vacuous=hi >= 1.0,
    )


def _typical_set_checks(
    masses: list[float],
    total: float,
    size: int,
    size_name: str,
    space: int,
    n: int,
    h: float,
    params: TypicalityParams,
    threshold: int,
    typical: bool = True,
    note: str = "",
) -> dict:
    """The mass, sandwich and size checks of one typical set.

    ``masses`` are the kept sequences' or basis vectors' weights and
    ``total`` their ordered sum; ``size`` of them are kept out of ``space``,
    against 2^{n(h + c)}, a bound that is vacuous from ``space`` on.  The
    mass is promised from ``threshold`` on, and nothing is promised for an
    atypical input (``typical=False``), which makes all three checks
    informative.  ``note`` is appended to the mass check's note.
    """
    c = params.c()
    bound = 2.0 ** (n * (h + c))
    return {
        "mass": _mass_check("mass", total, params, n < threshold or not typical, f"threshold n >= {threshold}{note}"),
        "sandwich": _sandwich_check(masses, n, h, c, informative=not typical),
        size_name: Check(
            size_name, float(size), bound, size <= bound * (1 + 1e-9), informative=not typical, vacuous=bound >= space
        ),
    }


def verify_sequence_typicality(dist: ClassicalDistribution, n: int, params: TypicalityParams) -> dict:
    """Mass, per-sequence sandwich, and cardinality checks by enumeration."""
    seqs = typical_set(dist, n, params.delta)
    masses = [sequence_probability(dist, seq) for seq in seqs]
    threshold = typicality_threshold_n(params, p_min=dist.p_min)
    return _typical_set_checks(
        masses, _ordered_total(masses), len(seqs), "cardinality", len(dist.support) ** n, n, dist.entropy(), params,
        threshold,
    )


def verify_state_typicality(rho, n: int, params: TypicalityParams) -> dict:
    """Trace mass, support sandwich, and rank bound for a typical projector."""
    a = as_matrix(rho)
    check_dim_cap(a.shape[0] ** n)
    w, v = hermitian_eig(a)
    q = _snap_eigenvalues(w)
    groups = [(range(n), q)]
    flat = _kept_flat(groups, len(q), n, params.delta)
    proj = Projector(_product_columns([v] * n, flat))
    masses, total = _kept_masses(groups, n, flat)
    threshold = typicality_threshold_n(params, q_min=float(min(x for x in q if x > 0)))
    checks = _typical_set_checks(
        masses, total, proj.rank, "rank", proj.dim, n, float(entropy_bits(q)), params, threshold
    )
    commutes = True
    if proj.dim <= 256:
        dense = proj.dense()
        power = tensor_product([a] * n)
        comm = dense @ power - power @ dense
        commutes = float(np.max(np.abs(comm))) <= 1e-9
    checks["commutes"] = Check("commutes", 0.0, 0.0, commutes, note="skipped above dim 256" if proj.dim > 256 else "")
    return checks


def verify_conditional_typicality(ensemble: CqEnsemble, seq: Sequence, params: TypicalityParams) -> dict:
    """Conditional-projector checks for one input sequence.

    The mass and sandwich statements are promised only for typical input
    sequences; for atypical input the report flags every check informative.
    """
    n = len(seq)
    check_dim_cap(ensemble.dim**n)
    _, groups = _conditional_basis(ensemble, seq)
    flat = _kept_flat(groups, ensemble.dim, n, params.delta)
    masses, mass = _kept_masses(groups, n, flat)
    seq_typical = is_typical(ensemble.dist, seq, params.delta)
    threshold = typicality_threshold_n(params, p_min=ensemble.dist.p_min, q_min=ensemble.q_min())
    return _typical_set_checks(
        masses, mass, len(flat), "rank", ensemble.dim**n, n, ensemble.conditional_entropy(), params, threshold,
        typical=seq_typical, note=f"; input typical: {seq_typical}",
    )


def verify_averaged_state_overlaps(
    pair_ensemble: CqEnsemble,
    x_ensemble: CqEnsemble,
    xn: Sequence,
    yn: Sequence,
    params: TypicalityParams,
) -> dict:
    """Overlap of a pair-sequence state with the averaged-state projectors.

    Reports Tr[rho_{xn,yn} P] for the typical projector of the full average
    at slack 2*delta and for the conditional projector of the first-marginal
    ensemble at slack 6*delta.  The promises require the pair sequence to be
    jointly typical.
    """
    pairs = list(zip(xn, yn))
    rho_pair = pair_ensemble.sequence_state(pairs)
    n = len(pairs)
    projs = {
        "average_overlap": typical_projector(pair_ensemble.average_state(), n, 2.0 * params.delta),
        "conditional_overlap": cond_typical_projector(x_ensemble, xn, 6.0 * params.delta),
    }
    jointly_typical = is_typical(pair_ensemble.dist, pairs, params.delta)
    threshold = typicality_threshold_n(params, p_min=pair_ensemble.dist.p_min, q_min=pair_ensemble.q_min())
    info = (n < threshold) or not jointly_typical
    note = f"threshold n >= {threshold}; pair typical: {jointly_typical}"
    return {name: _mass_check(name, p.trace_with(rho_pair), params, info, note) for name, p in projs.items()}
