"""Projector-sandwich smoothing for layered classical-quantum systems.

The input is an ensemble over triples (x, z, y) whose joint law factors as
p(x) p(z|x) p(y), each triple labelling a quantum output state.  For every
jointly typical sequence triple the output state is conjugated by three
nested typical projectors (the average state at slack 2*delta, then the
x-conditional and (x,z)-conditional layers at 6*delta) and renormalized;
every other triple is replaced by the maximally mixed state.  The primed
family stays close to the original in trace distance while its marginals
acquire explicit sup-norm ceilings, which is what the decoder analyses
consume.

Cost: no record holds a dense state of its own.  Every maximally mixed
record (the atypical ones, and typical ones whose sandwich annihilates the
state) shares one read-only I/D matrix, enters the marginals as a scalar
mass and has its trace distance to the product state read off the symbols'
spectra, O(D) per record with D = d^n.  A typical record's scalars are
those of its joint type (its symbol counts): permuting the n positions
conjugates the product state and both conditional projectors by one
permutation unitary and leaves the average-state projector fixed, so the
denominator, the three overlap failures and the trace distance are the same
for every record of a type.  They are measured once per type, on its first
record in enumeration order: the overlaps elementwise against the dense
projectors (O(D^2) each), the sandwich and the trace distance (one D x D
eigendecomposition).  The type's denominator decides ``zero_denominator``
for all of its records.  The marginals use linearity: each (xs, zs) key
sums p rho_t / denominator over its sandwiched records and is sandwiched
once, and the x-marginals and the average add up those per-key parts.  A
sandwiched record keeps its key's shared sandwich and forms its state on
read.  Verification reads the measured distances and builds no product
state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .linalg import check_dim_cap, operator_norm, require_hermitian, trace_distance
from .typicality import (
    Check,
    ClassicalDistribution,
    CqEnsemble,
    TypicalityParams,
    cond_typical_projector,
    entropy_bits,
    is_typical,
    sequence_counts,
    sequence_probability,
    typical_projector,
    typicality_threshold_n,
)

__all__ = [
    "TRIPLE_CAP",
    "TripleRecord",
    "SmoothedEnsemble",
    "smoothed_states",
    "verify_smoothing_bounds",
]

#: Ceiling on full enumeration of (x^n, z^n, y^n) triples.
TRIPLE_CAP = 2**16

#: Below this trace the sandwich is treated as annihilating the state.
DENOMINATOR_TOL = 1e-14

FACTORIZATION_TOL = 1e-9


@dataclass(frozen=True)
class TripleLayers:
    """Marginal distributions and averaged-state ensembles of a triple system.

    ``pair_ens`` carries the y-averaged states rho_{xz}, ``x_ens`` the
    further z-averaged states rho_x; the conditional projectors of the
    sandwich are built from these, never from the raw triple states.
    """

    p_x: ClassicalDistribution
    p_y: ClassicalDistribution
    p_xz: ClassicalDistribution
    x_ens: CqEnsemble
    pair_ens: CqEnsemble
    rho_bar: np.ndarray
    alphabet_sizes: tuple

    @property
    def context_dims(self) -> tuple:
        d = self.x_ens.dim
        return (d,) + self.alphabet_sizes


def triple_layers(system: CqEnsemble) -> TripleLayers:
    """Validate the p(x)p(z|x)p(y) factorization and derive the layer data."""
    joint: dict = {}
    for s, p in zip(system.dist.symbols, system.dist.probs):
        if not (isinstance(s, tuple) and len(s) == 3):
            raise ValueError(f"symbols must be (x, z, y) triples, got {s!r}")
        joint[s] = p

    acc_xz: dict = {}
    acc_x: dict = {}
    acc_y: dict = {}
    for (x, z, y), p in joint.items():
        acc_xz[(x, z)] = acc_xz.get((x, z), 0.0) + p
        acc_x[x] = acc_x.get(x, 0.0) + p
        acc_y[y] = acc_y.get(y, 0.0) + p
    p_xz = ClassicalDistribution.from_mapping(acc_xz)
    p_x = ClassicalDistribution.from_mapping(acc_x)
    p_y = ClassicalDistribution.from_mapping(acc_y)

    for (x, z), pxz in zip(p_xz.symbols, p_xz.probs):
        for y, py in zip(p_y.symbols, p_y.probs):
            declared = joint.get((x, z, y), 0.0)
            if abs(declared - pxz * py) > FACTORIZATION_TOL:
                raise ValueError(
                    "joint law must factor as p(x, z) * p(y); "
                    f"mismatch at {(x, z, y)!r}"
                )

    d = system.dim
    rho_xz: dict = {}
    for (x, z) in p_xz.support:
        acc = np.zeros((d, d), dtype=np.complex128)
        for y in p_y.support:
            acc += p_y.prob(y) * system.state((x, z, y))
        rho_xz[(x, z)] = acc
    rho_x: dict = {}
    for x in p_x.support:
        acc = np.zeros((d, d), dtype=np.complex128)
        for (xx, z) in p_xz.support:
            if xx == x:
                acc += (p_xz.prob((x, z)) / p_x.prob(x)) * rho_xz[(x, z)]
        rho_x[x] = acc

    sizes = (
        len({s[0] for s in joint}),
        len({s[1] for s in joint}),
        len({s[2] for s in joint}),
    )
    return TripleLayers(
        p_x=p_x,
        p_y=p_y,
        p_xz=p_xz,
        x_ens=CqEnsemble(p_x, rho_x),
        pair_ens=CqEnsemble(p_xz, rho_xz),
        rho_bar=system.average_state(),
        alphabet_sizes=sizes,
    )


def _sandwiched(m: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return m @ rho @ m.conj().T


def _normalized(sand: np.ndarray, denominator: float) -> np.ndarray:
    state = sand / denominator
    return (state + state.conj().T) / 2.0


def _overlap(p: np.ndarray, rho: np.ndarray) -> float:
    """Re Tr[P rho] for a Hermitian dense projector P, as the elementwise
    sum of conj(P_ij) rho_ij = P_ji rho_ij: O(D^2), no D x D product."""
    return float(np.real(np.vdot(p, rho)))


@dataclass(frozen=True)
class TripleRecord:
    """Outcome of smoothing one (x^n, z^n, y^n) sequence triple.

    ``overlap_failures`` holds 1 - Tr[rho Pi] for the average, x-layer and
    (x,z)-layer projectors in that order; it is None on the atypical branch,
    as is ``denominator``.  A typical triple whose sandwich traces to
    (numerically) zero keeps its tiny denominator for the report but carries
    the maximally mixed state and the ``zero_denominator`` flag.
    ``distance`` is ||state - rho||_1 against the product state rho, None for
    a maximally mixed record.  These scalars are per joint type: a typical
    record carries those measured on the first record of its type, which
    agree with its own to rounding.

    A record holds no dense state: ``state`` is the shared read-only I/D of a
    maximally mixed record, and a sandwiched record forms
    (m rho m^dag) / denominator on each read from its (xs, zs) key's shared
    sandwich m, its own product state rho and its type's denominator.
    """

    xs: tuple
    zs: tuple
    ys: tuple
    probability: float
    typical: bool
    denominator: float | None = None
    overlap_failures: tuple | None = None
    zero_denominator: bool = False
    distance: float | None = None
    # the shared I/D of a maximally mixed record, the sandwich m of a smoothed one
    _matrix: np.ndarray | None = field(default=None, repr=False, compare=False)
    _system: CqEnsemble | None = field(default=None, repr=False, compare=False)

    @property
    def state(self) -> np.ndarray:
        """The smoothed state; a sandwiched record forms a new array per read."""
        if self.distance is None:
            return self._matrix
        rho = self._system.sequence_state(self.zipped)
        return _normalized(_sandwiched(self._matrix, rho), self.denominator)

    @property
    def zipped(self) -> tuple:
        return tuple(zip(self.xs, self.zs, self.ys))

    @property
    def epsilon(self) -> float:
        """Largest of the three projector overlap failures."""
        if self.overlap_failures is None:
            raise ValueError("atypical records carry no overlap failures")
        return max(self.overlap_failures)


@dataclass(frozen=True)
class SmoothedEnsemble:
    """Primed state family with its declared-probability marginals.

    Marginals exist only after a complete enumeration; a caller-supplied
    triple list yields ``complete=False`` with the marginal fields None.
    """

    system: CqEnsemble
    n: int
    delta: float
    layers: TripleLayers
    records: tuple
    index: Mapping
    complete: bool
    typical_mass: float | None = None
    pair_marginals: Mapping | None = None
    x_marginals: Mapping | None = None
    average: np.ndarray | None = None

    def record_for(self, xs: Sequence, zs: Sequence, ys: Sequence) -> TripleRecord:
        key = (tuple(xs), tuple(zs), tuple(ys))
        try:
            return self.records[self.index[key]]
        except KeyError:
            raise KeyError(f"no record for triple {key!r}") from None

    def state_for(self, xs: Sequence, zs: Sequence, ys: Sequence) -> np.ndarray:
        return self.record_for(xs, zs, ys).state

    @property
    def measured_epsilon(self) -> float:
        """Worst projector overlap failure, folded with the atypical mass.

        Falls back to 1.0 when nothing is measurable (a partial enumeration
        containing no typical triple).
        """
        vals = [r.epsilon for r in self.records if r.typical]
        if self.complete:
            vals.append(1.0 - self.typical_mass)
        if not vals:
            return 1.0
        return min(1.0, max(vals))


def _normalized_triple(triple, n: int, known: frozenset) -> tuple:
    if len(triple) != 3:
        raise ValueError("each triple must be (x-sequence, z-sequence, y-sequence)")
    xs, zs, ys = (tuple(part) for part in triple)
    if not len(xs) == len(zs) == len(ys) == n:
        raise ValueError(f"triple components must all have length {n}")
    zipped = tuple(zip(xs, zs, ys))
    for sym in zipped:
        if sym not in known:
            raise ValueError(f"sequence contains unknown symbol {sym!r}")
    return zipped


def smoothed_states(
    system: CqEnsemble,
    n: int,
    delta: float,
    *,
    triples: Sequence | None = None,
) -> SmoothedEnsemble:
    """Build the primed family for a p(x)p(z|x)p(y) triple system.

    With ``triples=None`` every sequence triple over the support alphabet is
    enumerated (count bounded by ``TRIPLE_CAP``) and the marginals are
    assembled exactly; otherwise only the supplied (xs, zs, ys) triples are
    processed and the marginal fields stay empty.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    layers = triple_layers(system)
    d = system.dim
    dim = d**n
    check_dim_cap(dim)
    dist = system.dist

    complete = triples is None
    if complete:
        count = len(dist.support) ** n
        if count > TRIPLE_CAP:
            raise ValueError(
                f"{count} sequence triples exceed the cap {TRIPLE_CAP}; "
                "pass an explicit triple list"
            )
        zipped_iter = itertools.product(dist.support, repeat=n)
    else:
        known = frozenset(dist.symbols)
        zipped_iter = [_normalized_triple(t, n, known) for t in triples]

    # shared by every maximally mixed record, so no caller may write into it
    mixed = np.eye(dim, dtype=np.complex128) / float(dim)
    mixed.setflags(write=False)
    pi_avg_dense = typical_projector(layers.rho_bar, n, 2.0 * delta).dense()
    x_cache: dict = {}
    sandwich_cache: dict = {}
    # joint type -> (denominator, overlap failures, trace distance or None)
    type_scalars: dict = {}

    records: list = []
    index: dict = {}
    # per marginal: [sum over the sandwiched records, mass of the mixed ones];
    # a pair slot first sums p rho_t / den over its key and is sandwiched once
    pair_acc: dict = {}
    x_acc: dict = {}
    avg_acc = [0.0, 0.0]
    typical_mass = 0.0

    for zipped in zipped_iter:
        zipped = tuple(zipped)
        xs = tuple(s[0] for s in zipped)
        zs = tuple(s[1] for s in zipped)
        ys = tuple(s[2] for s in zipped)
        prob = sequence_probability(dist, zipped)
        typical = is_typical(dist, zipped, delta)
        rho_t = None

        if typical:
            key = (xs, zs)
            if key not in sandwich_cache:
                if xs not in x_cache:
                    x_cache[xs] = cond_typical_projector(layers.x_ens, xs, 6.0 * delta).dense()
                p_x = x_cache[xs]
                p_xz = cond_typical_projector(layers.pair_ens, tuple(zip(xs, zs)), 6.0 * delta).dense()
                sandwich_cache[key] = (p_x, p_xz, pi_avg_dense @ p_x @ p_xz)
            p_x, p_xz, m = sandwich_cache[key]
            joint_type = frozenset(sequence_counts(zipped).items())
            if joint_type not in type_scalars:
                # the type's first record stands for all of its permutations
                rho_t = system.sequence_state(zipped)
                failures = tuple(
                    min(1.0, max(0.0, 1.0 - _overlap(proj, rho_t)))
                    for proj in (pi_avg_dense, p_x, p_xz)
                )
                sand = _sandwiched(m, rho_t)
                denominator = float(np.real(np.trace(sand)))
                distance = None
                if denominator > DENOMINATOR_TOL:
                    distance = trace_distance(_normalized(sand, denominator), rho_t)
                type_scalars[joint_type] = (denominator, failures, distance)
            denominator, failures, distance = type_scalars[joint_type]
            if distance is None:
                record = TripleRecord(
                    xs, zs, ys, prob, True,
                    denominator=denominator,
                    overlap_failures=failures,
                    zero_denominator=True,
                    _matrix=mixed,
                )
            else:
                record = TripleRecord(
                    xs, zs, ys, prob, True,
                    denominator=denominator,
                    overlap_failures=failures,
                    distance=distance,
                    _matrix=m,
                    _system=system,
                )
            typical_mass += prob
        else:
            record = TripleRecord(xs, zs, ys, prob, False, _matrix=mixed)

        index[(xs, zs, ys)] = len(records)
        records.append(record)
        if complete and prob > 0:
            pair = pair_acc.setdefault((xs, zs), [0.0, 0.0])
            x_part = x_acc.setdefault(xs, [0.0, 0.0])
            if record.distance is None:
                for acc in (pair, x_part, avg_acc):
                    acc[1] += prob
            else:
                if rho_t is None:
                    rho_t = system.sequence_state(zipped)
                pair[0] = pair[0] + (prob / denominator) * rho_t

    if not complete:
        return SmoothedEnsemble(
            system, n, delta, layers, tuple(records), index, False
        )

    # by linearity, a key's sandwiched records sum to m (sum_t p_t rho_t / den_t) m^dag
    for (xs, zs), acc in pair_acc.items():
        if isinstance(acc[0], np.ndarray):
            acc[0] = _normalized(_sandwiched(sandwich_cache[(xs, zs)][2], acc[0]), 1.0)
            for part in (x_acc[xs], avg_acc):
                part[0] = part[0] + acc[0]

    def total(acc: list) -> np.ndarray:
        # the mixed records' shared I/D enters once, as their mass over D
        return acc[0] + (acc[1] / dim) * np.eye(dim, dtype=np.complex128)

    pair_marginals = {}
    for (xs, zs), acc in pair_acc.items():
        pairs = tuple(zip(xs, zs))
        pair_marginals[pairs] = total(acc) / sequence_probability(layers.p_xz, pairs)
    x_marginals = {xs: total(acc) / sequence_probability(layers.p_x, xs) for xs, acc in x_acc.items()}

    return SmoothedEnsemble(
        system,
        n,
        delta,
        layers,
        tuple(records),
        index,
        True,
        typical_mass=typical_mass,
        pair_marginals=pair_marginals,
        x_marginals=x_marginals,
        average=total(avg_acc),
    )


#: Product eigenvalues ``_mixed_distances`` holds at once; small blocks keep
#: its temporaries from raising peak memory while the records are alive.
MIXED_BATCH = 2**14


def _mixed_distances(system: CqEnsemble, seqs: Sequence) -> np.ndarray:
    """``||I/D - system.sequence_state(z)||_1`` for each symbol sequence z, O(D) apiece.

    I/D commutes with the product state, so the difference is diagonal in
    the product eigenbasis with entries 1/D - prod_i lambda_{z_i, k_i}.
    Each symbol's spectrum is taken once; the products are formed for a
    block of sequences at a time, in the left-to-right order of the
    Kronecker product.
    """
    symbols = list(dict.fromkeys(s for z in seqs for s in z))
    if not symbols:
        return np.zeros(len(seqs))
    spectra = np.array([np.linalg.eigvalsh(require_hermitian(system.state(s))) for s in symbols])
    where = {s: i for i, s in enumerate(symbols)}
    rows = np.array([[where[s] for s in z] for z in seqs], dtype=np.intp)
    dim = spectra.shape[1] ** rows.shape[1]
    out = np.empty(len(rows))
    step = max(1, MIXED_BATCH // dim)
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        lam = spectra[block[:, 0]]
        for column in block.T[1:]:
            lam = (lam[:, :, None] * spectra[column][:, None, :]).reshape(len(block), -1)
        out[start : start + step] = np.sum(np.abs(1.0 / dim - lam), axis=1)
    return out


def _unavailable(names: Sequence[str], note: str) -> dict:
    """Placeholder rows for checks that cannot be evaluated."""
    return {name: Check(name, 0.0, 0.0, True, informative=True, note=note) for name in names}


def verify_smoothing_bounds(se: SmoothedEnsemble, epsilon: float | None = None) -> dict:
    """Check the sup-norm ceilings and trace-distance bounds of the family.

    When ``epsilon`` is supplied, lies below 1/64 and ``se.n`` meets the
    joint threshold, the checks run against that theoretical parameter;
    otherwise they are reported informatively against the measured epsilon
    (the verified inequality chain keeps the trace-distance and denominator
    rows valid even then, while the sup-norm constant needs epsilon < 1/64).

    A sandwiched record's trace distance was measured at build
    (``TripleRecord.distance``); a maximally mixed record's comes from the
    product of the symbols' spectra in O(D).  No product state is built and
    no dense trace distance runs here.

    Rows, in order: ``denominator`` and ``l1-triple`` over the typical
    records, ``linf-pair``, ``linf-x`` and ``linf-average`` from one loop,
    and ``l1-global``; a row that cannot be evaluated is an informative
    placeholder.  ``vacuous`` marks a bound outside its quantity's range
    (denominator <= 0, trace distance >= 2, operator norm >= 1).
    """
    layers = se.layers
    n, delta = se.n, se.delta
    dims = layers.context_dims

    eps_measured = se.measured_epsilon
    regime, eps, threshold = "measured", eps_measured, None
    if epsilon is not None:
        params = TypicalityParams(delta=delta, epsilon=epsilon, context_dims=dims)
        threshold = typicality_threshold_n(params, p_min=se.system.dist.p_min, q_min=se.system.q_min())
        if n >= threshold and epsilon < 1.0 / 64.0:
            regime, eps = "theoretical", epsilon
    else:
        params = TypicalityParams(delta=delta, epsilon=0.5, context_dims=dims)
    informative = regime == "measured"
    c2, c6 = params.c(2.0), params.c(6.0)
    root = math.sqrt(eps)

    checks: dict = {}

    def check(name: str, value: float, bound: float, passed: bool, vacuous: bool, note: str = "") -> None:
        checks[name] = Check(name, value, bound, passed, informative=informative, note=note, vacuous=bool(vacuous))

    # one trace distance per record, read by both the l1-triple and l1-global rows
    distances = [r.distance for r in se.records]
    mixed = [
        i
        for i, r in enumerate(se.records)
        if r.distance is None and (r.typical or (se.complete and r.probability > 0))
    ]
    zipped = [se.records[i].zipped for i in mixed]
    for i, dist in zip(mixed, _mixed_distances(se.system, zipped)):
        distances[i] = float(dist)
    typical = [r for r in se.records if r.typical]
    if typical:
        min_den = min(r.denominator for r in typical)
        den_bound = 1.0 - 5.0 * root
        note = f"{len(typical)} typical triples"
        annihilated = sum(r.zero_denominator for r in typical)
        if annihilated:
            note += f"; {annihilated} annihilated by the sandwich (state set to I/D)"
        check("denominator", min_den, den_bound, min_den >= den_bound - 1e-12, den_bound <= 0.0, note)
        worst = 0.0
        for r, dist in zip(se.records, distances):
            if r.typical:
                worst = max(worst, dist)
        l1_bound = 11.0 * root
        check("l1-triple", worst, l1_bound, worst <= l1_bound + 1e-12, l1_bound >= 2.0)
    else:
        checks.update(_unavailable(("denominator", "l1-triple"), "no typical triples"))

    if se.complete:
        # (name, marginals, law whose typical keys are checked or None for all, entropy, c)
        rows = (
            ("linf-pair", se.pair_marginals, layers.p_xz, layers.pair_ens.conditional_entropy(), c6),
            ("linf-x", se.x_marginals, layers.p_x, layers.x_ens.conditional_entropy(), c6),
            ("linf-average", {(): se.average}, None, entropy_bits(np.linalg.eigvalsh(layers.rho_bar)), c2),
        )
        for name, marginals, mdist, h, c in rows:
            vals = [
                operator_norm(mat)
                for key, mat in marginals.items()
                if mdist is None or is_typical(mdist, key, delta)
            ]
            bound = 4.0 * 2.0 ** (-n * (h - c))
            value = max(vals) if vals else 0.0
            note = "" if mdist is None else f"{len(vals)} typical marginals"
            check(name, value, bound, value <= bound * (1.0 + 1e-9), bound >= 1.0, note)
        total = 0.0
        for r, dist in zip(se.records, distances):
            if r.probability > 0:
                total += r.probability * dist
        g_bound = 13.0 * root
        check("l1-global", total, g_bound, total <= g_bound + 1e-12, g_bound >= 2.0)
    else:
        note = "marginals unavailable (partial enumeration)"
        checks.update(_unavailable(("linf-pair", "linf-x", "linf-average", "l1-global"), note))

    return {
        "n": n,
        "delta": delta,
        "regime": regime,
        "epsilon": eps,
        "epsilon_measured": eps_measured,
        "threshold_n": threshold,
        "checks": checks,
    }
