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
spectra, O(D) per record with D = d^n.  Every triple's probability,
typicality flag, joint type (its symbol counts) and key type (the counts of
its (x, z) pairs) is read off one integer index array over the product
grid, so the per-record loop only builds records.

Permuting the n positions conjugates the product state and both
conditional projectors by one permutation unitary U and leaves the
average-state projector fixed.  So a typical record's denominator, overlap
failures and trace distance are those of its joint type, and a key's
sandwich, summed marginal and mixed mass are U (...) U^dag of those of its
key type's representative, the first key seen of the type.  Applying U to a
D x D matrix is pure data movement: reshape to 2n axes of size d, transpose
both halves, reshape back, O(D^2).  The build forms one layer pair and one
sandwich m = Pi_avg Pi_x Pi_xz per key type, and a product state only for
the typical records of the representatives: each joint type is measured on
its first such record (the overlaps elementwise, O(D^2) each, the sandwich
and the trace distance, one D x D eigendecomposition), and by linearity the
representative's sandwiched records sum to m (sum_t p_t rho_t / den_t)
m^dag.  The x-marginals sum the permuted pair parts once per x type, and
the average symmetrizes them with n(n-1)/2 transpositions.  A sandwiched
record keeps its representative's m and its permutation and forms its
state on read; ``pair_marginals`` and ``x_marginals`` form a key's matrix
on read.  Verification reads the measured distances, builds no product
state and takes one operator norm per typical key type, shared by the
pair and x rows where their matrices are bitwise equal.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .linalg import check_dim_cap, operator_norm, require_hermitian, trace_distance
from .typicality import (
    Check,
    ClassicalDistribution,
    CqEnsemble,
    TypicalityParams,
    _ordered_total,
    _typical_count_windows,
    cond_typical_projector,
    entropy_bits,
    is_typical,
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


def _permuted(mat: np.ndarray, perm: tuple | None, d: int) -> np.ndarray:
    """U mat U^dag for the permutation unitary U that puts tensor factor
    ``perm[j]`` of ``mat`` at position j.

    Pure data movement, O(D^2): reshape to 2n axes of size d, move the
    positions on the row and the column half alike, reshape back.  ``None``
    is the identity and returns ``mat`` itself.
    """
    if perm is None:
        return mat
    n = len(perm)
    dim = mat.shape[0]
    axes = perm + tuple(n + j for j in perm)
    return mat.reshape((d,) * (2 * n)).transpose(axes).reshape(dim, dim)


def _symmetrized(mat: np.ndarray, n: int, d: int) -> np.ndarray:
    """The sum of U mat U^dag over all n! position permutations U, from
    n(n-1)/2 transpositions: with T_k the sum of the identity and the
    transpositions (j k), j < k, the sum over all permutations is
    T_{n-1} ... T_1, applied from T_1 on."""
    total = mat
    for k in range(1, n):
        acc = total
        for j in range(k):
            swap = tuple(k if i == j else j if i == k else i for i in range(n))
            acc = acc + _permuted(total, swap, d)
        total = acc
    return total


def _alignments(rows: np.ndarray, reps: np.ndarray) -> list:
    """Per row i the permutation s with ``rows[i][j] == reps[i][s[j]]``, as
    a tuple, or None where it is the identity; equal entries are matched in
    position order."""
    s = np.empty_like(rows)
    np.put_along_axis(s, np.argsort(rows, axis=1, kind="stable"), np.argsort(reps, axis=1, kind="stable"), axis=1)
    identity = np.all(s == np.arange(rows.shape[1]), axis=1)
    return [None if same else tuple(p) for same, p in zip(identity.tolist(), s.tolist())]


def _first_seen(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ids of the distinct rows of ``table``, numbered in order of first
    appearance, and the first row holding each id."""
    codes = np.zeros(len(table), dtype=np.intp)
    for column in table.T:
        # fold one column in and renumber, so that codes stay below len(table)
        codes = np.unique(codes * (int(column.max(initial=0)) + 1) + column, return_inverse=True)[1]
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse], first[order]


def _ids(values) -> np.ndarray:
    """Index of each value among the distinct values, numbered in order of
    first appearance."""
    seen: dict = {}
    return np.array([seen.setdefault(v, len(seen)) for v in values], dtype=np.intp)


def _counts(rows: np.ndarray, size: int) -> np.ndarray:
    """Per row, how often each of the values 0..size-1 occurs."""
    flat = (np.arange(len(rows))[:, None] * size + rows).reshape(-1)
    return np.bincount(flat, minlength=len(rows) * size).reshape(len(rows), size)


@dataclass(frozen=True)
class _Orbits:
    """The distinct sequences among rows of symbol indices, grouped into
    types (their symbol counts), each numbered in order of first appearance.

    ``of_row`` is each row's sequence and ``first`` each sequence's first
    row; ``type_of`` is each sequence's type and ``reps`` each type's
    representative, its first sequence; ``stabilizers`` holds the order of
    the group of position permutations that fixes a representative, and
    ``perms`` the permutation that carries each sequence's representative
    to it (None for the representative itself).
    """

    of_row: np.ndarray
    first: np.ndarray
    type_of: np.ndarray
    reps: np.ndarray
    stabilizers: list
    perms: list


def _orbits(rows: np.ndarray) -> _Orbits:
    of_row, first = _first_seen(rows)
    seqs = rows[first]
    counts = _counts(seqs, int(rows.max(initial=0)) + 1)
    type_of, reps = _first_seen(counts)
    stabilizers = [math.prod(math.factorial(c) for c in row) for row in counts[reps].tolist()]
    return _Orbits(of_row, first, type_of, reps, stabilizers, _alignments(seqs, seqs[reps[type_of]]))


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
    record carries those measured on one record of its type, which agree
    with its own to rounding.

    A record holds no dense state: ``state`` is the shared read-only I/D of a
    maximally mixed record.  A sandwiched record holds the sandwich m of its
    key type's representative and the permutation that carries that key to
    its own (None when it is the representative); each read forms its
    key's m by that permutation and returns (m rho m^dag) / denominator
    with its own product state rho and its type's denominator.
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
    # the shared I/D of a maximally mixed record, the representative's sandwich m of a smoothed one
    _matrix: np.ndarray | None = field(default=None, repr=False, compare=False)
    _system: CqEnsemble | None = field(default=None, repr=False, compare=False)
    _perm: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def state(self) -> np.ndarray:
        """The smoothed state; a sandwiched record forms a new array per read."""
        if self.distance is None:
            return self._matrix
        m = _permuted(self._matrix, self._perm, self._system.dim)
        rho = self._system.sequence_state(self.zipped)
        return _normalized(_sandwiched(m, rho), self.denominator)

    @property
    def zipped(self) -> tuple:
        return tuple(zip(self.xs, self.zs, self.ys))

    @property
    def epsilon(self) -> float:
        """Largest of the three projector overlap failures."""
        if self.overlap_failures is None:
            raise ValueError("atypical records carry no overlap failures")
        return max(self.overlap_failures)


class _TypeMarginals(Mapping):
    """Read-only marginals of one layer, stored once per key type.

    ``keys`` maps each key to its type and the permutation that carries the
    type's representative to it; ``parts`` holds per type the representative's
    sandwiched sum (None when it has none) and its maximally mixed mass.  A
    key's matrix is formed on read as (U part U^dag + mass I/D) / p(key).
    """

    def __init__(self, law: ClassicalDistribution, d: int, keys: dict, parts: list):
        self._law, self._d, self._keys, self._parts = law, d, keys, parts
        self._types: dict = {}
        for key, (t, _) in keys.items():
            first, count = self._types.get(t, (key, 0))
            self._types[t] = (first, count + 1)

    def __getitem__(self, key) -> np.ndarray:
        t, perm = self._keys[key]
        part, mass = self._parts[t]
        dim = self._d ** len(key)
        total = (0.0 if part is None else _permuted(part, perm, self._d)) + (mass / dim) * np.eye(
            dim, dtype=np.complex128
        )
        return total / sequence_probability(self._law, key)

    def __contains__(self, key) -> bool:
        return key in self._keys

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def types(self) -> list:
        """(representative key, number of keys) per key type; every key's
        matrix is its representative's up to a permutation unitary."""
        return list(self._types.values())


@dataclass(frozen=True)
class SmoothedEnsemble:
    """Primed state family with its declared-probability marginals.

    Marginals exist only after a complete enumeration; a caller-supplied
    triple list yields ``complete=False`` with the marginal fields None.
    ``pair_marginals`` and ``x_marginals`` are read-only Mappings that form
    each key's matrix on read; ``average`` is a dense matrix.
    ``symbol_rows`` holds each record's symbols as indices into
    ``system.dist.symbols``, one row per record.
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
    symbol_rows: np.ndarray | None = field(default=None, repr=False, compare=False)

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


def _symbol_rows(dist: ClassicalDistribution, n: int, triples: Sequence | None) -> np.ndarray:
    """One row of indices into ``dist.symbols`` per triple: every sequence
    over the support in ``itertools.product`` order, or the given triples."""
    if triples is None:
        support = np.flatnonzero(np.asarray(dist.probs) > 0)
        count = len(support) ** n
        if count > TRIPLE_CAP:
            raise ValueError(
                f"{count} sequence triples exceed the cap {TRIPLE_CAP}; "
                "pass an explicit triple list"
            )
        flat = np.arange(count)
        digits = [(flat // len(support) ** (n - 1 - j)) % len(support) for j in range(n)]
        return support[np.stack(digits, axis=1)]
    known = frozenset(dist.symbols)
    where = {s: i for i, s in enumerate(dist.symbols)}
    zipped = [_normalized_triple(t, n, known) for t in triples]
    return np.array([[where[s] for s in z] for z in zipped], dtype=np.intp).reshape(len(zipped), n)


def _ordered_sum(terms) -> np.ndarray | None:
    """Left-to-right sum of the matrices, None for none; a lone term is
    returned as it is."""
    total = None
    for term in terms:
        total = term if total is None else total + term
    return total


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
    processed and the marginal fields stay empty.  Either way the first key
    seen of each key type is its representative.
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
    symbols = dist.symbols
    complete = triples is None
    rows = _symbol_rows(dist, n, triples)
    rows.setflags(write=False)

    # every triple's probability (its symbols' in-order product), typicality
    # flag, joint type, key, key type and y-sequence, read off the index rows
    prob = np.ones(len(rows))
    for column in rows.T:
        prob = prob * np.asarray(dist.probs)[column]
    counts = _counts(rows, len(symbols))
    lo, hi = np.array(_typical_count_windows(dist.probs, n, delta), dtype=int).T
    typical = np.all((lo <= counts) & (counts <= hi), axis=1)
    joint, _ = _first_seen(counts)
    keys = _orbits(_ids(s[:2] for s in symbols)[rows])
    key_type = keys.type_of[keys.of_row]
    y_seq, y_first = _first_seen(_ids(s[2] for s in symbols)[rows])
    xs_of, zs_of = ([tuple(symbols[s][part] for s in r) for r in rows[keys.first].tolist()] for part in (0, 1))
    ys_of = [tuple(symbols[s][2] for s in r) for r in rows[y_first].tolist()]

    # Typical triples are measured key type by key type, each on its
    # representative key: a complete build reads every typical triple of
    # the representative in order (their sum makes up its marginal part), a
    # partial one the first triple of each joint type, carried back onto
    # the representative.
    if complete:
        todo = np.flatnonzero(typical & (keys.reps[key_type] == keys.of_row))
    else:
        candidates = np.flatnonzero(typical)
        todo = np.sort(candidates[np.unique(joint[candidates], return_index=True)[1]])
    todo = todo[np.argsort(key_type[todo], kind="stable")]

    pi_avg_dense = typical_projector(layers.rho_bar, n, 2.0 * delta).dense()
    # key type -> its representative's sandwich m; its sum of p rho_t / den
    sandwiches: dict = {}
    sums: dict = {}
    # joint type -> (denominator, overlap failures, trace distance or None)
    type_scalars: dict = {}
    for t, group in itertools.groupby(todo.tolist(), key=lambda i: int(key_type[i])):
        xs, zs = xs_of[keys.reps[t]], zs_of[keys.reps[t]]
        p_x = cond_typical_projector(layers.x_ens, xs, 6.0 * delta).dense()
        p_xz = cond_typical_projector(layers.pair_ens, tuple(zip(xs, zs)), 6.0 * delta).dense()
        m = pi_avg_dense @ p_x @ p_xz
        m.setflags(write=False)
        sandwiches[t] = m
        for i in group:
            seq = np.empty(n, dtype=np.intp)
            seq[list(keys.perms[keys.of_row[i]] or range(n))] = rows[i]
            rho_t = system.sequence_state(tuple(symbols[s] for s in seq))
            j = int(joint[i])
            if j not in type_scalars:
                failures = tuple(
                    min(1.0, max(0.0, 1.0 - _overlap(proj, rho_t)))
                    for proj in (pi_avg_dense, p_x, p_xz)
                )
                sand = _sandwiched(m, rho_t)
                denominator = float(np.real(np.trace(sand)))
                distance = None
                if denominator > DENOMINATOR_TOL:
                    distance = trace_distance(_normalized(sand, denominator), rho_t)
                type_scalars[j] = (denominator, failures, distance)
            denominator, _, distance = type_scalars[j]
            if complete and distance is not None:
                sums[t] = sums.get(t, 0.0) + (prob[i] / denominator) * rho_t

    # shared by every maximally mixed record, so no caller may write into it
    mixed = np.eye(dim, dtype=np.complex128) / float(dim)
    mixed.setflags(write=False)
    records: list = []
    index: dict = {}
    for i, (k, t, y, p, flag, j) in enumerate(
        zip(keys.of_row.tolist(), key_type.tolist(), y_seq.tolist(), prob.tolist(), typical.tolist(), joint.tolist())
    ):
        xs, zs, ys = xs_of[k], zs_of[k], ys_of[y]
        if not flag:
            record = TripleRecord(xs, zs, ys, p, False, _matrix=mixed)
        else:
            denominator, failures, distance = type_scalars[j]
            if distance is None:
                record = TripleRecord(
                    xs, zs, ys, p, True,
                    denominator=denominator,
                    overlap_failures=failures,
                    zero_denominator=True,
                    _matrix=mixed,
                )
            else:
                record = TripleRecord(
                    xs, zs, ys, p, True,
                    denominator=denominator,
                    overlap_failures=failures,
                    distance=distance,
                    _matrix=sandwiches[t],
                    _system=system,
                    _perm=keys.perms[k],
                )
        index[(xs, zs, ys)] = i
        records.append(record)

    if not complete:
        return SmoothedEnsemble(
            system, n, delta, layers, tuple(records), index, False, symbol_rows=rows
        )

    # A key's marginal part is its type representative's, permuted: by
    # linearity the representative's sandwiched records sum to
    # m (sum_t p_t rho_t / den_t) m^dag, and its maximally mixed records
    # enter as their mass, which is the same on every key of the type.
    sandwiched = np.zeros(int(joint.max()) + 1, dtype=bool)
    for j, (_, _, distance) in type_scalars.items():
        sandwiched[j] = distance is not None
    mixed_rows = ~sandwiched[joint]

    def mass(where: np.ndarray) -> float:
        return _ordered_total(prob[mixed_rows & where])

    pair_parts = []
    for t, k in enumerate(keys.reps.tolist()):
        part = None
        if t in sums:
            part = _normalized(_sandwiched(sandwiches[t], sums[t]), 1.0)
            part.setflags(write=False)
        pair_parts.append((part, mass(keys.of_row == k)))

    # the x-marginals likewise: one part per x type, summed over the keys of
    # its representative x-sequence in the order they were first seen
    xseqs = _orbits(_ids(s[0] for s in symbols)[rows])
    key_x = xseqs.of_row[keys.first]
    x_parts = []
    for r in xseqs.reps.tolist():
        terms = [(pair_parts[keys.type_of[k]][0], keys.perms[k]) for k in np.flatnonzero(key_x == r).tolist()]
        part = _ordered_sum(_permuted(mat, perm, d) for mat, perm in terms if mat is not None)
        if part is not None:
            part.setflags(write=False)
        x_parts.append((part, mass(xseqs.of_row == r)))

    # The average adds up every x-sequence's part.  An x type's parts are its
    # representative's permuted over the type, which the representative's
    # stabilizer fixes, so they sum to its symmetrization over all n!
    # permutations divided by the stabilizer's order.  The mixed records'
    # shared I/D enters once, as their mass over D.
    weighted = _ordered_sum(
        part / order for (part, _), order in zip(x_parts, xseqs.stabilizers) if part is not None
    )
    average = 0.0 if weighted is None else _symmetrized(weighted, n, d)
    average = average + (mass(True) / dim) * np.eye(dim, dtype=np.complex128)

    pair_keys = {tuple(zip(xs_of[k], zs_of[k])): (int(keys.type_of[k]), keys.perms[k]) for k in range(len(keys.first))}
    x_keys = {
        xs_of[keys.of_row[row]]: (int(xseqs.type_of[x]), xseqs.perms[x]) for x, row in enumerate(xseqs.first.tolist())
    }
    return SmoothedEnsemble(
        system,
        n,
        delta,
        layers,
        tuple(records),
        index,
        True,
        typical_mass=_ordered_total(prob[typical]),
        pair_marginals=_TypeMarginals(layers.p_xz, d, pair_keys, pair_parts),
        x_marginals=_TypeMarginals(layers.p_x, d, x_keys, x_parts),
        average=average,
        symbol_rows=rows,
    )


#: Product eigenvalues ``_mixed_distances`` holds at once; small blocks keep
#: its temporaries from raising peak memory while the records are alive.
MIXED_BATCH = 2**14


def _mixed_distances(system: CqEnsemble, rows: np.ndarray) -> np.ndarray:
    """``||I/D - rho_z||_1`` for the product state rho_z of each row z of
    indices into ``system.dist.symbols``, O(D) apiece.

    I/D commutes with the product state, so the difference is diagonal in
    the product eigenbasis with entries 1/D - prod_i lambda_{z_i, k_i}.
    A permutation of positions permutes those entries, so the distance
    depends only on the row's joint type: rows are grouped by their sorted
    form and one distance is taken per group.  Each symbol's spectrum is
    taken once; the products are formed for a block of sorted rows at a
    time, in the left-to-right order of the Kronecker product.
    """
    if len(rows) == 0:
        return np.zeros(0)
    sorted_rows = np.sort(rows, axis=1)
    of_type, first = _first_seen(sorted_rows)
    types = sorted_rows[first]
    used, inverse = np.unique(types, return_inverse=True)
    rows = inverse.reshape(types.shape)
    symbols = system.dist.symbols
    spectra = np.array([np.linalg.eigvalsh(require_hermitian(system.state(symbols[s]))) for s in used.tolist()])
    dim = spectra.shape[1] ** rows.shape[1]
    out = np.empty(len(rows))
    step = max(1, MIXED_BATCH // dim)
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        lam = spectra[block[:, 0]]
        for column in block.T[1:]:
            lam = (lam[:, :, None] * spectra[column][:, None, :]).reshape(len(block), -1)
        out[start : start + step] = np.sum(np.abs(1.0 / dim - lam), axis=1)
    return out[of_type]


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
    records, ``linf-pair``, ``linf-x`` and ``linf-average`` from one loop
    (one operator norm per typical key type, since every key's marginal is
    its type representative's up to a permutation unitary, and one per
    distinct matrix, since with z = x or a single z the pair and x rows
    form equal ones), and
    ``l1-global``; a row that cannot be evaluated is an informative
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
    for i, dist in zip(mixed, _mixed_distances(se.system, se.symbol_rows[mixed])):
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
        # (name, marginals or None for the average, law whose typical keys are checked, entropy, c)
        rows = (
            ("linf-pair", se.pair_marginals, layers.p_xz, layers.pair_ens.conditional_entropy(), c6),
            ("linf-x", se.x_marginals, layers.p_x, layers.x_ens.conditional_entropy(), c6),
            ("linf-average", None, None, entropy_bits(np.linalg.eigvalsh(layers.rho_bar)), c2),
        )
        from hashlib import blake2b  # imported here: only verification reads it

        norms: dict = {}

        def norm(m: np.ndarray) -> float:
            # one norm per distinct matrix: with z = x or a single z the pair
            # and x rows form equal matrices, found by the digest of their bytes
            digest = (m.shape, blake2b(np.ascontiguousarray(m)).digest())
            if digest not in norms:
                norms[digest] = operator_norm(m)
            return norms[digest]

        for name, marginals, mdist, h, c in rows:
            if marginals is None:
                vals, note = [norm(se.average)], ""
            else:
                # a key's marginal is its type representative's, permuted by a
                # unitary: one norm per typical key type
                kinds = [(key, size) for key, size in marginals.types() if is_typical(mdist, key, delta)]
                vals = [norm(marginals[key]) for key, _ in kinds]
                note = f"{sum(size for _, size in kinds)} typical marginals"
            bound = 4.0 * 2.0 ** (-n * (h - c))
            value = max(vals) if vals else 0.0
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
