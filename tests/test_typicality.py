"""Typicality tests.

Oracles here are independent enumerations written from the definitions (an
empirical-frequency window per symbol, zero-probability symbols excluded),
plus a handful of hand-derived values frozen before implementation.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cqlab.linalg import DimensionCapError, Projector, _product_columns, hermitian_eig, psd_leq, tensor_product
from cqlab.typicality import (
    _conditional_basis,
    _group_mask,
    _kept_flat,
    _snap_eigenvalues,
    _typical_count_windows,
    ClassicalDistribution,
    CqEnsemble,
    TypicalityParams,
    cond_typical_projector,
    is_typical,
    typical_projector,
    typical_set,
    typicality_threshold_n,
    verify_averaged_state_overlaps,
    verify_conditional_typicality,
    verify_sequence_typicality,
    verify_state_typicality,
)

KET0 = np.array([1.0, 0.0], dtype=complex)
KETP = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def proj(v):
    return np.outer(v, np.conj(v))


def oracle_typical(probs, seq, delta):
    """Definition transcribed directly: frequency window per symbol index."""
    n = len(seq)
    for sym, p in enumerate(probs):
        cnt = sum(1 for s in seq if s == sym)
        if p == 0:
            if cnt:
                return False
        elif abs(cnt / n - p) > delta * p + 1e-12:
            return False
    return True


def test_typical_set_uniform_binary_n2():
    d = ClassicalDistribution((0, 1), (0.5, 0.5))
    assert sorted(typical_set(d, 2, 0.5)) == [(0, 1), (1, 0)]


def test_typical_set_biased_n4():
    # p = (0.75, 0.25), delta = 0.3: windows force exactly three 'a' and one
    # 'b', so the typical set is the four arrangements of aaab.
    d = ClassicalDistribution(("a", "b"), (0.75, 0.25))
    got = typical_set(d, 4, 0.3)
    assert len(got) == 4
    assert all(seq.count("a") == 3 for seq in got)


def test_typical_boundary_kept():
    # uniform binary, n = 3, delta = 1/3: |1/3 - 1/2| = delta/2 exactly
    d = ClassicalDistribution((0, 1), (0.5, 0.5))
    assert is_typical(d, (0, 0, 1), 1.0 / 3.0)
    assert not is_typical(d, (0, 0, 0), 1.0 / 3.0)


def test_point_mass_all_checks_trivial():
    d = ClassicalDistribution(("z", "w"), (1.0, 0.0))
    assert typical_set(d, 5, 0.4) == [("z",) * 5]
    assert not is_typical(d, ("z", "w", "z"), 0.4)


def test_is_typical_matches_oracle_bulk():
    rng = np.random.default_rng(21)
    for _ in range(40):
        k = int(rng.integers(2, 4))
        raw = rng.random(k)
        probs = raw / raw.sum()
        d = ClassicalDistribution(tuple(range(k)), tuple(probs))
        n = int(rng.integers(3, 9))
        delta = float(rng.uniform(0.1, 0.9))
        for _ in range(20):
            seq = tuple(rng.integers(0, k, size=n).tolist())
            assert is_typical(d, seq, delta) == oracle_typical(probs, seq, delta)


def compositions(n, k):
    """One sequence per count vector of length-n sequences over range(k)."""
    for cut in itertools.combinations(range(n + k - 1), k - 1):
        counts = [b - a - 1 for a, b in zip((-1,) + cut, cut + (n + k - 1,))]
        yield tuple(itertools.chain.from_iterable([sym] * c for sym, c in enumerate(counts)))


@pytest.mark.parametrize(
    "probs, n, delta",
    [
        ((0.5, 0.25, 0.25, 0.0), 8, 0.5),  # n*delta*p = 2, 1, 1: every window edge an integer
        ((0.75, 0.25), 4, 1.0 / 3.0),  # n*delta*p = 1 up to the rounding of 1/3
        ((0.5, 0.0, 0.5), 6, 1.0 / 3.0),
        ((0.6, 0.4), 5, 0.5),
        ((0.25, 0.75, 0.0), 8, 2.0),  # a scaled slack above 1 opens the lower edge
    ],
)
def test_is_typical_matches_oracle_at_window_edges(probs, n, delta):
    d = ClassicalDistribution(tuple(range(len(probs))), probs)
    seen = set()
    for seq in compositions(n, len(probs)):
        got = is_typical(d, seq, delta)
        assert got == oracle_typical(probs, seq, delta), seq
        seen.add(got)
    assert seen == {True, False}


def test_window_edges_are_closed():
    d = ClassicalDistribution((0, 1, 2, 3), (0.5, 0.25, 0.25, 0.0))
    assert is_typical(d, (0, 0, 1, 1, 1, 2, 2, 2), 0.5)  # counts 2, 3, 3: both edges hit
    assert is_typical(d, (0,) * 6 + (1, 2), 0.5)  # count 6 = upper edge of symbol 0
    assert not is_typical(d, (0,) * 7 + (1,), 0.5)  # count 7 is past it
    assert not is_typical(d, (0,) * 4 + (1, 1, 2, 3), 0.5)  # a zero-probability symbol occurs


def test_is_typical_long_sequence_no_enumeration():
    d = ClassicalDistribution((0, 1), (0.5, 0.5))
    seq = tuple([0, 1] * 25)
    assert is_typical(d, seq, 0.1)
    with pytest.raises(ValueError, match="exceeds the cap"):
        typical_set(d, 50, 0.1)  # 2^50 sequences > SEQUENCE_CAP


def test_threshold_worked_values():
    # p_min alone (sequences): p_min 1/2, delta 1/4, |X| = 2, eps = 0.1:
    # ceil(2 * 2 * 16 * log2(20)) = 277
    p = TypicalityParams(0.25, 0.1, (2,))
    assert typicality_threshold_n(p, p_min=0.5) == 277
    # both minima (joint) with q_min = 1/2 and context |B||X| = 4, eps = 0.1:
    # ceil(4 * 16 * 2 * 2 * log2(40)) = 1363
    pj = TypicalityParams(0.25, 0.1, (2, 2))
    assert typicality_threshold_n(pj, p_min=0.5, q_min=0.5) == 1363
    # q_min alone (states) mirrors p_min alone; neither is refused
    assert typicality_threshold_n(p, q_min=0.5) == 277
    with pytest.raises(ValueError, match="p_min, q_min or both"):
        typicality_threshold_n(p)


def test_c_correction_value():
    p = TypicalityParams(0.25, 0.1, (2,))
    assert abs(p.c() - (0.25 * 1.0 - 0.25 * math.log2(0.25))) < 1e-12
    # scaled variants may push the window parameter past 1
    assert p.c(6.0) == pytest.approx(1.5 * 1.0 - 1.5 * math.log2(1.5))


def test_typical_projector_maximally_mixed():
    rho = 0.5 * np.eye(2)
    for delta in (0.2, 0.5, 0.9):
        p = typical_projector(rho, 2, delta)
        assert p.rank == 2
        assert np.allclose(p.dense(), np.diag([0.0, 1.0, 1.0, 0.0]), atol=1e-12)
    p3 = typical_projector(rho, 3, 0.2)
    assert p3.rank == 0


def test_typical_projector_pure_state():
    p = typical_projector(proj(KETP), 3, 0.3)
    assert p.rank == 1
    expected = tensor_product([proj(KETP)] * 3)
    assert np.allclose(p.dense(), expected, atol=1e-12)


def test_typical_projector_matches_enumeration_oracle():
    rng = np.random.default_rng(33)
    for _ in range(10):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        n = int(rng.integers(2, 6))
        delta = float(rng.uniform(0.15, 0.8))
        p = typical_projector(rho, n, delta)
        w, v = np.linalg.eigh(rho)
        w = w[::-1]
        kept = [
            t
            for t in itertools.product(range(2), repeat=n)
            if oracle_typical(w, t, delta)
        ]
        # the projector is the sum of the kept product eigenprojectors
        _, v = hermitian_eig(rho)
        oracle = np.zeros((2**n, 2**n), dtype=complex)
        for t in kept:
            oracle += tensor_product([np.outer(v[:, i], v[:, i].conj()) for i in t])
        assert np.allclose(p.dense(), oracle, atol=1e-12)
        assert p.rank == len(kept)
        # eigenvalue sandwich holds on the support for every tested case
        h = -sum(x * math.log2(x) for x in w if x > 1e-14)
        c = delta * 1.0 - delta * math.log2(delta)
        for t in kept:
            mass = float(np.prod([w[i] for i in t]))
            assert 2.0 ** (-n * (h + c)) * (1 - 1e-9) <= mass
            assert mass <= 2.0 ** (-n * (h - c)) * (1 + 1e-9)
        assert p.rank <= 2.0 ** (n * (h + c)) * (1 + 1e-9)


def test_typical_projector_monotone_in_delta():
    rng = np.random.default_rng(41)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    p_small = typical_projector(rho, 3, 0.2)
    p_big = typical_projector(rho, 3, 0.6)
    assert p_small.rank <= p_big.rank
    assert psd_leq(p_small.dense(), p_big.dense())


def test_typical_projector_commutes_with_power():
    rng = np.random.default_rng(55)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    p = typical_projector(rho, 4, 0.4)
    power = tensor_product([rho] * 4)
    d = p.dense()
    assert np.max(np.abs(d @ power - power @ d)) < 1e-10


def test_typical_projector_respects_cap():
    with pytest.raises(DimensionCapError):
        typical_projector(0.5 * np.eye(2), 13, 0.3)


def bb84_ensemble():
    dist = ClassicalDistribution((0, 1), (0.5, 0.5))
    return CqEnsemble(dist, {0: proj(KET0), 1: proj(KETP)})


def test_cond_typical_projector_pure_states():
    ens = bb84_ensemble()
    seq = (0, 1, 1, 0)
    p = cond_typical_projector(ens, seq, 0.3)
    assert p.rank == 1
    expected = tensor_product([ens.state(s) for s in seq])
    assert np.allclose(p.dense(), expected, atol=1e-12)


def test_cond_typical_projector_grouping_matches_direct_product():
    # For a sorted sequence the conditional projector is literally the tensor
    # product of per-symbol typical projectors; check against that directly.
    rng = np.random.default_rng(8)
    states = {}
    for s in (0, 1):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = a @ a.conj().T
        states[s] = m / np.trace(m).real
    ens = CqEnsemble(ClassicalDistribution((0, 1), (0.5, 0.5)), states)
    seq = (0, 0, 1, 1)
    delta = 0.5
    p = cond_typical_projector(ens, seq, delta)
    block0 = typical_projector(states[0], 2, delta).dense()
    block1 = typical_projector(states[1], 2, delta).dense()
    assert np.allclose(p.dense(), np.kron(block0, block1), atol=1e-11)


def test_cond_typical_projector_permutation_covariant():
    rng = np.random.default_rng(9)
    states = {}
    for s in (0, 1):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = a @ a.conj().T
        states[s] = m / np.trace(m).real
    ens = CqEnsemble(ClassicalDistribution((0, 1), (0.5, 0.5)), states)
    seq = (0, 1, 0, 1)
    perm = [2, 0, 3, 1]  # position j of the permuted sequence reads seq[perm[j]]
    permuted = tuple(seq[j] for j in perm)
    p1 = cond_typical_projector(ens, seq, 0.6)
    p2 = cond_typical_projector(ens, permuted, 0.6)
    # permuting the inputs permutes the tensor positions the same way
    moved = p1.dense().reshape((2,) * 8).transpose(perm + [4 + j for j in perm]).reshape(16, 16)
    assert np.allclose(p2.dense(), moved, atol=1e-12)


def old_typical_indices(groups, n, delta):
    """The earlier enumeration: every tuple of each group filtered by its
    count windows, then the Cartesian product of the groups scattered back
    to their positions and sorted."""
    keeps = []
    for pos, q in groups:
        windows = _typical_count_windows(tuple(q), len(pos), delta)
        kept = []
        for t in itertools.product(range(len(q)), repeat=len(pos)):
            counts = [t.count(i) for i in range(len(q))]
            if all(lo <= c <= hi for c, (lo, hi) in zip(counts, windows)):
                kept.append(t)
        keeps.append(kept)
    out = set()
    for combo in itertools.product(*keeps):
        full = [0] * n
        for (pos, _), sub in zip(groups, combo):
            for j, i in zip(pos, sub):
                full[j] = i
        out.add(tuple(full))
    return sorted(out)


# label weights: repeats give degenerate spectra, zeros give unused labels
label_vectors = st.lists(st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 5.0]), min_size=3, max_size=3).filter(any)


@given(
    d=st.integers(min_value=2, max_value=3),
    n=st.integers(min_value=1, max_value=6),
    delta=st.floats(min_value=0.01, max_value=1.99),
    weights=st.lists(label_vectors, min_size=1, max_size=3),
    data=st.data(),
)
def test_typical_indices_match_the_tuple_enumeration(d, n, delta, weights, data):
    labels = []
    for w in weights:
        q = np.sort(np.asarray(w[:d]) / sum(w[:d]) if any(w[:d]) else np.full(d, 1.0 / d))[::-1]
        labels.append(q)
    owner = data.draw(st.lists(st.integers(0, len(labels) - 1), min_size=n, max_size=n))
    groups = [([j for j in range(n) if owner[j] == g], labels[g]) for g in sorted(set(owner))]
    flat = _kept_flat(groups, d, n, delta)
    assert np.all(np.diff(flat) > 0)
    kept = np.array(np.unravel_index(flat, (d,) * n), dtype=np.intp).T.reshape(len(flat), n)
    assert [tuple(int(i) for i in row) for row in kept] == old_typical_indices(groups, n, delta)
    # each group's mask is its own tuple enumeration, read-only
    for pos, q in groups:
        mask = _group_mask(tuple(q), len(pos), delta)
        assert not mask.flags.writeable
        assert [tuple(int(i) for i in t) for t in np.argwhere(mask)] == old_typical_indices([(range(len(pos)), q)], len(pos), delta)
    # in the computational basis the projector is diagonal on exactly the kept rows
    p = Projector(_product_columns([np.eye(d, dtype=complex)] * n, flat))
    diag = np.zeros(d**n)
    diag[flat] = 1.0
    assert p.rank == len(kept)
    assert np.array_equal(p.dense(), np.diag(diag).astype(complex))


def grid_layer_columns(factors, groups, d, n, delta) -> np.ndarray:
    """The earlier layer build: the full d^n x n index grid counted per group,
    its kept rows sorted and deduplicated, and the columns gathered one
    position at a time in the order of ``np.kron``."""
    grid = np.indices((d,) * n).reshape(n, d**n).T
    keep = np.ones(len(grid), dtype=bool)
    for pos, q in groups:
        sub = grid[:, list(pos)]
        for label, (lo, hi) in enumerate(_typical_count_windows(tuple(q), len(pos), delta)):
            count = np.count_nonzero(sub == label, axis=1)
            keep &= (lo <= count) & (count <= hi)
    idx = np.unique(grid[keep], axis=0)
    cols = np.ones((1, len(idx)), dtype=np.complex128)
    for f, column in zip(factors, idx.T):
        cols = np.multiply(cols[:, None, :], f[None, :, column], order="C").reshape(len(cols) * len(f), len(idx))
    return cols


def spectrum_state(rng, d: int, kind: str) -> np.ndarray:
    """A d x d density matrix: pure, rank-deficient (rank d - 1), degenerate
    (I/d) or of full rank with a random spectrum."""
    if kind == "degenerate":
        return np.eye(d, dtype=complex) / d
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    w = {"pure": [1.0] + [0.0] * (d - 1), "rank-deficient": list(rng.uniform(0.1, 1.0, d - 1)) + [0.0]}.get(
        kind, list(rng.uniform(0.1, 1.0, d))
    )
    w = np.asarray(w) / np.sum(w)
    return (u * w) @ u.conj().T


SPECTRUM_KINDS = ("pure", "rank-deficient", "degenerate", "full")


@given(
    d=st.integers(2, 3),
    n=st.integers(1, 6),
    delta=st.sampled_from((0.05, 0.3, 0.99, 2.0 * 0.99, 6.0 * 0.99)),
    kinds=st.lists(st.sampled_from(SPECTRUM_KINDS), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_layers_are_bit_identical_to_the_grid_build(d, n, delta, kinds, seed, data):
    rng = np.random.default_rng(seed)
    states = {s: spectrum_state(rng, d, kind) for s, kind in enumerate(kinds)}
    ens = CqEnsemble(ClassicalDistribution(tuple(states), (1.0 / len(states),) * len(states)), states)
    seq = tuple(data.draw(st.lists(st.sampled_from(sorted(states)), min_size=n, max_size=n)))
    factors, groups = _conditional_basis(ens, seq)
    cols = cond_typical_projector(ens, seq, delta).support_columns()
    assert cols.shape[0] == d**n
    assert np.array_equal(cols, grid_layer_columns(factors, groups, d, n, delta))
    w, v = hermitian_eig(states[0])
    cols = typical_projector(states[0], n, delta).support_columns()
    assert np.array_equal(cols, grid_layer_columns([v] * n, [(range(n), _snap_eigenvalues(w))], d, n, delta))


def test_empty_typical_set_gives_the_zero_projector():
    # eigenvalues (0.9, 0.1) at n = 2: the 0.9-label window [1.62, 1.98] holds no count
    p = typical_projector(np.diag([0.9, 0.1]).astype(complex), 2, 0.1)
    assert p.rank == 0
    assert p.support_columns().shape == (4, 0)
    assert np.array_equal(p.dense(), np.zeros((4, 4), dtype=complex))
    assert p.trace_with(np.eye(4) / 4) == 0.0


def test_trace_with_does_not_depend_on_call_history():
    # Tr[P rho] reads the same bits whether or not dense() was called first
    rng = np.random.default_rng(1)
    for _ in range(30):
        states = {}
        for s in (0, 1):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m = a @ a.conj().T
            states[s] = m / np.trace(m).real
        ens = CqEnsemble(ClassicalDistribution((0, 1), (0.5, 0.5)), states)
        seq = tuple(int(s) for s in rng.integers(0, 2, size=8))
        g = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        p = cond_typical_projector(ens, seq, 0.5)
        before = p.trace_with(rho)
        p.dense()
        assert p.trace_with(rho) == before


def test_cond_typical_projector_commutes_with_sequence_state():
    ens = bb84_ensemble()
    seq = (0, 1, 0)
    p = cond_typical_projector(ens, seq, 0.4)
    rho = ens.sequence_state(seq)
    d = p.dense()
    assert np.max(np.abs(d @ rho - rho @ d)) < 1e-10


def test_verify_sequence_report():
    d = ClassicalDistribution((0, 1), (0.5, 0.5))
    params = TypicalityParams(0.8, 0.25, (2,))
    checks = verify_sequence_typicality(d, 10, params)
    # delta = 0.8 keeps all counts 1..9; only the two constant words fall out
    assert checks["mass"].value == pytest.approx(1.0 - 2.0 / 1024.0)
    assert checks["mass"].passed
    assert checks["sandwich"].passed
    assert checks["cardinality"].passed


def test_verify_state_report():
    avg = 0.5 * proj(KET0) + 0.5 * proj(KETP)
    params = TypicalityParams(0.8, 0.3, (2,))
    checks = verify_state_typicality(avg, 8, params)
    assert checks["sandwich"].passed
    assert checks["rank"].passed
    assert checks["commutes"].passed
    assert checks["mass"].value == pytest.approx(
        typical_projector(avg, 8, 0.8).trace_with(tensor_product([avg] * 8))
    )


def test_verify_conditional_report_pure():
    ens = bb84_ensemble()
    seq = (0, 1, 0, 1)
    params = TypicalityParams(0.5, 0.2, (2, 2))
    checks = verify_conditional_typicality(ens, seq, params)
    # pure branch states make the conditional mass exactly 1
    assert checks["mass"].value == pytest.approx(1.0)
    assert checks["mass"].passed
    assert checks["sandwich"].passed
    assert checks["rank"].passed


@pytest.mark.parametrize(
    "params",
    # threshold 1, so the mass is promised at n = 4; then a threshold far above 4
    [TypicalityParams(0.99, 0.99, (1,)), TypicalityParams(0.5, 0.2, (2, 2))],
)
@pytest.mark.parametrize("seq, typical", [((0, 1, 0, 1), True), ((0, 0, 0, 0), False)])
def test_conditional_report_informative_flags(params, seq, typical):
    ens = bb84_ensemble()
    assert is_typical(ens.dist, seq, params.delta) == typical
    threshold = typicality_threshold_n(params, p_min=ens.dist.p_min, q_min=ens.q_min())
    checks = verify_conditional_typicality(ens, seq, params)
    # atypical input: nothing is promised; typical input: only the mass waits for the threshold
    assert checks["mass"].informative == (len(seq) < threshold or not typical)
    assert checks["sandwich"].informative == (not typical)
    assert checks["rank"].informative == (not typical)
    assert checks["mass"].note == f"threshold n >= {threshold}; input typical: {typical}"


def test_typicality_bounds_outside_their_range_are_vacuous():
    # at delta = 0.3 over (2, 2) contexts c = 1.12 exceeds the entropy of a
    # fair coin, of I/2 and of pure branch states, so each sandwich ceiling
    # 2^{-n(h - c)} is at least 1 and each size bound 2^{n(h + c)} at least 2^n
    params = TypicalityParams(0.3, 0.1, (2, 2))
    reports = (
        (verify_sequence_typicality(ClassicalDistribution((0, 1), (0.5, 0.5)), 8, params), "cardinality"),
        (verify_state_typicality(np.eye(2, dtype=complex) / 2, 6, params), "rank"),
        (verify_conditional_typicality(bb84_ensemble(), (0, 1, 0, 1, 0, 1), params), "rank"),
    )
    for checks, size in reports:
        assert checks["sandwich"].vacuous and checks[size].vacuous and not checks["mass"].vacuous
        assert checks["sandwich"].passed and checks[size].passed
        assert checks[size].bound >= 2.0**6


def test_typicality_bounds_inside_their_range_bind():
    # a 0.9/0.1 law at delta = 0.05 over one binary context: h = 0.469 and
    # c = 0.266, so the ceiling 2^{-n(h - c)} < 1 and the bound 2^{n(h + c)} < 2^n
    params = TypicalityParams(0.05, 0.1, (2,))
    reports = (
        (verify_sequence_typicality(ClassicalDistribution((0, 1), (0.9, 0.1)), 20, params), "cardinality", 2**20),
        (verify_state_typicality(np.diag([0.9, 0.1]).astype(complex), 10, params), "rank", 2**10),
    )
    for checks, size, space in reports:
        assert not any(c.vacuous for c in checks.values())
        assert checks["sandwich"].passed and checks[size].passed
        assert checks[size].value < checks[size].bound < space


def test_state_report_rank_is_the_typical_projector_rank():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    generic = g @ g.conj().T / np.trace(g @ g.conj().T).real
    params = TypicalityParams(0.4, 0.3, (3,))
    for rho in (generic, np.eye(3, dtype=complex) / 3, 0.5 * proj(KET0) + 0.5 * proj(KETP)):
        for n in (1, 3, 5):
            checks = verify_state_typicality(rho, n, params)
            assert checks["rank"].value == typical_projector(rho, n, params.delta).rank


def test_conditional_basis_snaps_degenerate_labels():
    # degenerate spectra: the near-equal pair is snapped to one shared label
    dist = ClassicalDistribution((0, 1, 2), (0.25, 0.25, 0.5))
    states = {
        0: np.diag([0.5 + 1e-14, 0.5 - 1e-14]).astype(complex),
        1: proj(KETP),
        2: 0.5 * proj(KET0) + 0.5 * proj(KETP),
    }
    ens = CqEnsemble(dist, states)
    seq = (2, 0, 1, 0, 2)
    factors, groups = _conditional_basis(ens, seq)
    assert len(factors) == len(seq)
    assert [pos for pos, _ in groups] == [[0, 4], [1, 3], [2]]
    assert np.array_equal(groups[1][1], [0.5, 0.5])
    assert np.allclose(groups[2][1], [1.0, 0.0], atol=1e-12)


def test_averaged_state_overlap_report():
    # two-sender product ensemble with BB84 states indexed by (x, y)
    px = ClassicalDistribution((0, 1), (2.0 / 3.0, 1.0 / 3.0))
    py = ClassicalDistribution((0, 1), (0.5, 0.5))
    states = {
        (0, 0): proj(KET0),
        (0, 1): proj(KETP),
        (1, 0): proj(np.array([0.0, 1.0], dtype=complex)),
        (1, 1): proj(np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)),
    }
    pair = CqEnsemble(px.product(py), states)
    x_states = {
        x: 0.5 * states[(x, 0)] + 0.5 * states[(x, 1)] for x in (0, 1)
    }
    x_ens = CqEnsemble(px, x_states)
    params = TypicalityParams(0.25, 0.3, (2, 4))
    xn = (0, 0, 1, 0, 1, 0)
    yn = (0, 1, 0, 1, 1, 0)
    checks = verify_averaged_state_overlaps(pair, x_ens, xn, yn, params)
    assert 0.0 <= checks["average_overlap"].value <= 1.0 + 1e-12
    assert 0.0 <= checks["conditional_overlap"].value <= 1.0 + 1e-12


def test_distribution_validation():
    with pytest.raises(ValueError):
        ClassicalDistribution((0, 1), (0.6, 0.6))
    with pytest.raises(ValueError):
        ClassicalDistribution((0, 0), (0.5, 0.5))
    with pytest.raises(ValueError):
        ClassicalDistribution((0, 1), (1.2, -0.2))
    # NaN compares false against every bound, so it needs its own check
    for probs in ((math.nan, 1.0), (math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            ClassicalDistribution((0, 1), probs)
