"""Tests for the projector-sandwich smoothing construction."""

import itertools
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqlab import smoothing
from cqlab.linalg import trace_distance
from cqlab.smoothing import (
    _mixed_distances,
    smoothed_states,
    triple_layers,
    verify_smoothing_bounds,
)
from cqlab.typicality import (
    ClassicalDistribution,
    CqEnsemble,
    cond_typical_projector,
    is_typical,
    typical_projector,
)

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]])
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]])
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]])
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]])


def triple_system(p_x, z_rows, p_y, state_fn):
    """Assemble the (x, z, y)-keyed ensemble with joint p(x)p(z|x)p(y)."""
    symbols, probs, states = [], [], {}
    for x, px in p_x.items():
        for z, pz in z_rows[x].items():
            for y, py in p_y.items():
                symbols.append((x, z, y))
                probs.append(px * pz * py)
                states[(x, z, y)] = state_fn(x, z, y)
    dist = ClassicalDistribution(tuple(symbols), tuple(probs))
    return CqEnsemble(dist, states)


def diag_state(*entries):
    return np.diag(np.array(entries, dtype=float))


def classical_truncation_oracle(system, n, delta):
    """Diagonal-case reference: count-window truncation of output strings.

    Valid only when every state is diagonal with distinct entries (and so
    are all the layer averages); selection windows then act directly on the
    computational-basis letters.
    """
    layers = triple_layers(system)
    d = system.dim
    q_bar = np.real(np.diag(layers.rho_bar))
    q_x = {x: np.real(np.diag(layers.x_ens.state(x))) for x in layers.p_x.support}
    q_xz = {s: np.real(np.diag(layers.pair_ens.state(s))) for s in layers.p_xz.support}
    for vec in [q_bar, *q_x.values(), *q_xz.values()]:
        gaps = np.abs(np.subtract.outer(vec, vec))
        assert np.all(gaps[~np.eye(len(vec), dtype=bool)] > 1e-6), "oracle needs distinct entries"

    def window_ok(counts, m, q, slack):
        # exact-boundary counts are inside the closed window; grant 1e-9 grace
        for b, p in enumerate(q):
            c = counts.get(b, 0)
            if p <= 0:
                if c:
                    return False
            elif abs(c / m - p) > slack * p + 1e-9:
                return False
        return True

    def smooth_one(zipped):
        xs = tuple(s[0] for s in zipped)
        diag = np.ones(1)
        for sym in zipped:
            diag = np.kron(diag, np.real(np.diag(system.state(sym))))
        kept = np.zeros(d**n)
        for i, letters in enumerate(itertools.product(range(d), repeat=n)):
            counts = {}
            for b in letters:
                counts[b] = counts.get(b, 0) + 1
            ok = window_ok(counts, n, q_bar, 2 * delta)
            for x in set(xs):
                pos = [j for j, v in enumerate(xs) if v == x]
                sub = {}
                for j in pos:
                    sub[letters[j]] = sub.get(letters[j], 0) + 1
                ok = ok and window_ok(sub, len(pos), q_x[x], 6 * delta)
            for pair in {(s[0], s[1]) for s in zipped}:
                pos = [j for j, s in enumerate(zipped) if (s[0], s[1]) == pair]
                sub = {}
                for j in pos:
                    sub[letters[j]] = sub.get(letters[j], 0) + 1
                ok = ok and window_ok(sub, len(pos), q_xz[pair], 6 * delta)
            kept[i] = 1.0 if ok else 0.0
        total = float(np.sum(kept * diag))
        if total <= 1e-14:
            return np.eye(d**n) / d**n
        return np.diag(kept * diag / total)

    return smooth_one


STATE_KINDS = ("pure", "rank-deficient", "degenerate", "generic")


def kind_state(d, kind, seed):
    """A d-level state with a spectrum of the given kind in a random eigenbasis.

    Distinct seeds give mutually non-commuting states; a degenerate qubit
    state is I/2, a degenerate qutrit has a doubled eigenvalue.  A
    "diagonal" state has a generic spectrum in the computational basis.
    """
    rng = np.random.default_rng(seed)
    if kind == "pure":
        w = np.eye(d)[0]
    elif kind == "rank-deficient":
        w = np.append(rng.uniform(0.1, 1.0, size=d - 1), 0.0)
    elif kind == "degenerate":
        w = np.ones(d)
        w[0] = 1.0 if d == 2 else rng.uniform(0.1, 3.0)
    else:
        w = rng.uniform(0.05, 1.0, size=d)
    if kind == "diagonal":
        return np.diag(w / w.sum()).astype(complex)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    rho = (q * (w / w.sum())) @ q.conj().T
    return (rho + rho.conj().T) / 2.0


def pure_system():
    # two support symbols so that n = 4 admits typical sequences
    return triple_system(
        {0: 0.5, 1: 0.5},
        {0: {0: 1.0}, 1: {1: 1.0}},
        {0: 1.0},
        lambda x, z, y: PLUS,
    )


def diagonal_system():
    entries = {
        (0, 0): (0.86, 0.14),
        (0, 1): (0.32, 0.68),
        (1, 0): (0.57, 0.43),
        (1, 1): (0.23, 0.77),
    }
    return triple_system(
        {0: 0.5, 1: 0.5},
        {0: {0: 1.0}, 1: {1: 1.0}},
        {0: 0.5, 1: 0.5},
        lambda x, z, y: diag_state(*entries[(x, y)]),
    )


def bb84_system():
    states = {(0, 0): KET0, (1, 0): PLUS, (0, 1): KET1, (1, 1): MINUS}
    return triple_system(
        {0: 2.0 / 3.0, 1: 1.0 / 3.0},
        {0: {0: 1.0}, 1: {1: 1.0}},
        {0: 0.5, 1: 0.5},
        lambda x, z, y: states[(x, y)],
    )


def layered_system():
    # z genuinely random given x = 0, so the x-layer and pair-layer differ
    entries = {
        (0, 0, 0): (0.9, 0.1),
        (0, 0, 1): (0.8, 0.2),
        (0, 1, 0): (0.3, 0.7),
        (0, 1, 1): (0.2, 0.8),
        (1, 0, 0): (0.6, 0.4),
        (1, 0, 1): (0.55, 0.45),
    }
    return triple_system(
        {0: 2.0 / 3.0, 1: 1.0 / 3.0},
        {0: {0: 0.5, 1: 0.5}, 1: {0: 1.0}},
        {0: 0.5, 1: 0.5},
        lambda x, z, y: diag_state(*entries[(x, z, y)]),
    )


def test_identical_pure_states_smoothing_is_identity():
    system = pure_system()
    se = smoothed_states(system, 4, 0.3)
    saw_typical = saw_atypical = False
    for r in se.records:
        if r.typical:
            saw_typical = True
            rho = system.sequence_state(r.zipped)
            assert trace_distance(r.state, rho) < 1e-12
            assert abs(r.denominator - 1.0) < 1e-12
            assert max(r.overlap_failures) < 1e-12
        else:
            saw_atypical = True
    assert saw_typical and saw_atypical


def test_atypical_branch_is_exactly_maximally_mixed():
    se = smoothed_states(pure_system(), 4, 0.3)
    mixed = np.eye(16) / 16.0
    flagged = [r for r in se.records if not r.typical]
    assert flagged
    for r in flagged:
        assert np.array_equal(r.state, mixed)


def test_diagonal_matches_classical_truncation_oracle():
    system = diagonal_system()
    n, delta = 4, 0.25
    se = smoothed_states(system, n, delta)
    oracle = classical_truncation_oracle(system, n, delta)
    checked = 0
    for r in se.records:
        if r.typical and not r.zero_denominator:
            expected = oracle(r.zipped)
            assert np.max(np.abs(r.state - expected)) < 1e-9
            checked += 1
    assert checked > 0


def test_layered_sandwich_matches_oracle():
    system = layered_system()
    n, delta = 6, 0.35
    support = system.dist.support
    typical_pick = tuple(zip(*support))
    atypical_pick = tuple(zip(*[support[0]] * n))
    se = smoothed_states(system, n, delta, triples=[typical_pick, atypical_pick])
    rec = se.record_for(*typical_pick)
    assert rec.typical and not rec.zero_denominator
    oracle = classical_truncation_oracle(system, n, delta)
    assert np.max(np.abs(rec.state - oracle(rec.zipped))) < 1e-9
    other = se.record_for(*atypical_pick)
    assert not other.typical
    assert np.array_equal(other.state, np.eye(64) / 64.0)


def test_marginal_consistency():
    system = diagonal_system()
    se = smoothed_states(system, 4, 0.25)
    pair_sums, x_sums = {}, {}
    avg = np.zeros((16, 16), dtype=np.complex128)
    for r in se.records:
        if r.probability == 0:
            continue
        pair_sums.setdefault(tuple(zip(r.xs, r.zs)), []).append((r.probability, r.state))
        x_sums.setdefault(r.xs, []).append((r.probability, r.state))
        avg += r.probability * r.state
    for key, terms in pair_sums.items():
        w = math.prod(se.layers.p_xz.prob(p) for p in key)
        manual = sum(p * s for p, s in terms) / w
        assert np.max(np.abs(manual - se.pair_marginals[key])) < 1e-10
    for xs, terms in x_sums.items():
        w = math.prod(se.layers.p_x.prob(x) for x in xs)
        manual = sum(p * s for p, s in terms) / w
        assert np.max(np.abs(manual - se.x_marginals[xs])) < 1e-10
    assert np.max(np.abs(avg - se.average)) < 1e-10
    recon = np.zeros_like(avg)
    for xs, mat in se.x_marginals.items():
        recon += math.prod(se.layers.p_x.prob(x) for x in xs) * mat
    assert np.max(np.abs(recon - se.average)) < 1e-10
    assert abs(sum(r.probability for r in se.records) - 1.0) < 1e-9


@given(
    d=st.sampled_from((2, 3)),
    kinds=st.lists(st.sampled_from(STATE_KINDS), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_closed_form_mixed_distance_matches_dense_oracle(d, kinds, seed, data):
    symbols = tuple(range(len(kinds)))
    states = {s: kind_state(d, kind, (seed, s)) for s, kind in zip(symbols, kinds)}
    system = CqEnsemble(ClassicalDistribution(symbols, (1.0 / len(symbols),) * len(symbols)), states)
    n = data.draw(st.integers(1, 4), label="n")
    seqs = data.draw(st.lists(st.tuples(*[st.sampled_from(symbols)] * n), min_size=1, max_size=4), label="seqs")
    # one sequence per block, or all of them in one block
    batch = data.draw(st.sampled_from((1, smoothing.MIXED_BATCH)), label="batch")
    rows = np.array([[system.dist.symbols.index(s) for s in z] for z in seqs])
    with mock.patch.object(smoothing, "MIXED_BATCH", batch):
        got = _mixed_distances(system, rows)
    mixed = np.eye(d**n) / d**n
    for z, dist in zip(seqs, got, strict=True):
        assert abs(dist - trace_distance(mixed, system.sequence_state(z))) < 1e-12


@settings(max_examples=25)
@given(
    d=st.sampled_from((2, 3)),
    kinds=st.lists(st.sampled_from(STATE_KINDS), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 4),
    delta=st.sampled_from((0.35, 0.5)),
)
def test_scalar_mass_marginals_match_per_record_accumulation(d, kinds, seed, n, delta):
    # symbol probabilities 1/4, 1/4, 1/2: both branches occur at n = 3 and 4
    z_rows = {0: {0: 0.5, 1: 0.5}, 1: {0: 1.0}}
    triples = [(x, z, "y") for x in z_rows for z in z_rows[x]]
    states = {t: kind_state(d, kind, (seed, i)) for i, (t, kind) in enumerate(zip(triples, kinds))}
    system = triple_system({0: 0.5, 1: 0.5}, z_rows, {"y": 1.0}, lambda *t: states[t])
    se = smoothed_states(system, n, delta)
    assert any(r.typical for r in se.records) and not all(r.typical for r in se.records)
    pair, xm = {}, {}
    avg = np.zeros((d**n, d**n), dtype=np.complex128)
    for r in se.records:
        if r.probability > 0:
            key = tuple(zip(r.xs, r.zs))
            pair[key] = pair.get(key, 0.0) + r.probability * r.state
            xm[r.xs] = xm.get(r.xs, 0.0) + r.probability * r.state
            avg += r.probability * r.state
    assert pair.keys() == se.pair_marginals.keys() and xm.keys() == se.x_marginals.keys()
    for key, total in pair.items():
        w = math.prod(se.layers.p_xz.prob(p) for p in key)
        assert np.max(np.abs(total / w - se.pair_marginals[key])) < 1e-12
    for xs, total in xm.items():
        w = math.prod(se.layers.p_x.prob(x) for x in xs)
        assert np.max(np.abs(total / w - se.x_marginals[xs])) < 1e-12
    assert np.max(np.abs(avg - se.average)) < 1e-12


def eager_family(system, n, delta, triples=None):
    """The eager per-key build, kept as the differential oracle.

    Every record is formed on its own: a typical triple's layer pair and
    sandwich are built for its own key, its overlaps read through
    ``Projector.trace_with``, and every record's trace distance is taken
    densely.  A complete enumeration also sums every pair, x and average
    marginal record by record.  Returns ({zipped: record fields}, marginals
    or None).
    """
    layers = triple_layers(system)
    pi_avg = typical_projector(layers.rho_bar, n, 2.0 * delta)
    dim = system.dim**n
    mixed = np.eye(dim) / dim
    if triples is None:
        seqs = list(itertools.product(system.dist.support, repeat=n))
    else:
        seqs = [tuple(zip(*t)) for t in triples]
    records = {}
    pair, xm = {}, {}
    avg = np.zeros((dim, dim), dtype=np.complex128)
    for zipped in seqs:
        xs = tuple(s[0] for s in zipped)
        pairs = tuple((s[0], s[1]) for s in zipped)
        prob = math.prod(system.dist.prob(s) for s in zipped)
        rho = system.sequence_state(zipped)
        rec = {"probability": prob, "typical": is_typical(system.dist, zipped, delta), "state": mixed}
        if rec["typical"]:
            p_x = cond_typical_projector(layers.x_ens, xs, 6.0 * delta)
            p_xz = cond_typical_projector(layers.pair_ens, pairs, 6.0 * delta)
            m = pi_avg.dense() @ p_x.dense() @ p_xz.dense()
            sand = m @ rho @ m.conj().T
            rec["denominator"] = float(np.real(np.trace(sand)))
            rec["overlap_failures"] = tuple(min(1.0, max(0.0, 1.0 - p.trace_with(rho))) for p in (pi_avg, p_x, p_xz))
            rec["zero_denominator"] = rec["denominator"] <= smoothing.DENOMINATOR_TOL
            if not rec["zero_denominator"]:
                state = sand / rec["denominator"]
                rec["state"] = (state + state.conj().T) / 2.0
        rec["distance"] = trace_distance(rec["state"], rho)
        records[zipped] = rec
        if triples is None:
            pair[pairs] = pair.get(pairs, 0.0) + prob * rec["state"]
            xm[xs] = xm.get(xs, 0.0) + prob * rec["state"]
            avg += prob * rec["state"]
    if triples is not None:
        return records, None
    marginals = {
        "pair": {k: v / math.prod(layers.p_xz.prob(p) for p in k) for k, v in pair.items()},
        "x": {k: v / math.prod(layers.p_x.prob(x) for x in k) for k, v in xm.items()},
        "average": avg,
    }
    return records, marginals


def eager_records(system, n, delta):
    """The oracle's typical records: per typical triple its sandwiched state
    (None when the sandwich annihilates it), its denominator and its
    overlap failures."""
    records, _ = eager_family(system, n, delta)
    return {
        z: (None if r["zero_denominator"] else r["state"], r["denominator"], r["overlap_failures"])
        for z, r in records.items()
        if r["typical"]
    }


@settings(max_examples=40)
@given(
    d=st.sampled_from((2, 3)),
    kinds=st.lists(st.sampled_from(STATE_KINDS + ("diagonal",)), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    layered=st.booleans(),
    n=st.integers(1, 4),
    delta=st.sampled_from((0.35, 0.5, 0.9)),
)
def test_records_match_the_eager_build(d, kinds, seed, layered, n, delta):
    # the layered law (1/4, 1/4, 1/2) has typical triples at n = 3 and 4, the
    # flat one (1/2, 1/2) at n = 2, 3 and 4
    z_rows = {0: {0: 0.5, 1: 0.5}, 1: {0: 1.0}} if layered else {0: {0: 1.0}, 1: {1: 1.0}}
    triples = [(x, z, "y") for x in z_rows for z in z_rows[x]]
    states = {t: kind_state(d, kind, (seed, i)) for i, (t, kind) in enumerate(zip(triples, kinds))}
    system = triple_system({0: 0.5, 1: 0.5}, z_rows, {"y": 1.0}, lambda *t: states[t])
    se = smoothed_states(system, n, delta)
    eager = eager_records(system, n, delta)
    mixed = np.eye(d**n) / d**n
    assert {r.zipped for r in se.records if r.typical} == eager.keys()
    for r in se.records:
        if not r.typical:
            assert np.array_equal(r.state, mixed) and r.distance is None
            continue
        # a record's scalars are its joint type's, measured on another
        # permutation of the triple, so they agree to rounding
        state, denominator, failures = eager[r.zipped]
        assert abs(r.denominator - denominator) <= 1e-12
        assert np.max(np.abs(np.subtract(r.overlap_failures, failures))) <= 1e-12
        if state is None:
            assert r.zero_denominator and r.distance is None
            assert np.array_equal(r.state, mixed)
        else:
            assert not r.zero_denominator
            assert np.max(np.abs(r.state - state)) <= 1e-12
            assert abs(r.distance - trace_distance(state, system.sequence_state(r.zipped))) <= 1e-12


def eager_check_values(records, marginals, layers, delta):
    """The report's check values, from the oracle's records and marginals."""
    typical = [r for r in records.values() if r["typical"]]
    values = {}
    if typical:
        values["denominator"] = min(r["denominator"] for r in typical)
        values["l1-triple"] = max(r["distance"] for r in typical)
    if marginals is not None:
        for name, law in (("pair", layers.p_xz), ("x", layers.p_x)):
            norms = [np.linalg.norm(m, 2) for k, m in marginals[name].items() if is_typical(law, k, delta)]
            values[f"linf-{name}"] = max(norms, default=0.0)
        values["linf-average"] = np.linalg.norm(marginals["average"], 2)
        values["l1-global"] = sum(r["probability"] * r["distance"] for r in records.values() if r["probability"] > 0)
    return values


#: Each row's pass rule and the bounds outside its quantity's range.
CHECK_RULES = {
    "denominator": (lambda v, b: v >= b - 1e-12, lambda b: b <= 0.0),
    "l1-triple": (lambda v, b: v <= b + 1e-12, lambda b: b >= 2.0),
    "linf-pair": (lambda v, b: v <= b * (1.0 + 1e-9), lambda b: b >= 1.0),
    "linf-x": (lambda v, b: v <= b * (1.0 + 1e-9), lambda b: b >= 1.0),
    "linf-average": (lambda v, b: v <= b * (1.0 + 1e-9), lambda b: b >= 1.0),
    "l1-global": (lambda v, b: v <= b + 1e-12, lambda b: b >= 2.0),
}


#: (x values, whether z splits given x = 0, y values): two to four support
#: symbols, so that typical triples exist from n = 4 on.
SHAPES = ((2, False, 1), (3, False, 1), (2, True, 1), (3, True, 1), (2, False, 2))


@st.composite
def triple_systems(draw):
    """A p(x)p(z|x)p(y) system on qubits or qutrits, of one of ``SHAPES``,
    whose states are each pure, rank-deficient, degenerate, diagonal or
    generic in a random eigenbasis of their own, and a block length from
    the support size up to 5 that keeps D <= 81 and the triple count <= 256."""
    d = draw(st.sampled_from((2, 3)), label="d")
    x_size, layered, y_size = draw(st.sampled_from(SHAPES), label="shape")
    z_rows = {x: {x: 1.0} for x in range(x_size)}
    if layered:
        z_rows[0] = {0: 0.5, x_size: 0.5}
    p_y = {y: 1.0 / y_size for y in range(y_size)}
    triples = [(x, z, y) for x in z_rows for z in z_rows[x] for y in p_y]
    kinds = draw(st.lists(st.sampled_from(STATE_KINDS + ("diagonal",)), min_size=len(triples), max_size=len(triples)))
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    states = {t: kind_state(d, kind, (seed, i)) for i, (t, kind) in enumerate(zip(triples, kinds))}
    system = triple_system({x: 1.0 / x_size for x in z_rows}, z_rows, p_y, lambda *t: states[t])
    longest = max(k for k in range(1, 6) if d**k <= 81 and len(triples) ** k <= 256)
    n = draw(st.integers(len(triples), longest), label="n")
    return system, n


@settings(max_examples=80)
@given(
    case=triple_systems(),
    delta=st.sampled_from((0.35, 0.5, 0.9)),
    partial=st.booleans(),
    data=st.data(),
)
def test_family_matches_the_eager_per_key_oracle(case, delta, partial, data):
    # Keys of one type are carried onto each other by a position
    # permutation; every record, marginal and check value read through it
    # must equal the one built for the key itself.
    system, n = case
    triples = None
    if partial:
        # typical triples and any others, each with a shuffled copy, so that
        # keys of one type other than its first come up
        every = list(itertools.product(system.dist.support, repeat=n))
        typical = [z for z in every if is_typical(system.dist, z, delta)] or every
        picks = data.draw(st.lists(st.sampled_from(typical), min_size=1, max_size=3), label="typical picks")
        picks += data.draw(st.lists(st.sampled_from(every), max_size=1), label="other picks")
        orders = data.draw(st.lists(st.permutations(range(n)), min_size=len(picks), max_size=len(picks)))
        zipped = picks + [tuple(z[i] for i in order) for z, order in zip(picks, orders)]
        triples = [tuple(zip(*z)) for z in zipped]
    se = smoothed_states(system, n, delta, triples=triples)
    records, marginals = eager_family(system, n, delta, triples)
    assert len(se.records) == len(triples if partial else records)
    for r in se.records:
        rec = records[r.zipped]
        assert r.typical == rec["typical"]
        assert r.probability == pytest.approx(rec["probability"], rel=1e-12, abs=0.0)
        assert np.max(np.abs(r.state - rec["state"])) <= 1e-12
        if r.typical:
            assert abs(r.denominator - rec["denominator"]) <= 1e-12
            assert np.max(np.abs(np.subtract(r.overlap_failures, rec["overlap_failures"]))) <= 1e-12
            assert r.zero_denominator == rec["zero_denominator"]
        if r.distance is not None:
            assert abs(r.distance - rec["distance"]) <= 1e-12
    if not partial:
        for name, got in (("pair", se.pair_marginals), ("x", se.x_marginals)):
            assert set(got) == set(marginals[name])
            for key, mat in marginals[name].items():
                assert np.max(np.abs(got[key] - mat)) <= 1e-12
        assert np.max(np.abs(se.average - marginals["average"])) <= 1e-12

    report = verify_smoothing_bounds(se)
    expected = eager_check_values(records, marginals, se.layers, delta)
    for name, check in report["checks"].items():
        if name not in expected:
            assert check.informative and not check.vacuous
            continue
        assert abs(check.value - expected[name]) <= 1e-12
        passes, vacuous = CHECK_RULES[name]
        assert check.passed == passes(expected[name], check.bound)
        assert check.vacuous == vacuous(check.bound)


def joint_type(zipped):
    return frozenset(Counter(zipped).items())


@settings(max_examples=40)
@given(
    d=st.sampled_from((2, 3)),
    kinds=st.lists(st.sampled_from(STATE_KINDS + ("diagonal",)), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    layered=st.booleans(),
    n=st.integers(2, 4),
    delta=st.sampled_from((0.35, 0.5, 0.9)),
)
def test_eager_scalars_are_constant_on_each_joint_type(d, kinds, seed, layered, n, delta):
    # Permuting the positions conjugates the product state and both
    # conditional projectors by one permutation unitary and leaves the
    # average-state projector fixed, so the sandwich's denominator, the
    # overlap failures and the trace distance depend on the joint type alone.
    z_rows = {0: {0: 0.5, 1: 0.5}, 1: {0: 1.0}} if layered else {0: {0: 1.0}, 1: {1: 1.0}}
    triples = [(x, z, "y") for x in z_rows for z in z_rows[x]]
    states = {t: kind_state(d, kind, (seed, i)) for i, (t, kind) in enumerate(zip(triples, kinds))}
    system = triple_system({0: 0.5, 1: 0.5}, z_rows, {"y": 1.0}, lambda *t: states[t])
    by_type = {}
    for zipped, (state, denominator, failures) in eager_records(system, n, delta).items():
        distance = None if state is None else trace_distance(state, system.sequence_state(zipped))
        by_type.setdefault(joint_type(zipped), []).append((denominator, failures, distance))
    for members in by_type.values():
        first_den, first_failures, first_distance = members[0]
        for denominator, failures, distance in members[1:]:
            assert abs(denominator - first_den) <= 1e-12
            assert np.max(np.abs(np.subtract(failures, first_failures))) <= 1e-12
            assert (distance is None) == (first_distance is None)
            if distance is not None:
                assert abs(distance - first_distance) <= 1e-12


def test_states_are_density_operators():
    se = smoothed_states(diagonal_system(), 4, 0.25)
    for r in se.records:
        assert abs(np.trace(r.state).real - 1.0) < 1e-10
        assert np.max(np.abs(r.state - r.state.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(r.state)) > -1e-12


def test_bb84_denominators_meet_chain_prediction():
    se = smoothed_states(bb84_system(), 6, 0.2)
    eps = se.measured_epsilon
    floor = 1.0 - 5.0 * math.sqrt(eps)
    typical = [r for r in se.records if r.typical]
    assert typical
    for r in typical:
        assert r.denominator >= floor - 1e-12


def test_verify_bounds_guaranteed_rows():
    system = diagonal_system()
    se = smoothed_states(system, 4, 0.25)
    report = verify_smoothing_bounds(se)
    assert report["regime"] == "measured"
    checks = report["checks"]
    assert checks["denominator"].passed
    assert checks["l1-triple"].passed
    assert checks["l1-global"].passed
    if report["epsilon"] < 1.0 / 64.0:
        assert checks["linf-pair"].passed
        assert checks["linf-x"].passed
        assert checks["linf-average"].passed
    # weighted typical plus atypical pieces must reproduce the global row
    manual = 0.0
    for r in se.records:
        if r.probability > 0:
            manual += r.probability * trace_distance(r.state, system.sequence_state(r.zipped))
    assert abs(manual - checks["l1-global"].value) < 1e-12
    # the triple row is the worst distance over the typical records only
    worst = max(
        trace_distance(r.state, system.sequence_state(r.zipped)) for r in se.records if r.typical
    )
    assert checks["l1-triple"].value == worst
    # no sandwich annihilated a triple, so the note carries the count alone
    assert checks["denominator"].note == f"{sum(r.typical for r in se.records)} typical triples"


def test_verify_bounds_random_qubit_states():
    rng = np.random.default_rng(7)

    def random_state(x, z, y):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        return rho / np.trace(rho).real

    system = triple_system(
        {0: 0.5, 1: 0.5},
        {0: {0: 1.0}, 1: {1: 1.0}},
        {0: 0.5, 1: 0.5},
        random_state,
    )
    se = smoothed_states(system, 4, 0.3)
    assert any(r.typical for r in se.records)
    report = verify_smoothing_bounds(se)
    checks = report["checks"]
    assert checks["denominator"].passed
    assert checks["l1-triple"].passed
    assert checks["l1-global"].passed
    assert checks["linf-average"].value > 0


def test_bounds_outside_their_range_are_vacuous():
    # at n = 6, delta = 0.35 every bound lies outside the range of its quantity:
    # a denominator bound <= 0, trace-distance bounds >= 2, operator-norm bounds >= 1
    checks = verify_smoothing_bounds(smoothed_states(diagonal_system(), 6, 0.35))["checks"]
    bounds = {name: c.bound for name, c in checks.items()}
    expected = {
        "denominator": -3.29,
        "l1-triple": 9.44,
        "linf-pair": 9.0e9,
        "linf-x": 9.0e9,
        "linf-average": 3.2e4,
        "l1-global": 11.2,
    }
    assert bounds == pytest.approx(expected, rel=1e-2)
    assert [name for name, c in checks.items() if c.vacuous] == list(expected)


def test_bounds_inside_their_range_are_not_vacuous():
    # one typical triple of identical pure states: measured epsilon ~ 0
    se = smoothed_states(pure_system(), 4, 0.3, triples=[((0, 1, 0, 1), (0, 1, 0, 1), (0, 0, 0, 0))])
    checks = verify_smoothing_bounds(se)["checks"]
    assert 0.0 < checks["denominator"].bound < 1.0 and not checks["denominator"].vacuous
    assert 0.0 < checks["l1-triple"].bound < 2.0 and not checks["l1-triple"].vacuous
    # rows that cannot be evaluated are placeholders, not bounds
    assert checks["linf-x"].note == "marginals unavailable (partial enumeration)"
    assert not any(checks[name].vacuous for name in ("linf-pair", "linf-x", "linf-average", "l1-global"))


def test_theoretical_regime_switch():
    se = smoothed_states(pure_system(), 4, 0.3)
    report = verify_smoothing_bounds(se, epsilon=0.01)
    # desk-scale n sits far below the joint threshold
    assert report["regime"] == "measured"
    assert report["threshold_n"] > 4
    assert report["epsilon"] == se.measured_epsilon


def test_zero_denominator_flagged_and_mixed():
    dist = ClassicalDistribution((("a", "b", "c"),), (1.0,))
    system = CqEnsemble(dist, {("a", "b", "c"): diag_state(0.85, 0.15)})
    se = smoothed_states(system, 2, 0.1)
    (record,) = [r for r in se.records if r.typical]
    assert record.zero_denominator
    assert record.denominator <= 1e-14
    assert np.array_equal(record.state, np.eye(4) / 4.0)
    report = verify_smoothing_bounds(se)
    assert report["checks"]["l1-triple"].passed
    dense = trace_distance(record.state, system.sequence_state(record.zipped))
    assert abs(report["checks"]["l1-triple"].value - dense) < 1e-12
    note = report["checks"]["denominator"].note
    assert note == "1 typical triples; 1 annihilated by the sandwich (state set to I/D)"


def test_caller_supplied_triples():
    system = diagonal_system()
    picks = [
        ((0, 0, 1, 1), (0, 0, 1, 1), (0, 1, 0, 1)),
        ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    ]
    se = smoothed_states(system, 4, 0.25, triples=picks)
    assert not se.complete
    assert len(se.records) == 2
    assert se.pair_marginals is None and se.average is None
    full = smoothed_states(system, 4, 0.25)
    for xs, zs, ys in picks:
        a = se.record_for(xs, zs, ys)
        b = full.record_for(xs, zs, ys)
        assert a.typical == b.typical
        assert np.max(np.abs(a.state - b.state)) < 1e-12
    report = verify_smoothing_bounds(se)
    assert report["checks"]["linf-pair"].informative
    assert report["checks"]["l1-global"].informative


def test_caller_supplied_permutations_share_their_type_scalars():
    # non-commuting states; the second triple permutes the first one's
    # positions, so it reuses the scalars measured on the first
    states = {(x, x, y): kind_state(2, "generic", (5, x, y)) for x in (0, 1) for y in (0, 1)}
    system = triple_system(
        {0: 0.5, 1: 0.5}, {0: {0: 1.0}, 1: {1: 1.0}}, {0: 0.5, 1: 0.5}, lambda x, z, y: states[(x, z, y)]
    )
    triple = ((1, 0, 1, 0), (1, 0, 1, 0), (1, 1, 0, 0))
    order = (2, 0, 3, 1)
    permuted = tuple(tuple(part[i] for i in order) for part in triple)
    assert permuted != triple
    se = smoothed_states(system, 4, 0.3, triples=[triple, permuted])
    assert not se.complete
    assert se.pair_marginals is None and se.x_marginals is None and se.average is None
    assert se.typical_mass is None
    full = smoothed_states(system, 4, 0.3)
    for t in (triple, permuted):
        a, b = se.record_for(*t), full.record_for(*t)
        assert a.typical and b.typical and not a.zero_denominator and not b.zero_denominator
        assert abs(a.denominator - b.denominator) <= 1e-12
        assert np.max(np.abs(np.subtract(a.overlap_failures, b.overlap_failures))) <= 1e-12
        assert abs(a.distance - b.distance) <= 1e-12
        assert np.max(np.abs(a.state - b.state)) <= 1e-12
        assert abs(a.distance - trace_distance(a.state, system.sequence_state(a.zipped))) <= 1e-12


def test_typicality_flags_match_reference():
    system = diagonal_system()
    se = smoothed_states(system, 4, 0.25)
    assert any(r.typical for r in se.records)
    for r in se.records:
        assert r.typical == is_typical(system.dist, r.zipped, 0.25)


def test_input_validation():
    flat = ClassicalDistribution(("a", "b"), (0.5, 0.5))
    with pytest.raises(ValueError, match="triples"):
        smoothed_states(CqEnsemble(flat, {"a": KET0, "b": KET1}), 2, 0.2)

    # y marginal correlated with x
    symbols = ((0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1))
    probs = (0.4, 0.1, 0.1, 0.4)
    states = {s: KET0 for s in symbols}
    with pytest.raises(ValueError, match="factor"):
        smoothed_states(CqEnsemble(ClassicalDistribution(symbols, probs), states), 2, 0.2)

    system = diagonal_system()
    with pytest.raises(ValueError, match="cap"):
        smoothed_states(system, 9, 0.25)  # 4^9 triples > TRIPLE_CAP
    with pytest.raises(ValueError, match="delta"):
        smoothed_states(system, 2, 0.0)
    with pytest.raises(ValueError, match="length"):
        smoothed_states(system, 2, 0.2, triples=[((0,), (0,), (0,))])
    with pytest.raises(ValueError, match="unknown symbol"):
        smoothed_states(system, 2, 0.2, triples=[((0, 9), (0, 0), (0, 0))])
    with pytest.raises(KeyError):
        smoothed_states(system, 2, 0.2, triples=[((0, 0), (0, 0), (0, 0))]).record_for(
            (1, 1), (0, 0), (0, 0)
        )
