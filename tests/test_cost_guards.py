"""Call-count guards on the decoders' and the smoothing layer's cost.

The sequential chain and the square-root measurement work on state and
element factors; a dense D x D product, eigendecomposition or chain
conjugation creeping back in would keep every output but cost O(D^3) per
message again.  The chain holds its failure operator as B = G - L R^dag and
reads the gate as its columns, so a gated decode forms no projector's dense
matrix and no D x D operator while the candidates' ranks sum to at most D.
Smoothing measures each typical joint type once at build, builds one
layer pair and one marginal part per (xs, zs) key type and reads every
other key through a permutation, and reads a maximally mixed record's
trace distance off the symbols' spectra, so verification builds no product
state and takes one norm per typical key type, and no record or key keeps
a dense matrix of its own.  Multi-sender
candidates and their guarantees are checked in the candidates' own span, so
building them forms no D x D matrix, and no projector keeps one.  A typical
layer's kept set is the AND of cached per-group masks, so a decode builds
each mask once and sorts no rows, and an ensemble snaps each symbol's
eigenvalues once.  The verify op's lemma suites hand the checks their
drawn projectors as columns, so they validate and eigendecompose no raw
projector matrix, and the key check and the floor form no dense projector.
These tests count such calls through monkeypatching, and live memory
through tracemalloc.
"""

import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import cqlab.decoders
import cqlab.geometry
import cqlab.linalg
import cqlab.smoothing
import cqlab.typicality
import cqlab.verify
from cqlab.channels import CcqMac, CoupledMac, CqChannel
from cqlab.decoders import (
    DENSE_FLOOR_LEAK,
    pgm_decode,
    pgm_elements,
    sample_codebook,
    sequential_decode,
)
from cqlab.geometry import key_inequality_check, seq_success_lower_bound, sequential_collapse
from cqlab.linalg import Projector
from cqlab.smoothing import smoothed_states, verify_smoothing_bounds
from cqlab.typicality import ClassicalDistribution, CqEnsemble, _group_mask, is_typical

KET0 = np.diag([1.0, 0.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
UNIF = ClassicalDistribution((0, 1), (0.5, 0.5))
CQ = CqChannel(UNIF, {0: KET0, 1: PLUS})
MAC = CcqMac(UNIF, UNIF, {(0, 0): KET0, (0, 1): PLUS, (1, 0): MINUS, (1, 1): np.eye(2) / 2})
CMG = CoupledMac(
    UNIF,
    {0: ClassicalDistribution((0, 1), (0.8, 0.2)), 1: ClassicalDistribution((0, 1), (0.2, 0.8))},
    ClassicalDistribution(("y",), (1.0,)),
    {(0, "y"): KET0, (1, "y"): PLUS},
)
N = 6


@pytest.fixture
def calls(monkeypatch):
    """Counts of Projector.trace_with calls, of dense sequence states and of
    D x D eigendecompositions."""
    counts = {"trace_with": 0, "sequence_state": 0, "eig": 0}
    trace_with = Projector.trace_with
    sequence_state = CqEnsemble.sequence_state

    def counted_trace_with(self, op):
        counts["trace_with"] += 1
        return trace_with(self, op)

    def counted_sequence_state(self, seq):
        counts["sequence_state"] += 1
        return sequence_state(self, seq)

    def counted_eig(fn):
        def run(a, *args, **kwargs):
            if np.shape(a)[-1] == 2**N:
                counts["eig"] += 1
            return fn(a, *args, **kwargs)

        return run

    def refuse(*_, **__):
        raise AssertionError("a decoder ran a dense sequential_collapse")

    monkeypatch.setattr(Projector, "trace_with", counted_trace_with)
    monkeypatch.setattr(CqEnsemble, "sequence_state", counted_sequence_state)
    monkeypatch.setattr(np.linalg, "eigh", counted_eig(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eig(np.linalg.eigvalsh))
    monkeypatch.setattr(cqlab.decoders, "sequential_collapse", refuse)
    monkeypatch.setattr(cqlab.geometry, "sequential_collapse", refuse)
    return counts


@pytest.fixture
def chains(monkeypatch):
    """The entries of each sequential chain walked, in call order."""
    seen = []
    run = cqlab.decoders._run_sequential

    def capture(entries, *args, **kwargs):
        seen.append(entries)
        return run(entries, *args, **kwargs)

    monkeypatch.setattr(cqlab.decoders, "_run_sequential", capture)
    return seen


def dense_floor_rows(entries) -> int:
    """Rows whose ungated floor leak, read from the state factors (the
    hostile ||V_i^dag A||^2 plus ||A - V (V^dag A)||^2), is below
    DENSE_FLOOR_LEAK: the rows that re-read their floor densely."""
    rows, hostile = 0, []
    for ent in entries:
        a, v = ent.factor, ent.projector.support_columns()
        leak = sum(np.linalg.norm(h.conj().T @ a) ** 2 for h in hostile) + np.linalg.norm(a - v @ (v.conj().T @ a)) ** 2
        rows += leak < DENSE_FLOOR_LEAK
        hostile.append(v)
    return rows


def test_ungated_chain_reads_at_most_one_dense_trace_per_message(calls, chains):
    # one dense trace per row whose leak is below DENSE_FLOOR_LEAK, and none
    # for the others, whose floors read only the state factors
    book = sample_codebook(CQ, 0.5, N, (0, 0))
    report = sequential_decode(CQ, book, 0.99)
    assert max(report.details["candidate_ranks"].values()) > 0
    dense = dense_floor_rows(chains[-1])
    assert 0 < dense < len(book.messages())
    assert calls["trace_with"] == dense


def test_ungated_cq_large_decode_reads_one_dense_trace(calls):
    # the n = 8 book of 16 messages: only the first message's floor, which
    # has no earlier candidate and a leak of rounding size, reads densely
    book = sample_codebook(CQ, 0.5, 8, (0, 0))
    assert len(book.messages()) == 16
    sequential_decode(CQ, book, 0.99)
    assert calls["trace_with"] == 1


def test_state_fn_is_read_once_per_message_and_once_per_dense_floor(chains):
    # each message's state is factored from one read; only the rows whose
    # floor reads densely read it again, and the gated decode never does
    book = sample_codebook(CQ, 0.5, 4, (5, 0))
    ens = CQ.ensemble()
    reads = []

    def state_fn(xs):
        reads.append(xs)
        return ens.sequence_state(xs)

    sequential_decode(CQ, book, 0.99, state_fn=state_fn)
    dense = dense_floor_rows(chains[-1])
    assert 0 < dense < len(book.messages())
    assert len(reads) == len(book.messages()) + dense
    reads.clear()
    sequential_decode(CQ, book, 0.99, gated=True, state_fn=state_fn)
    assert len(reads) == len(book.messages())


def test_multi_sender_chains_read_at_most_one_dense_trace_per_message(calls, chains):
    """The measured leaks that set tau and the floors are squared norms of
    the state factors, so only an ungated floor whose leak is below
    DENSE_FLOOR_LEAK reads a dense trace."""
    mac_book = sample_codebook(MAC, (0.35, 0.35), N, (0, 0))
    cmg_book = sample_codebook(CMG, (0.35, 0.35, 0.0), N, (0, 0))
    decodes = [lambda: sequential_decode(MAC, mac_book, 0.99)] + [
        lambda region=region: sequential_decode(CMG, cmg_book, 0.99, region=region) for region in (1, 2)
    ]
    for decode in decodes:
        calls["trace_with"] = 0
        report = decode()
        assert any(report.details["typical"].values())
        assert calls["trace_with"] == dense_floor_rows(chains[-1])


def test_ungated_chain_keeps_no_dense_projector_per_message():
    """An ungated floor that reads densely forms its candidate's D x D
    matrix for its one target-leak product and drops it: at n = 8 (D = 256,
    M = 16) the peak stays below eight D x D complex matrices, where one per
    message would need sixteen."""
    book = sample_codebook(CQ, 0.5, 8, (0, 0))
    assert len(book.messages()) == 16
    tracemalloc.start()
    try:
        report = sequential_decode(CQ, book, 0.99)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(report.details["candidate_ranks"].values()) > 0
    assert peak < 8 * 256**2 * 16


def test_gated_decode_forms_no_dense_matrix(monkeypatch):
    """At n = 8 (D = 256, M = 16) the gated decode calls no
    ``Projector.dense`` and peaks below two D x D complex matrices: the
    gate's columns, their conjugate transpose and the chain's thin stacks.
    A dense gate and a dense failure operator alone would fill the bound.
    A short decode first loads what numpy imports on first use, so the
    peak counts the decode alone."""
    sequential_decode(CQ, sample_codebook(CQ, 0.5, 4, (0, 0)), 0.99, gated=True)
    book = sample_codebook(CQ, 0.5, 8, (0, 0))
    assert len(book.messages()) == 16
    calls = []
    dense = Projector.dense

    def counted_dense(self):
        calls.append(self.dim)
        return dense(self)

    monkeypatch.setattr(Projector, "dense", counted_dense)
    tracemalloc.start()
    try:
        report = sequential_decode(CQ, book, 0.99, gated=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(report.details["candidate_ranks"].values()) > 0
    assert calls == []
    assert peak < 2 * 256**2 * 16


def test_measured_leaks_keep_one_conjugate_layer_alive():
    """The measured leaks conjugate each outer layer once and drop the copy
    before the next layer's.  On the benchmark's ccq-mac channel at n = 9
    (D = 512, 81 messages, every outer layer of rank up to D) the decode
    peaks below 13 layer sizes of D x D complex entries; a conjugate kept
    per distinct layer for the whole decode peaks at about 16."""
    ket1 = np.diag([0.0, 1.0]).astype(complex)
    bits = ClassicalDistribution(("0", "1"), (0.5, 0.5))
    mac = CcqMac(bits, bits, {("0", "0"): KET0, ("0", "1"): PLUS, ("1", "0"): MINUS, ("1", "1"): ket1})
    sequential_decode(mac, sample_codebook(mac, (0.35, 0.35), 4, (0, 0)), 0.99)
    book = sample_codebook(mac, (0.35, 0.35), 9, (0, 0))
    tracemalloc.start()
    try:
        report = sequential_decode(mac, book, 0.99)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.outcomes) == 81
    assert peak < 13 * 512**2 * 16


def test_dense_oracles_read_raw_matrices_without_an_eigendecomposition(monkeypatch):
    """A raw projector matrix is checked and read as given by the oracles,
    never turned into a Projector."""
    rng = np.random.default_rng(11)
    d = 6

    def projector_matrix(rank: int) -> np.ndarray:
        q = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0][:, :rank]
        return q @ q.conj().T

    hostile = [projector_matrix(r) for r in (1, 3)]
    target = projector_matrix(4)
    rho = projector_matrix(2) / 2
    v = rng.normal(size=d) + 1j * rng.normal(size=d)

    def refuse(*_, **__):
        raise AssertionError("a dense oracle ran an eigendecomposition")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    steps = [(h, "failure") for h in hostile] + [(target, "success")]
    success = sequential_collapse(rho, steps).success_probability
    assert success >= seq_success_lower_bound(rho, hostile, target) - 1e-9
    assert key_inequality_check(v / np.linalg.norm(v), hostile + [target])["holds"]


def test_lemma_suites_validate_and_decompose_no_raw_projector(monkeypatch):
    """The lemma-key, lemma-chain and blocks suites draw each projector as
    its QR columns and hand the checks a Projector: no raw projector matrix
    is validated (``require_projector``, under every module's name for it)
    or eigendecomposed into a Projector (``Projector.from_matrix``)."""
    counts = {"require_projector": 0, "from_matrix": 0}
    require_projector = cqlab.linalg.require_projector
    from_matrix = Projector.from_matrix.__func__

    def counted_require_projector(m):
        counts["require_projector"] += 1
        return require_projector(m)

    def counted_from_matrix(cls, p):
        counts["from_matrix"] += 1
        return from_matrix(cls, p)

    for name, module in list(sys.modules.items()):
        if name.startswith("cqlab") and getattr(module, "require_projector", None) is require_projector:
            monkeypatch.setattr(module, "require_projector", counted_require_projector)
    monkeypatch.setattr(Projector, "from_matrix", classmethod(counted_from_matrix))
    for suite in ("lemma-key", "lemma-chain", "blocks"):
        assert cqlab.verify.run_suite(suite, 0)["ok"]
    assert counts == {"require_projector": 0, "from_matrix": 0}


def test_key_check_and_floor_read_projectors_through_their_columns(monkeypatch):
    """``key_inequality_check`` applies a Projector as V (V^dag x) and
    ``seq_success_lower_bound`` reads Tr[P rho] as Re<V, rho V>: neither
    forms a projector's dense matrix, at any rank from 0 to D."""
    rng = np.random.default_rng(5)
    d = 8
    projs = [
        Projector(np.linalg.qr(rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r)))[0]) for r in range(1, d + 1)
    ]
    projs.append(Projector.zero(d))
    rho = np.eye(d, dtype=complex) / d
    v = rng.normal(size=d) + 1j * rng.normal(size=d)

    def refuse(self):
        raise AssertionError("a column-form check formed a dense projector")

    monkeypatch.setattr(Projector, "dense", refuse)
    assert key_inequality_check(v / np.linalg.norm(v), projs)["holds"]
    for k in range(len(projs)):
        assert seq_success_lower_bound(rho, projs[:k], projs[k]) <= 1.0


def test_gated_chain_reads_no_dense_trace(calls):
    book = sample_codebook(CQ, 0.5, N, (0, 0))
    report = sequential_decode(CQ, book, 0.99, gated=True)
    assert max(report.details["candidate_ranks"].values()) > 0
    assert calls["trace_with"] == 0
    assert calls["sequence_state"] == 0


def test_no_decoder_runs_a_dense_collapse(calls):
    # the fixture makes sequential_collapse raise
    sequential_decode(CQ, sample_codebook(CQ, 0.5, N, (0, 0)), 0.99)
    sequential_decode(MAC, sample_codebook(MAC, (0.35, 0.35), N, (0, 0)), 0.99)
    book = sample_codebook(CMG, (0.35, 0.35, 0.0), N, (0, 0))
    for region in (1, 2):
        sequential_decode(CMG, book, 0.99, region=region)


def test_cq_layers_read_cached_group_masks_and_sort_no_rows(monkeypatch):
    """At n = 8 (16 codewords under one symbol law) each layer's kept set is
    the AND of cached per-group masks: at most one mask is built per
    distinct (labels, group size, delta), and no layer sorts its kept rows
    (``np.unique`` with an axis)."""
    book = sample_codebook(CQ, 0.5, 8, (0, 0))
    assert len(book.messages()) == 16
    unique = np.unique

    def no_row_sort(*args, **kwargs):
        if kwargs.get("axis") is not None:
            raise AssertionError("a layer sorted its kept rows")
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", no_row_sort)
    ens = CQ.ensemble()
    keys = {
        (tuple(ens.labels(s)), size, 0.99)
        for (xs,) in map(book.sequences, book.messages())
        for s, size in Counter(xs).items()
    }
    _group_mask.cache_clear()
    report = sequential_decode(CQ, book, 0.99)
    assert max(report.details["candidate_ranks"].values()) > 0
    assert 0 < _group_mask.cache_info().misses <= len(keys)


def test_layers_snap_each_symbol_once_per_ensemble(monkeypatch):
    """Every layer reads its groups' snapped labels from the ensemble, which
    snaps each symbol's eigenvalues once: one ``_snap_eigenvalues`` call per
    (ensemble, symbol) whose labels any layer read."""
    snaps = 0
    read = set()
    held = []  # keeps every ensemble alive, so no two share an id
    snap, labels = cqlab.typicality._snap_eigenvalues, CqEnsemble.labels

    def counted_snap(w):
        nonlocal snaps
        snaps += 1
        return snap(w)

    def recorded_labels(self, symbol):
        held.append(self)
        read.add((id(self), symbol))
        return labels(self, symbol)

    monkeypatch.setattr(cqlab.typicality, "_snap_eigenvalues", counted_snap)
    monkeypatch.setattr(CqEnsemble, "labels", recorded_labels)
    sequential_decode(CQ, sample_codebook(CQ, 0.5, 8, (0, 0)), 0.99)
    sequential_decode(MAC, sample_codebook(MAC, (0.35, 0.35), N, (0, 0)), 0.99)
    book = sample_codebook(CMG, (0.35, 0.35, 0.0), N, (0, 0))
    for region in (1, 2):
        sequential_decode(CMG, book, 0.99, region=region)
    assert read and snaps == len(read)


def test_pgm_over_built_elements_runs_no_dense_eigendecomposition(calls):
    cq_book = sample_codebook(CQ, 0.5, N, (0, 0))
    mac_book = sample_codebook(MAC, (0.35, 0.35), N, (0, 0))
    cmg_book = sample_codebook(CMG, (0.35, 0.35, 0.0), N, (0, 0))
    runs = [
        (CQ, cq_book, pgm_elements(CQ, cq_book, 0.99)),
        (MAC, mac_book, pgm_elements(MAC, mac_book, 0.99)),
    ] + [(CMG, cmg_book, pgm_elements(CMG, cmg_book, 0.99, region=region)) for region in (1, 2)]
    for channel, book, elements in runs:
        report = pgm_decode(channel, book, elements)
        assert report.details["support_rank"] > 0
    assert calls["eig"] == 0


def diagonal_triple_system() -> CqEnsemble:
    """Four diagonal qubit states over (x, z = x, y), uniform prior."""
    entries = {(0, 0): (0.86, 0.14), (0, 1): (0.32, 0.68), (1, 0): (0.57, 0.43), (1, 1): (0.23, 0.77)}
    states = {(x, x, y): np.diag(entries[(x, y)]).astype(complex) for x in (0, 1) for y in (0, 1)}
    return CqEnsemble(ClassicalDistribution(tuple(states), (0.25,) * 4), states)


def key_type(record) -> frozenset:
    """The (x, z) symbol counts of a record's key."""
    return frozenset(Counter(zip(record.xs, record.zs)).items())


def test_smoothing_builds_product_states_for_typical_records_only(monkeypatch):
    """The build runs one trace distance per sandwiched joint type and at
    most one sandwich per joint type and per key type, forms a product state
    only for the typical records of each key type's representative (the
    first key seen of its type), and reads no overlap through
    ``Projector.trace_with``; verification builds no product state and runs
    no dense trace distance."""
    system = diagonal_triple_system()
    calls: dict = {"sequence_state": [], "trace_distance": 0, "sandwiched": 0, "trace_with": 0}
    sequence_state = CqEnsemble.sequence_state
    trace_distance = cqlab.smoothing.trace_distance
    sandwiched = cqlab.smoothing._sandwiched
    trace_with = Projector.trace_with

    def counted_sequence_state(self, seq):
        calls["sequence_state"].append(tuple(seq))
        return sequence_state(self, seq)

    def counted_trace_distance(a, b):
        calls["trace_distance"] += 1
        return trace_distance(a, b)

    def counted_sandwiched(m, rho):
        calls["sandwiched"] += 1
        return sandwiched(m, rho)

    def counted_trace_with(self, op):
        calls["trace_with"] += 1
        return trace_with(self, op)

    monkeypatch.setattr(CqEnsemble, "sequence_state", counted_sequence_state)
    monkeypatch.setattr(cqlab.smoothing, "trace_distance", counted_trace_distance)
    monkeypatch.setattr(cqlab.smoothing, "_sandwiched", counted_sandwiched)
    monkeypatch.setattr(Projector, "trace_with", counted_trace_with)
    se = smoothed_states(system, 5, 0.7)
    typical = [r for r in se.records if r.typical]
    sandwiched_types = {frozenset(Counter(r.zipped).items()) for r in typical if not r.zero_denominator}
    types = {frozenset(Counter(r.zipped).items()) for r in typical}
    representatives: dict = {}
    for r in se.records:
        representatives.setdefault(key_type(r), (r.xs, r.zs))
    at_representatives = [r.zipped for r in typical if representatives[key_type(r)] == (r.xs, r.zs)]
    key_types = {key_type(r) for r in typical}
    assert 0 < len(sandwiched_types) < len(typical) < len(se.records)
    assert calls["trace_distance"] == len(sandwiched_types)
    assert calls["sandwiched"] <= len(types) + len(key_types) < len(typical)
    assert calls["trace_with"] == 0
    assert sorted(calls["sequence_state"]) == sorted(at_representatives)
    assert len(at_representatives) < len(typical)

    calls.update(sequence_state=[], trace_distance=0, sandwiched=0)
    report = verify_smoothing_bounds(se)
    assert all(c.passed for c in report["checks"].values())
    assert calls == {"sequence_state": [], "trace_distance": 0, "sandwiched": 0, "trace_with": 0}


def test_smoothing_takes_one_layer_pair_and_one_norm_per_key_type(monkeypatch):
    """On the bench system at n = 6 (64 keys in 7 key types) the build forms
    one conditional layer pair per key type with a typical record, not one
    per key, and verification takes one operator norm per distinct matrix
    among the typical key types' pair and x-marginals and the average.  With
    z = x each x-marginal equals a pair marginal bit for bit, so the x row
    takes no norm of its own."""
    system = diagonal_triple_system()
    calls = {"layers": 0, "norms": 0}
    cond_typical_projector = cqlab.smoothing.cond_typical_projector
    operator_norm = cqlab.smoothing.operator_norm

    def counted_layer(ensemble, seq, delta):
        calls["layers"] += 1
        return cond_typical_projector(ensemble, seq, delta)

    def counted_norm(m):
        calls["norms"] += 1
        return operator_norm(m)

    monkeypatch.setattr(cqlab.smoothing, "cond_typical_projector", counted_layer)
    monkeypatch.setattr(cqlab.smoothing, "operator_norm", counted_norm)
    delta = 0.35
    se = smoothed_states(system, N, delta)
    typical = [r for r in se.records if r.typical]
    key_types = {key_type(r) for r in typical}
    assert len({(r.xs, r.zs) for r in typical}) == 50 and len({key_type(r) for r in se.records}) == 7
    assert calls["layers"] == 2 * len(key_types) < 50

    report = verify_smoothing_bounds(se)
    rows = ((se.pair_marginals, se.layers.p_xz, "linf-pair"), (se.x_marginals, se.layers.p_x, "linf-x"))
    kinds, formed = 1, {se.average.tobytes()}
    for marginals, law, name in rows:
        keys = [key for key in marginals if is_typical(law, key, delta)]
        assert report["checks"][name].note == f"{len(keys)} typical marginals"
        reps = [key for key, _ in marginals.types() if is_typical(law, key, delta)]
        assert len(reps) == len({frozenset(Counter(key).items()) for key in keys})
        kinds += len(reps)
        formed |= {marginals[key].tobytes() for key in reps}
    assert calls["norms"] == len(formed) < kinds < len(se.pair_marginals)


def test_smoothed_records_hold_no_dense_state():
    """Live memory after an n = 6 build: the marginals, the shared sandwiches
    and the records' metadata, but no D x D state per typical record (the
    1080 typical states alone would take 71 MB)."""
    system = diagonal_triple_system()
    tracemalloc.start()
    try:
        se = smoothed_states(system, 6, 0.35)
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(r.typical for r in se.records) == 1080
    assert live < 20e6


def test_smoothing_stores_marginals_per_key_type():
    """Live memory after building a 2-symbol system with singleton z and y
    at n = 8 (256 keys, D = 256): one sandwich and one marginal part per key
    type.  A matrix per key would take 256 MB for each of the pair and the
    x-marginals."""
    states = {(0, "z", "y"): np.diag([0.8, 0.2]).astype(complex), (1, "z", "y"): 0.7 * PLUS + 0.3 * MINUS}
    system = CqEnsemble(ClassicalDistribution(tuple(states), (0.5, 0.5)), states)
    tracemalloc.start()
    try:
        se = smoothed_states(system, 8, 0.5)
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(se.pair_marginals) == len(se.x_marginals) == 256
    assert sum(r.typical for r in se.records) > 200
    assert live < 40e6
    report = verify_smoothing_bounds(se)
    assert all(c.passed for c in report["checks"].values())


def test_candidate_checks_form_no_dense_matrix(monkeypatch):
    """Intersection candidates and the region-1 envelope are checked in the
    candidates' own span: no D x D eigendecomposition or SVD runs in a
    sequential multi-sender decode, and no dense projector matrix is formed
    while a candidate is built or its envelope checked."""
    counts = {"decomposition": 0, "dense": 0}
    builders = {"intersection_projector", "candidate"}

    def counted_decomposition(fn):
        def run(a, *args, **kwargs):
            if min(np.shape(a)[-2:]) >= 2**N:
                counts["decomposition"] += 1
            return fn(a, *args, **kwargs)

        return run

    dense = Projector.dense

    def counted_dense(self):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code.co_name in builders:
                counts["dense"] += 1
                break
            frame = frame.f_back
        return dense(self)

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, counted_decomposition(getattr(np.linalg, name)))
    monkeypatch.setattr(Projector, "dense", counted_dense)

    mac = sequential_decode(MAC, sample_codebook(MAC, (0.35, 0.35), N, (0, 0)), 0.99)
    cmg = sequential_decode(CMG, sample_codebook(CMG, (0.35, 0.35, 0.0), N, (0, 0)), 0.99, region=1)
    assert max(mac.details["candidate_ranks"].values()) > 0
    assert cmg.details["chain_checks"] > 0
    assert counts == {"decomposition": 0, "dense": 0}
