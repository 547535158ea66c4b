"""Differential tests of the decoders' fast paths against dense oracles.

The sequential chain carries its failure operator in low-rank form,
B = G - L R^dag, folded into one D x D term once the candidates' ranks pass
D, and reads each success and leak as a squared norm of a state factor; the
square-root measurement reads its success, own and cross terms from a thin
SVD of the stacked element factors.  Each test recomputes those numbers the
slow way, with ``sequential_collapse``, ``seq_success_lower_bound``, a dense
D x D failure operator or ``np.trace`` of dense products, on random
channels with pure, rank-deficient, mixed and degenerate-spectrum states
and with empty candidates.  Where no dense oracle is needed, a decode is
checked against itself: a local unitary on every output state, one
permutation of positions on every codeword and a swap of two input symbols
leave it unchanged.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqlab import decoders
from cqlab.channels import CcqMac, CoupledMac, CqChannel
from cqlab.decoders import (
    DENSE_FLOOR_LEAK,
    Codebook,
    _Entry,
    _nested_factor,
    _run_sequential,
    pgm_decode,
    pgm_elements,
    sample_codebook,
    sequential_decode,
)
from cqlab.geometry import seq_success_lower_bound, sequential_collapse
from cqlab.linalg import Projector, hermitian_eig
from cqlab.typicality import ClassicalDistribution, cond_typical_projector, is_typical, typical_projector

TOL = 1e-12
SPECTRA = ("pure", "mixed", "maximally-mixed", "rank-deficient-diagonal")


def qubit_state(rng: np.random.Generator, kind: str) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    pure = np.outer(v, v.conj()) / np.vdot(v, v).real
    if kind == "pure":
        return pure
    if kind == "mixed":
        return 0.7 * pure + 0.15 * np.eye(2)
    if kind == "maximally-mixed":
        return np.eye(2, dtype=complex) / 2
    return np.diag([1.0, 0.0]).astype(complex)


def random_factor(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """A with A A^dag a density operator of the given rank; rank == dim gives I/dim half the time."""
    if rank == dim and rng.random() < 0.5:
        return np.eye(dim, dtype=complex) / np.sqrt(dim)
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return g / np.linalg.norm(g)


def pinv_sqrt(m: np.ndarray) -> np.ndarray:
    """Dense S^{-1/2} on the support of S, eigenvalues cut at max(1e-10 * top, 1e-14)."""
    w, v = hermitian_eig(m)
    top = float(np.max(w)) if w.size else 0.0
    cut = max(top * 1e-10, 1e-14)
    inv = np.where(w > cut, 1.0 / np.sqrt(np.where(w > cut, w, 1.0)), 0.0)
    return (v * inv) @ v.conj().T


def random_projector(rng: np.random.Generator, dim: int, rank: int) -> Projector:
    if rank == 0:
        return Projector.zero(dim)
    vecs = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return Projector.from_vectors(list(vecs.T))


@st.composite
def cq_cases(draw):
    """(channel, codebook, delta) with n <= 4 and at most 8 codewords."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = [draw(st.sampled_from(SPECTRA)) for _ in range(2)]
    p = draw(st.sampled_from((0.25, 0.5, 0.75)))
    chan = CqChannel(
        ClassicalDistribution((0, 1), (p, 1.0 - p)),
        {0: qubit_state(rng, kinds[0]), 1: qubit_state(rng, kinds[1])},
    )
    n = draw(st.integers(1, 4))
    rate = draw(st.sampled_from((0.25, 0.5, 0.75)))
    book = sample_codebook(chan, rate, n, draw(st.integers(0, 1000)))
    return chan, book, draw(st.sampled_from((0.1, 0.5, 0.99)))


def cq_candidates(chan, book, delta) -> list[Projector]:
    ens = chan.ensemble()
    dim = chan.dim**book.n
    return [
        cond_typical_projector(ens, xs, delta) if is_typical(chan.prior, xs, delta) else Projector.zero(dim)
        for (xs,) in map(book.sequences, book.messages())
    ]


def clip(p: float) -> float:
    return min(1.0, max(0.0, p))


@given(cq_cases(), st.booleans())
def test_fast_chain_matches_collapse_of_every_message(case, gated):
    chan, book, delta = case
    report = sequential_decode(chan, book, delta, gated=gated)
    ens = chan.ensemble()
    cands = cq_candidates(chan, book, delta)
    head = []
    if gated:
        gate = typical_projector(ens.average_state(), book.n, 2.0 * delta)
        head = [(gate, "success")]
    assert report.details["candidate_ranks"] == {m: p.rank for m, p in zip(book.messages(), cands)}
    for k, (m, outcome) in enumerate(zip(book.messages(), report.outcomes)):
        steps = head + [(p, "failure") for p in cands[:k]] + [(cands[k], "success")]
        rho = ens.sequence_state(book.sequences(m)[0])
        exact = sequential_collapse(rho, steps).success_probability
        assert abs(outcome.success - clip(exact)) <= TOL


@st.composite
def grouped_chains(draw):
    """Random candidates, states and group labels on a space of dimension <= 8."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from((2, 4, 8)))
    count = draw(st.integers(1, 6))
    ranks = [draw(st.integers(0, dim)) for _ in range(count)]
    state_ranks = [draw(st.integers(1, dim)) for _ in range(count)]
    labels = [draw(st.integers(0, 2)) for _ in range(count)]
    entries = []
    for k in range(count):
        a = random_factor(rng, dim, state_ranks[k])
        rho = a @ a.conj().T
        entries.append(_Entry((labels[k], k), random_projector(rng, dim, ranks[k]), a, lambda rho=rho: rho))
    return entries


def leak_of(total: float, floor: float) -> float:
    """The leak behind a floor total - 2 sqrt(leak)."""
    return ((total - floor) / 2.0) ** 2


def assert_same_leak(total: float, floor: float, oracle: float) -> None:
    # the floor's slope in the leak is unbounded near 0, so floors are
    # compared on the leak scale, where both sides carry rounding only
    assert abs(leak_of(total, floor) - leak_of(total, oracle)) <= TOL


@given(grouped_chains())
def test_grouped_halts_match_dense_halt_oracle(entries):
    report = _run_sequential(entries, "grouped", group_of=lambda m: m[0])
    for k, (ent, outcome) in enumerate(zip(entries, report.outcomes)):
        # halt at candidate j: fail every earlier candidate, pass candidate j
        stops = [
            sequential_collapse(
                ent.state(),
                [(e.projector, "failure") for e in entries[:j]] + [(entries[j].projector, "success")],
            ).success_probability
            for j in range(len(entries))
        ]
        grouped = sum(s for e, s in zip(entries, stops) if e.message[0] == ent.message[0])
        assert abs(outcome.error - (1.0 - clip(grouped))) <= TOL
        assert abs(report.details["joint_errors"][ent.message] - (1.0 - clip(stops[k]))) <= TOL
        assert abs(outcome.success - clip(stops[k])) <= TOL


@given(grouped_chains(), st.booleans())
def test_reported_bounds_equal_the_bound_over_every_earlier_candidate(entries, gated):
    # the chain drops empty candidates from the hostile list; the floor over
    # the full list, zeros included, must carry the same leak
    dim = entries[0].projector.dim
    gate = random_projector(np.random.default_rng(dim), dim, max(1, dim // 2)) if gated else None
    report = _run_sequential(entries, "bounds", gate=gate)
    for k, (ent, outcome) in enumerate(zip(entries, report.outcomes)):
        base = ent.state() if gate is None else gate.dense() @ ent.state() @ gate.dense()
        hostile = [e.projector for e in entries[:k]]
        oracle = seq_success_lower_bound(base, hostile, ent.projector)
        assert_same_leak(np.trace(base).real, outcome.bound, oracle)


def assert_floors_over_every_earlier_candidate(chan, book, delta, gated) -> list[float]:
    """The decoder's floors, each checked on the leak scale against the full hostile list."""
    report = sequential_decode(chan, book, delta, gated=gated)
    ens = chan.ensemble()
    cands = cq_candidates(chan, book, delta)
    g = typical_projector(ens.average_state(), book.n, 2.0 * delta).dense() if gated else None
    for k, (m, outcome) in enumerate(zip(book.messages(), report.outcomes)):
        rho = ens.sequence_state(book.sequences(m)[0])
        base = rho if g is None else g @ rho @ g
        oracle = seq_success_lower_bound(base, cands[:k], cands[k])
        assert_same_leak(np.trace(base).real, outcome.bound, oracle)
    return [o.bound for o in report.outcomes]


@given(cq_cases(), st.booleans())
def test_decoder_bounds_equal_the_bound_over_every_earlier_candidate(case, gated):
    assert_floors_over_every_earlier_candidate(*case, gated)


def test_pinned_ill_conditioned_floor_is_bit_identical():
    # row 1 of the pinned cq/seq rows: the leak is ~4e-16 of rounding, so the
    # floor 1 - 2*sqrt(leak) moves by ~1e-8 if any trace changes its last bit;
    # the ungated target leak stays dense to keep it
    chan = CqChannel(
        ClassicalDistribution((0, 1), (0.5, 0.5)),
        {0: np.diag([1.0, 0.0]).astype(complex), 1: np.full((2, 2), 0.5, dtype=complex)},
    )
    book = sample_codebook(chan, 0.5, 4, (5, 0))
    bounds = assert_floors_over_every_earlier_candidate(chan, book, 0.99, False)
    assert bounds[0] == 0.9999999578531515


def dense_pgm_oracle(elements: dict, states: dict) -> tuple[dict, int]:
    """m -> (success, own, overall) from dense S^{-1/2} E_m S^{-1/2}, and the support rank."""
    sigma = sum(elements.values())
    root = pinv_sqrt(sigma)
    traces = {
        m: (
            np.trace(root @ e @ root @ states[m]).real,
            np.trace(e @ states[m]).real,
            np.trace(sigma @ states[m]).real,
        )
        for m, e in elements.items()
    }
    return traces, int(round(np.trace(root @ sigma @ root).real))


def assert_pgm_matches_oracle(report, dense: dict, states: dict) -> None:
    traces, support = dense_pgm_oracle(dense, states)
    assert report.details["support_rank"] == support
    for outcome in report.outcomes:
        success, own, overall = traces[outcome.message]
        assert abs(outcome.success - clip(success)) <= TOL
        assert abs(outcome.bound - (2.0 * (1.0 - own) + 4.0 * (overall - own))) <= TOL


def cq_states(chan, book) -> dict:
    ens = chan.ensemble()
    return {m: ens.sequence_state(book.sequences(m)[0]) for m in book.messages()}


@given(cq_cases())
def test_pgm_traces_match_dense_products(case):
    chan, book, delta = case
    elements = pgm_elements(chan, book, delta)
    report = pgm_decode(chan, book, elements)
    assert_pgm_matches_oracle(report, {m: f @ f.conj().T for m, f in elements.items()}, cq_states(chan, book))


ELEMENT_KINDS = ("projector", "nested-1", "mac", "cmg", "dense", "zero")


def random_element(rng: np.random.Generator, dim: int, kind: str) -> tuple:
    """(element factor F as pgm_decode takes it, the dense element F F^dag of
    the given kind, formed from its own operators rather than from F)."""
    def rank() -> int:
        return int(rng.integers(1, dim + 1))

    if kind == "projector":
        p = random_projector(rng, dim, rank())
        return p.support_columns(), p.dense()
    if kind == "nested-1":
        p = random_projector(rng, dim, rank())
        return _nested_factor((p,)), p.dense()
    if kind == "mac":
        p_xy, p_y = random_projector(rng, dim, rank()), random_projector(rng, dim, rank())
        return _nested_factor((p_xy, p_y)), p_y.dense() @ p_xy.dense() @ p_y.dense()
    if kind == "cmg":
        p_zy, p_xy, p_y = (random_projector(rng, dim, rank()) for _ in range(3))
        yd, xyd = p_y.dense(), p_xy.dense()
        return _nested_factor((p_zy, p_xy, p_y)), yd @ xyd @ p_zy.dense() @ xyd @ yd
    if kind == "dense":
        k = rank()
        g = rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))
        return g / np.linalg.norm(g), g @ g.conj().T / np.linalg.norm(g) ** 2
    empty = (Projector.zero(dim).support_columns(), np.zeros((dim, 0), dtype=complex), np.zeros((dim, rank())))
    return empty[int(rng.integers(3))], np.zeros((dim, dim), dtype=complex)


@given(cq_cases(), st.lists(st.sampled_from(ELEMENT_KINDS), min_size=1, max_size=8), st.integers(0, 2**32 - 1))
def test_factored_pgm_matches_dense_square_root_oracle(case, kinds, seed):
    # pure, mixed and rank-deficient received states against element
    # factors of every kind: projector columns, one-, two- and three-layer
    # nested factors, a random factor of a dense element, and zeros (no
    # columns, or zero columns), mixed in one measurement
    chan, book, _ = case
    rng = np.random.default_rng(seed)
    dim = chan.dim**book.n
    drawn = {m: random_element(rng, dim, kinds[k % len(kinds)]) for k, m in enumerate(book.messages())}
    report = pgm_decode(chan, book, {m: e for m, (e, _) in drawn.items()})
    assert_pgm_matches_oracle(report, {m: d for m, (_, d) in drawn.items()}, cq_states(chan, book))


@given(cq_cases(), st.integers(0, 2**32 - 1))
def test_all_empty_elements_give_error_one_and_support_rank_zero(case, seed):
    chan, book, _ = case
    rng = np.random.default_rng(seed)
    dim = chan.dim**book.n
    report = pgm_decode(chan, book, {m: random_element(rng, dim, "zero")[0] for m in book.messages()})
    assert report.details["support_rank"] == 0
    assert [o.error for o in report.outcomes] == [1.0] * len(book.messages())
    assert [o.bound for o in report.outcomes] == [2.0] * len(book.messages())


LEAK_SPECTRA = ("pure", "rank-deficient", "half-identity")


def output_state(rng: np.random.Generator, dim: int, kind: str) -> np.ndarray:
    """A pure state, a random state of rank dim - 1 (pure for a qubit), or
    the identity on a random plane over 2 (I/2 for a qubit), in a random basis."""
    q = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    if kind == "pure":
        w = np.eye(dim)[0]
    elif kind == "rank-deficient":
        w = np.append(rng.dirichlet(np.ones(max(1, dim - 1))), np.zeros(dim - max(1, dim - 1)))
    else:
        w = np.append([0.5, 0.5], np.zeros(dim - 2))
    return (q * w) @ q.conj().T


@st.composite
def leak_cases(draw):
    """(channel, codebook, delta, dense oracle of each outer layer's mean leak).

    Uniform binary x, a constant y and qubit or qutrit outputs at n = 4, the
    shortest block at which the uniform input tuples have typical members.
    With 6 delta < 1 an outer layer's count windows cut nonzero eigenvalue
    labels too, so its leaks are neither pure rounding nor whole.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from((2, 3)))
    states = {(a, "y"): output_state(rng, dim, draw(st.sampled_from(LEAK_SPECTRA))) for a in (0, 1)}
    bit = ClassicalDistribution((0, 1), (0.5, 0.5))
    const = ClassicalDistribution(("y",), (1.0,))
    n = 4
    delta = draw(st.sampled_from((0.1, 0.125, 0.15)))
    seed = draw(st.integers(0, 1000))
    if draw(st.booleans()):
        chan = CcqMac(bit, const, states)
        book = sample_codebook(chan, (1.0, 0.0), n, seed)
        law, out, outer = chan.x_prior.product(chan.y_prior), chan.pair_ensemble(), chan.y_ensemble()

        def dense_leaks(xs, ys):
            rho = out.sequence_state(tuple(zip(xs, ys)))
            return [1.0 - np.trace(rho @ cond_typical_projector(outer, ys, 6.0 * delta).dense()).real]
    else:
        chan = CoupledMac(bit, {0: bit, 1: bit}, const, states)
        book = sample_codebook(chan, (0.75, 0.5, 0.0), n, seed)
        law, out = chan.labeled_state().dist, chan.zy_ensemble()
        xy, y = chan.xy_ensemble(), chan.y_ensemble()

        def dense_leaks(xs, zs, ys):
            rho = out.sequence_state(tuple(zip(zs, ys)))
            layers = (cond_typical_projector(xy, tuple(zip(xs, ys)), 6.0 * delta), cond_typical_projector(y, ys, 6.0 * delta))
            return [1.0 - np.trace(rho @ p.dense()).real for p in layers]
    leaks = [
        dense_leaks(*seqs)
        for seqs in map(book.sequences, book.messages())
        if is_typical(law, tuple(zip(*seqs)), delta)
    ]
    means = [float(np.mean(layer)) for layer in zip(*leaks)] if leaks else None
    return chan, book, delta, means


@settings(max_examples=30)
@given(leak_cases())
def test_measured_epsilon_matches_the_dense_mean_leak(case):
    # the decoder reads each leak as ||A - V (V^dag A)||^2 of the state
    # factor A; the oracle is 1 - Re Tr[rho Pi] of the dense state and projector
    chan, book, delta, means = case
    if isinstance(chan, CcqMac):
        measured = [sequential_decode(chan, book, delta).details["measured_epsilon"]]
    else:
        measured = list(sequential_decode(chan, book, delta, region=1).details["measured_epsilon"])
    if means is None:
        assert all(m is None for m in measured)
        return
    assert len(measured) == len(means)
    for got, want in zip(measured, means):
        assert abs(got - want) <= TOL


def sq(a: np.ndarray) -> float:
    return float(np.vdot(a, a).real)


def dense_floor_chain(entries, gate, group_of) -> list[tuple[float, float, float, float]]:
    """(error, own success, floor, factor leak) per message from a dense
    D x D failure operator B, with every ungated floor's total and target
    leak read from the dense state: Tr rho and Tr rho - Tr[P rho].  The
    hostile leaks are ||V_i^dag G||^2, and a gated floor reads
    G = W (W^dag A) throughout.  The factor leak is the hostile sum plus
    ||G - V (V^dag G)||^2."""
    dim = entries[0].projector.dim
    failure = np.eye(dim, dtype=complex) if gate is None else gate.dense()
    w = None if gate is None else gate.support_columns()
    own, grouped, rows, hostile = {}, {e.message: 0.0 for e in entries}, [], []
    for ent in entries:
        v = ent.projector.support_columns()
        own[ent.message] = 0.0
        if v.shape[1]:
            x = v.conj().T @ failure
            own[ent.message] = sq(x @ ent.factor)
            if group_of is not None:
                for peer in entries:
                    if group_of(peer.message) == group_of(ent.message):
                        grouped[peer.message] += sq(x @ peer.factor)
            failure = failure - v @ x
        base = ent.factor if w is None else w @ (w.conj().T @ ent.factor)
        hostile_leak = sum(sq(h.conj().T @ base) for h in hostile)
        factor_target = sq(base - v @ (v.conj().T @ base))
        if w is None:
            rho = ent.state()
            total = float(np.real(np.trace(rho)))
            target = total - ent.projector.trace_with(rho) if v.shape[1] else total
        else:
            total, target = sq(base), factor_target
        floor = total - 2.0 * math.sqrt(max(0.0, hostile_leak + target))
        rows.append((floor, hostile_leak + factor_target))
        if v.shape[1]:
            hostile.append(v)
    success = grouped if group_of is not None else own
    return [
        (1.0 - clip(success[e.message]), clip(own[e.message]), floor, leak) for e, (floor, leak) in zip(entries, rows)
    ]


@st.composite
def floor_cases(draw):
    """(decode, gated) for a cq, ccq-mac or cmg region 1/2 channel at n <= 4
    with qubit or qutrit outputs that are pure, rank-deficient or I/2, in
    lexicographic or reversed decode order.  Uniform binary x and a constant
    y, as in ``leak_cases``; cq blocks shorter than 4 and small deltas give
    atypical and all-empty books too."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from((2, 3)))
    states = {(a, "y"): output_state(rng, dim, draw(st.sampled_from(LEAK_SPECTRA))) for a in (0, 1)}
    bit = ClassicalDistribution((0, 1), (0.5, 0.5))
    const = ClassicalDistribution(("y",), (1.0,))
    family = draw(st.sampled_from(("cq", "ccq-mac", "cmg-1", "cmg-2")))
    n = draw(st.sampled_from((1, 2, 3, 4, 4, 4))) if family == "cq" else 4
    delta = draw(st.sampled_from((0.1, 0.25, 0.5, 0.99)))
    seed = draw(st.integers(0, 1000))
    gated = family == "cq" and draw(st.booleans())
    if family == "cq":
        chan = CqChannel(bit, {a: states[(a, "y")] for a in (0, 1)})
        book = sample_codebook(chan, draw(st.sampled_from((0.25, 0.5, 0.75))), n, seed)
        decode = lambda order: sequential_decode(chan, book, delta, order=order, gated=gated)
    elif family == "ccq-mac":
        chan = CcqMac(bit, const, states)
        book = sample_codebook(chan, (0.75, 0.0), n, seed)
        decode = lambda order: sequential_decode(chan, book, delta, order=order)
    else:
        chan = CoupledMac(bit, {0: bit, 1: bit}, const, states)
        book = sample_codebook(chan, (0.5, 0.25, 0.0), n, seed)
        region = int(family[-1])
        decode = lambda order: sequential_decode(chan, book, delta, region=region, order=order)
    reverse = draw(st.booleans())
    return (lambda: decode(list(reversed(decode(None).details["order"])) if reverse else None)), gated


def captured_chain(decode) -> tuple:
    """(report, entries, keyword arguments) of the last chain ``decode`` walks."""
    seen = []
    run = decoders._run_sequential

    def capture(entries, variant, **kwargs):
        seen.append((entries, kwargs))
        return run(entries, variant, **kwargs)

    with mock.patch.object(decoders, "_run_sequential", capture):
        report = decode()
    return (report, *seen[-1])


@settings(max_examples=60, deadline=None)
@given(floor_cases())
def test_floors_from_factors_match_the_dense_floor_chain(case):
    # the low-rank chain against the dense-floor chain's one D x D failure
    # operator B, on cq (gated or not), ccq-mac and cmg region 1 (grouped)
    # and 2 draws, all-empty books among them: errors and successes lie
    # within 1e-12, as B and L R^dag round differently; a floor whose factor
    # leak is below DENSE_FLOOR_LEAK reads densely and is bit-equal, as is
    # every gated floor; every other floor reads the factors and lies within
    # 1e-12
    decode, gated = case
    report, entries, kwargs = captured_chain(decode)
    oracle = dense_floor_chain(entries, kwargs.get("gate"), kwargs.get("group_of"))
    assert [o.message for o in report.outcomes] == [e.message for e in entries]
    for outcome, (error, success, floor, leak) in zip(report.outcomes, oracle):
        assert abs(outcome.error - error) <= TOL
        assert abs(outcome.success - success) <= TOL
        if gated or leak < DENSE_FLOOR_LEAK:
            assert outcome.bound == floor
        else:
            assert abs(outcome.bound - floor) <= TOL


def assert_matches_dense_failure_operator(report, entries, kwargs) -> None:
    oracle = dense_floor_chain(entries, kwargs.get("gate"), kwargs.get("group_of"))
    assert [o.message for o in report.outcomes] == [e.message for e in entries]
    for outcome, (error, success, floor, _) in zip(report.outcomes, oracle):
        assert abs(outcome.error - error) <= TOL
        assert abs(outcome.success - success) <= TOL
        assert abs(outcome.bound - floor) <= TOL


def test_multi_sender_chains_match_the_dense_failure_operator():
    # non-empty candidates at n = 6 (D = 64) on every multi-sender row,
    # region 1 with its grouped halts
    ket0, plus = np.diag([1.0, 0.0]).astype(complex), np.full((2, 2), 0.5, dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    bit = ClassicalDistribution((0, 1), (0.5, 0.5))
    mac = CcqMac(bit, bit, {(0, 0): ket0, (0, 1): plus, (1, 0): minus, (1, 1): np.eye(2) / 2})
    cmg = CoupledMac(
        bit,
        {0: ClassicalDistribution((0, 1), (0.8, 0.2)), 1: ClassicalDistribution((0, 1), (0.2, 0.8))},
        ClassicalDistribution(("y",), (1.0,)),
        {(0, "y"): ket0, (1, "y"): plus},
    )
    mac_book = sample_codebook(mac, (0.35, 0.35), 6, (0, 0))
    cmg_book = sample_codebook(cmg, (0.35, 0.35, 0.0), 6, (0, 0))
    decodes = [lambda: sequential_decode(mac, mac_book, 0.99)] + [
        lambda region=region: sequential_decode(cmg, cmg_book, 0.99, region=region) for region in (1, 2)
    ]
    for decode in decodes:
        report, entries, kwargs = captured_chain(decode)
        assert max(report.details["candidate_ranks"].values()) > 0
        assert_matches_dense_failure_operator(report, entries, kwargs)


def test_low_rank_chain_folds_once_its_ranks_exceed_the_dimension():
    # I/2 and |+><+| outputs at n = 4 (D = 16) and R = 1: the candidates'
    # ranks pass D at the eighth message, where the chain folds L R^dag into
    # one D x D term, and five non-empty candidates follow the fold
    chan = CqChannel(
        ClassicalDistribution((0, 1), (0.5, 0.5)),
        {0: np.eye(2, dtype=complex) / 2, 1: np.full((2, 2), 0.5, dtype=complex)},
    )
    book = sample_codebook(chan, 1.0, 4, 0)
    for gated in (False, True):
        report, entries, kwargs = captured_chain(lambda: sequential_decode(chan, book, 0.99, gated=gated))
        ranks = [e.projector.rank for e in entries]
        folded_at = int(np.argmax(np.cumsum(ranks) > 2**4))
        assert sum(ranks[: folded_at + 1]) > 2**4
        assert sum(r > 0 for r in ranks[folded_at + 1 :]) == 5
        assert_matches_dense_failure_operator(report, entries, kwargs)



INVARIANCE_SPECTRA = ("pure", "rank-deficient", "mixed", "degenerate")
INVARIANCE_ROWS = ("cq", "cq-gated", "ccq-mac", "cmg-1", "cmg-2")


@st.composite
def invariance_cases(draw):
    """(row, channel, codebook, delta, d x d unitary or None, permutation of positions).

    Qubit or qutrit outputs that are pure, rank-deficient, of full rank or
    I/d, at n <= 5 (n <= 4 for qutrits), on every sequential row: cq (gated
    or not), ccq-mac with two binary senders, and cmg regions 1 and 2 with a
    binary z and a constant y.  Block lengths and deltas are those at which
    the input laws have typical tuples: n >= 4 for the four equally likely
    input pairs and the (x, z) pairs of the coupled sender, n >= 2 for cq.

    A channel with an I/d output gets no unitary.  Its spectrum leaves the
    eigenbasis to the eigensolver, and a typical projector whose count
    windows cut the eigenspace depends on that basis, so the decode does
    too: it is blind to the permutation only.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from((2, 3)))
    row = draw(st.sampled_from(INVARIANCE_ROWS))
    n = draw(st.integers(2 if row.startswith("cq") else 4, 5 if dim == 2 else 4))
    delta = draw(st.sampled_from((0.25, 0.5, 0.99)))
    seed = draw(st.integers(0, 1000))

    kinds = []

    def state() -> np.ndarray:
        kind = draw(st.sampled_from(INVARIANCE_SPECTRA))
        kinds.append(kind)
        if kind == "degenerate":
            return np.eye(dim, dtype=complex) / dim
        if kind == "mixed":
            q = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
            return (q * rng.dirichlet(np.ones(dim))) @ q.conj().T
        return output_state(rng, dim, kind)

    bit = ClassicalDistribution((0, 1), (0.5, 0.5))
    if row.startswith("cq"):
        chan = CqChannel(bit, {a: state() for a in (0, 1)})
        book = sample_codebook(chan, draw(st.sampled_from((0.25, 0.5, 0.75))), n, seed)
    elif row == "ccq-mac":
        chan = CcqMac(bit, bit, {(x, y): state() for x in (0, 1) for y in (0, 1)})
        book = sample_codebook(chan, (0.5, 0.5), n, seed)
    else:
        rows = {0: ClassicalDistribution((0, 1), (0.6, 0.4)), 1: ClassicalDistribution((0, 1), (0.4, 0.6))}
        const = ClassicalDistribution(("y",), (1.0,))
        chan = CoupledMac(bit, rows, const, {(z, "y"): state() for z in (0, 1)})
        book = sample_codebook(chan, (0.5, 0.25, 0.0), n, seed)
    unitary = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    return row, chan, book, delta, None if "degenerate" in kinds else unitary, tuple(rng.permutation(n).tolist())


def near_degenerate_case() -> tuple:
    """A ccq-mac case whose outer layer hangs on the eigenvalue snap.

    The two outputs have spectra 0.55, 0.45 (and 5e-13, snapped to 0) and
    average, over a uniform x and a constant y, to 0.5 + 2e-13, 0.5 - 7e-13
    and 5e-13, in a random basis.  Snapped, the pair reads 0.5 - 2.5e-13,
    and at slack 6 delta = 1 its count windows keep every count at n = 4, so
    the outer layer is the pair's plane to the fourth power.  Unsnapped,
    the lower label's window stops at 3; the layer then depends on that
    label's own eigenvector, which rounding of order 1e-16 turns under a
    unitary, as the pair is only 9e-13 apart: the errors move by about
    1e-11.
    """
    rng = np.random.default_rng(12)
    q = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    average = np.diag([0.5 + 2e-13, 0.5 - 7e-13, 5e-13])
    tilt = np.zeros((3, 3))
    tilt[0, 1] = tilt[1, 0] = 0.05
    states = {(x, "y"): q @ (average + sign * tilt) @ q.conj().T for x, sign in ((0, 1.0), (1, -1.0))}
    chan = CcqMac(ClassicalDistribution((0, 1), (0.5, 0.5)), ClassicalDistribution(("y",), (1.0,)), states)
    book = sample_codebook(chan, (0.5, 0.0), 4, 3)
    unitary = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    return "ccq-mac", chan, book, 1.0 / 6.0, unitary, (3, 1, 0, 2)


def bench_live_cases() -> list[tuple]:
    """The benchmark's ccq-mac channel ({|0>, |+>, |->, |1>}, uniform
    priors) and coupled MAC (x uniform, z given x by rows (0.8, 0.2) and
    (0.2, 0.8), region 1) at n = 6, delta = 0.99 and rates 0.35 per sender,
    codebook seed (0, 0): multi-sender decodes with live candidates, 3 and
    4 of 25, where the drawn cases' candidates are nearly always empty."""
    rng = np.random.default_rng(6)
    bit = ClassicalDistribution((0, 1), (0.5, 0.5))
    ket0, ket1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    mac = CcqMac(bit, bit, {(0, 0): ket0, (0, 1): plus, (1, 0): minus, (1, 1): ket1})
    rows = {0: ClassicalDistribution((0, 1), (0.8, 0.2)), 1: ClassicalDistribution((0, 1), (0.2, 0.8))}
    cmg = CoupledMac(bit, rows, ClassicalDistribution(("y",), (1.0,)), {(0, "y"): ket0, (1, "y"): plus})
    cases = []
    for row, chan, rates in (("ccq-mac", mac, (0.35, 0.35)), ("cmg-1", cmg, (0.35, 0.35, 0.0))):
        unitary = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        book = sample_codebook(chan, rates, 6, (0, 0))
        cases.append((row, chan, book, 0.99, unitary, tuple(rng.permutation(6).tolist())))
    return cases


BENCH_LIVE_CASES = bench_live_cases()


def test_bench_invariance_cases_have_live_candidates():
    # the invariance examples below compare decodes that measure something
    for row, chan, book, delta, _, _ in BENCH_LIVE_CASES:
        report = sequential_decode(chan, book, delta, region=1 if row == "cmg-1" else None, epsilon=0.1)
        assert max(report.details["candidate_ranks"].values()) > 0


def rotated(chan, u: np.ndarray):
    """The channel with every output state conjugated by ``u``, priors kept."""
    return dataclasses.replace(chan, states={k: u @ rho @ u.conj().T for k, rho in chan.states.items()})


def permuted(book, order: tuple):
    """The codebook with one permutation of positions applied to every codeword."""
    return dataclasses.replace(
        book, codewords=tuple({m: tuple(seq[j] for j in order) for m, seq in cw.items()} for cw in book.codewords)
    )


SWAP = {0: 1, 1: 0}


def input_laws(chan) -> tuple:
    """Each sender's input law; the coupled sender's is its law given x = 0."""
    if isinstance(chan, CqChannel):
        return (chan.prior,)
    if isinstance(chan, CcqMac):
        return (chan.x_prior, chan.y_prior)
    return (chan.x_prior, chan.z_given_x[0], chan.y_prior)


def swapped(chan, book, sender: int) -> tuple:
    """The channel and a directly built codebook with the symbols 0 and 1 of
    one sender exchanged in its law, the state table and every codeword."""
    def law(dist):
        return ClassicalDistribution(tuple(SWAP[s] for s in dist.symbols), dist.probs)

    def states(at: int) -> dict:
        return {tuple(SWAP[s] if j == at else s for j, s in enumerate(k)): rho for k, rho in chan.states.items()}

    if isinstance(chan, CqChannel):
        other = CqChannel(law(chan.prior), {SWAP[a]: rho for a, rho in chan.states.items()})
    elif isinstance(chan, CcqMac):
        prior = ("x_prior", "y_prior")[sender]
        other = dataclasses.replace(chan, **{prior: law(getattr(chan, prior))}, states=states(sender))
    elif sender == 0:
        other = dataclasses.replace(
            chan, x_prior=law(chan.x_prior), z_given_x={SWAP[x]: row for x, row in chan.z_given_x.items()}
        )
    else:
        other = dataclasses.replace(chan, z_given_x={x: law(row) for x, row in chan.z_given_x.items()}, states=states(0))
    codewords = tuple(
        {m: tuple(SWAP[s] for s in seq) for m, seq in cw.items()} if i == sender else cw
        for i, cw in enumerate(book.codewords)
    )
    return other, Codebook(other, book.n, book.rates, codewords, book.counts, book.seed)


@settings(max_examples=60)
@given(invariance_cases())
@example(near_degenerate_case())
@example(BENCH_LIVE_CASES[0])
@example(BENCH_LIVE_CASES[1])
def test_decodes_are_blind_to_local_unitaries_and_position_permutations(case):
    # a decode depends on a channel only through its states up to a local
    # unitary U (U^{(x)n} on the block), on a codebook only up to a common
    # permutation of positions, and on neither through the names of input
    # symbols; a unitary, a permutation and a swap of two symbols of one
    # sender leave every error, success and candidate rank unchanged, and
    # every floor on the leak scale.  A fixed epsilon keeps the narrowings'
    # tau off the measured rounding-level leaks.
    row, chan, book, delta, u, order = case
    kwargs = {"gated": row == "cq-gated", "region": int(row[-1]) if row.startswith("cmg") else None, "epsilon": 0.1}
    base = sequential_decode(chan, book, delta, **kwargs)
    if row == "cq-gated":
        ens = chan.ensemble()
        gate = typical_projector(ens.average_state(), book.n, 2.0 * delta).dense()
        totals = [np.trace(gate @ ens.sequence_state(book.sequences(m)[0])).real for m in book.messages()]
    else:
        totals = [1.0] * len(base.outcomes)
    reports = [sequential_decode(chan, permuted(book, order), delta, **kwargs)]
    if u is not None:
        other = rotated(chan, u)
        reports.append(sequential_decode(other, sample_codebook(other, book.rates, book.n, book.seed), delta, **kwargs))
    for sender, law in enumerate(input_laws(chan)):
        if set(law.symbols) == {0, 1}:
            reports.append(sequential_decode(*swapped(chan, book, sender), delta, **kwargs))
    for report in reports:
        assert report.details["candidate_ranks"] == base.details["candidate_ranks"]
        assert [o.message for o in report.outcomes] == [o.message for o in base.outcomes]
        for total, got, want in zip(totals, report.outcomes, base.outcomes):
            assert abs(got.error - want.error) <= TOL
            assert abs(got.success - want.success) <= TOL
            assert_same_leak(total, got.bound, want.bound)
