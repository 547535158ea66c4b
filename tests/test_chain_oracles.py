"""Differential tests of the decoders' fast paths against dense oracles.

The sequential chain carries one failure operator and reads each success
as an O(D^2) trace; the square-root measurement reads its success, own and
cross terms the same way.  Each test recomputes those numbers the slow way,
with ``sequential_collapse`` or ``np.trace`` of dense products, on random
qubit channels with pure, rank-deficient, mixed and degenerate-spectrum
states and with empty candidates.
"""

import time

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from cqlab.channels import CqChannel
from cqlab.decoders import (
    _Entry,
    _pinv_sqrt,
    _run_sequential,
    cq_pgm_elements,
    cq_sequential_decode,
    pgm_decode,
    sample_codebook,
)
from cqlab.geometry import SeqStep, seq_success_lower_bound, sequential_collapse
from cqlab.linalg import Projector
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


def random_state(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """Density operator of the given rank; rank == dim draws I/dim half the time."""
    if rank == dim and rng.random() < 0.5:
        return np.eye(dim, dtype=complex) / dim
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


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
    report = cq_sequential_decode(chan, book, delta, gated=gated)
    ens = chan.ensemble()
    cands = cq_candidates(chan, book, delta)
    head = []
    if gated:
        gate = typical_projector(ens.average_state(), book.n, 2.0 * delta)
        head = [SeqStep(gate, "success")]
    assert report.details["candidate_ranks"] == {m: p.rank for m, p in zip(book.messages(), cands)}
    for k, (m, outcome) in enumerate(zip(book.messages(), report.outcomes)):
        steps = head + [SeqStep(p, "failure") for p in cands[:k]] + [SeqStep(cands[k], "success")]
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
    entries = [
        _Entry((labels[k], k), random_projector(rng, dim, ranks[k]), random_state(rng, dim, state_ranks[k]))
        for k in range(count)
    ]
    return entries


@given(grouped_chains())
def test_grouped_halts_match_dense_halt_oracle(entries):
    report = _run_sequential(entries, "grouped", group_of=lambda m: m[0], started=time.perf_counter())
    for k, (ent, outcome) in enumerate(zip(entries, report.outcomes)):
        # halt at candidate j: fail every earlier candidate, pass candidate j
        stops = [
            sequential_collapse(
                ent.state,
                [SeqStep(e.projector, "failure") for e in entries[:j]] + [SeqStep(entries[j].projector, "success")],
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
    # the full list, zeros included, must come out bit for bit the same
    dim = entries[0].projector.dim
    gate = random_projector(np.random.default_rng(dim), dim, max(1, dim // 2)) if gated else None
    report = _run_sequential(entries, "bounds", gate=gate, started=time.perf_counter())
    for k, (ent, outcome) in enumerate(zip(entries, report.outcomes)):
        base = ent.state if gate is None else gate.dense() @ ent.state @ gate.dense()
        hostile = [e.projector for e in entries[:k]]
        assert outcome.bound == seq_success_lower_bound(base, hostile, ent.projector)


def assert_floors_over_every_earlier_candidate(chan, book, delta, gated) -> list[float]:
    """The decoder's floors, each checked bit for bit against the full hostile list."""
    report = cq_sequential_decode(chan, book, delta, gated=gated)
    ens = chan.ensemble()
    cands = cq_candidates(chan, book, delta)
    for p in cands:
        p.dense()  # the chain reads every non-empty candidate densely before its floor
    g = typical_projector(ens.average_state(), book.n, 2.0 * delta).dense() if gated else None
    for k, (m, outcome) in enumerate(zip(book.messages(), report.outcomes)):
        rho = ens.sequence_state(book.sequences(m)[0])
        base = rho if g is None else g @ rho @ g
        assert outcome.bound == seq_success_lower_bound(base, cands[:k], cands[k])
    return [o.bound for o in report.outcomes]


@given(cq_cases(), st.booleans())
def test_decoder_bounds_equal_the_bound_over_every_earlier_candidate(case, gated):
    assert_floors_over_every_earlier_candidate(*case, gated)


def test_pinned_ill_conditioned_floor_is_bit_identical():
    # row 1 of the pinned cq/seq rows: the leak is ~4e-16 of rounding, so the
    # floor 1 - 2*sqrt(leak) moves by ~1e-8 if any trace changes its last bit
    chan = CqChannel(
        ClassicalDistribution((0, 1), (0.5, 0.5)),
        {0: np.diag([1.0, 0.0]).astype(complex), 1: np.full((2, 2), 0.5, dtype=complex)},
    )
    book = sample_codebook(chan, 0.5, 4, (5, 0))
    bounds = assert_floors_over_every_earlier_candidate(chan, book, 0.99, False)
    assert bounds[0] == 0.9999999578531515


@given(cq_cases())
def test_pgm_traces_match_dense_products(case):
    chan, book, delta = case
    elements = cq_pgm_elements(chan, book, delta)
    report = pgm_decode(chan, book, elements)
    root = _pinv_sqrt(sum(elements.values()))
    ens = chan.ensemble()
    for m, outcome in zip(book.messages(), report.outcomes):
        rho = ens.sequence_state(book.sequences(m)[0])
        success = np.trace(root @ elements[m] @ root @ rho).real
        own = np.trace(elements[m] @ rho).real
        cross = sum(np.trace(elements[i] @ rho).real for i in elements if i != m)
        assert abs(outcome.success - clip(success)) <= TOL
        assert abs(outcome.bound - (2.0 * (1.0 - own) + 4.0 * cross)) <= TOL
