"""Tests for codebook sampling, projection-chain decoders, and the PGM."""

import contextlib
import functools
import itertools
import math
import warnings

import numpy as np
import pytest

from cqlab.channels import CcqMac, CoupledMac, CqChannel
from cqlab.decoders import (
    TAU_FLOOR,
    Codebook,
    _conditional_sequence,
    monte_carlo_avg_error,
    pgm_decode,
    pgm_elements,
    sample_codebook,
    sequential_decode,
    smoothed_state_lookup,
    trajectory_estimate,
)
from cqlab.geometry import intersection_projector
from cqlab.linalg import DimensionCapError, Projector, hermitian_eig
from cqlab.smoothing import smoothed_states
from cqlab.typicality import (
    ClassicalDistribution,
    CqEnsemble,
    cond_typical_projector,
    is_typical,
)

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)

UNIF = ClassicalDistribution((0, 1), (0.5, 0.5))


@contextlib.contextmanager
def warnings_none():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    assert not caught, [str(w.message) for w in caught]


def bb84_channel() -> CqChannel:
    return CqChannel(UNIF, {0: KET0, 1: PLUS})


def bit_channel() -> CqChannel:
    return CqChannel(UNIF, {0: KET0, 1: KET1})


def random_pure_qubit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_qubit_channel(rng: np.random.Generator, symbols: int = 2) -> CqChannel:
    probs = rng.dirichlet(np.ones(symbols))
    dist = ClassicalDistribution(tuple(range(symbols)), tuple(probs))
    return CqChannel(dist, {s: random_pure_qubit(rng) for s in range(symbols)})


def crossover_mac() -> CcqMac:
    """Two-sender channel whose output confuses the mixed-parity inputs."""
    states = {(0, 0): KET0, (0, 1): PLUS, (1, 0): PLUS, (1, 1): KET1}
    return CcqMac(UNIF, UNIF, states)


def crafted_mac_codebook(mac: CcqMac) -> Codebook:
    # aligned so the lexicographically first two pairs visit all four symbols
    xw = {1: (0, 0, 1, 1), 2: (0, 1, 0, 1)}
    yw = {1: (0, 1, 0, 1), 2: (1, 0, 1, 0)}
    return Codebook(
        channel=mac, n=4, rates=(0.25, 0.25), codewords=(xw, yw), counts=(2, 2), seed=(0,)
    )


class TestCodebookSampling:
    def test_message_counts_follow_rate_formula(self):
        # [TRIVIAL] M = ceil(2^{nR}), with a floor of one message
        assert sample_codebook(bb84_channel(), 0.5, 4, 1).counts == (4,)
        assert sample_codebook(bb84_channel(), 0.25, 4, 1).counts == (2,)
        assert sample_codebook(bb84_channel(), 0.0, 4, 1).counts == (1,)
        mac = crossover_mac()
        assert sample_codebook(mac, (0.5, 0.25), 4, 1).counts == (4, 2)

    def test_zero_rate_single_message_decodes(self):
        book = sample_codebook(bb84_channel(), 0.0, 4, 3)
        assert book.messages() == [1]
        report = sequential_decode(bb84_channel(), book, 0.99)
        assert len(report.outcomes) == 1

    def test_same_seed_reproduces_and_prefixes_agree(self):
        a = sample_codebook(bb84_channel(), 0.25, 4, 7)
        b = sample_codebook(bb84_channel(), 0.25, 4, 7)
        assert a.codewords == b.codewords
        # raising the rate extends the codebook without touching earlier words
        wide = sample_codebook(bb84_channel(), 0.75, 4, 7)
        for m in (1, 2):
            assert wide.codewords[0][m] == a.codewords[0][m]

    def test_frozen_codewords(self):
        # [DERIVED] pinned draw for the per-message seeded streams
        book = sample_codebook(bb84_channel(), 0.25, 4, 7)
        assert book.codewords[0] == {1: (1, 0, 1, 1), 2: (0, 0, 1, 0)}

    def test_point_mass_prior_yields_constant_words(self):
        dist = ClassicalDistribution((0, 1), (0.0, 1.0))
        chan = CqChannel(dist, {0: KET0, 1: PLUS})
        book = sample_codebook(chan, 0.5, 5, 11)
        for word in book.codewords[0].values():
            assert word == (1, 1, 1, 1, 1)

    def test_empirical_symbol_frequency_matches_prior(self):
        # [DERIVED] law of large numbers across seeds; SE ~ 0.003 here
        ones = total = 0
        for seed in range(1500):
            book = sample_codebook(bb84_channel(), 0.5, 4, seed)
            for word in book.codewords[0].values():
                ones += sum(word)
                total += len(word)
        assert abs(ones / total - 0.5) < 0.02

    def test_coupled_sender_follows_conditional_rows(self):
        # deterministic rows make z a function of the x-word
        flip = {
            0: ClassicalDistribution((0, 1), (0.0, 1.0)),
            1: ClassicalDistribution((0, 1), (1.0, 0.0)),
        }
        ydist = ClassicalDistribution(("y",), (1.0,))
        states = {(z, "y"): KET0 if z == 0 else KET1 for z in (0, 1)}
        chan = CoupledMac(UNIF, flip, ydist, states)
        book = sample_codebook(chan, (0.5, 0.5, 0.0), 4, 5)
        for (m1, _), zw in book.codewords[1].items():
            xw = book.codewords[0][m1]
            assert zw == tuple(1 - x for x in xw)

    def test_coupled_draw_matches_one_choice_per_position(self):
        # oracle: one rng.choice(size=1, p=row) per position, the draw's definition
        def choice_loop(rows, xs, rng):
            return tuple(
                rows[x].symbols[rng.choice(len(rows[x].symbols), size=1, p=np.asarray(rows[x].probs))[0]] for x in xs
            )

        rows = {
            0: ClassicalDistribution((0, 1), (0.3, 0.7)),
            1: ClassicalDistribution(("a", "b", "c"), (0.2, 0.0, 0.8)),
            2: ClassicalDistribution(("a", "b", "c"), (1 / 3, 1 / 3, 1 / 3)),
            3: ClassicalDistribution((0, 1), (1.0, 0.0)),
        }
        for seed in range(300):
            xs = tuple(np.random.default_rng(seed).integers(0, 4, size=1 + seed % 12))
            fast = _conditional_sequence(rows, xs, np.random.default_rng(seed))
            assert fast == choice_loop(rows, xs, np.random.default_rng(seed))
            assert all(z != "b" for x, z in zip(xs, fast) if x == 1)
        # a row admitted with an entry just below zero is refused, as choice refuses it
        bad = {0: ClassicalDistribution((0, 1, 2), (0.5, 0.5 + 1e-13, -1e-13))}
        for draw in (_conditional_sequence, choice_loop):
            with pytest.raises(ValueError, match="non-negative"):
                draw(bad, (0, 0), np.random.default_rng(0))

    def test_sequence_draw_matches_one_choice_call(self):
        # oracle: rng.choice(size=n, p=probs), the draw's definition
        def choice(dist, n, rng):
            return tuple(dist.symbols[i] for i in rng.choice(len(dist.symbols), size=n, p=np.asarray(dist.probs)))

        laws = [
            ClassicalDistribution((0, 1), (0.3, 0.7)),
            ClassicalDistribution(("a", "b", "c"), (0.2, 0.0, 0.8)),
            ClassicalDistribution(("a", "b", "c"), (1 / 3, 1 / 3, 1 / 3)),
        ]
        for seed in range(300):
            for dist in laws:
                n = 1 + seed % 12
                drawn = dist.sample_sequence(n, np.random.default_rng((seed, 1)))
                assert drawn == choice(dist, n, np.random.default_rng((seed, 1)))
            assert "b" not in laws[1].sample_sequence(8, np.random.default_rng(seed))
        # a law admitted with an entry just below zero is refused, as choice refuses it
        bad = ClassicalDistribution((0, 1, 2), (0.5, 0.5 + 1e-13, -1e-13))
        for draw in (bad.sample_sequence, functools.partial(choice, bad)):
            with pytest.raises(ValueError, match="non-negative"):
                draw(2, np.random.default_rng(0))

    def test_sequences_for_pair_message_on_three_senders(self):
        flip = {0: UNIF, 1: UNIF}
        ydist = ClassicalDistribution(("y",), (1.0,))
        states = {(z, "y"): KET0 if z == 0 else KET1 for z in (0, 1)}
        chan = CoupledMac(UNIF, flip, ydist, states)
        book = sample_codebook(chan, (0.25, 0.25, 0.0), 4, 5)
        xs, zs, ys = book.sequences((1, 2, 1))
        assert (xs, zs) == book.sequences((1, 2))
        assert ys == ("y",) * 4

    def test_messages_enumerate_lexicographically(self):
        book = crafted_mac_codebook(crossover_mac())
        assert book.messages() == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_rejects_negative_rate_and_storage_blowup(self):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            sample_codebook(bb84_channel(), -0.1, 4, 1)
        with pytest.raises(ValueError, match="rates too large"):
            sample_codebook(bb84_channel(), 8.0, 1000, 1)
        with pytest.raises(ValueError, match="takes 2 rates"):
            sample_codebook(crossover_mac(), (0.5,), 4, 1)


class TestCqSequentialDecoder:
    def test_single_message_error_is_projector_overlap(self):
        # [TRIVIAL] one-step chain: error = 1 - Tr[Pi rho]
        chan = bb84_channel()
        book = sample_codebook(chan, 0.0, 4, 3)
        xs = book.codewords[0][1]
        report = sequential_decode(chan, book, 0.99)
        ens = chan.ensemble()
        proj = cond_typical_projector(ens, xs, 0.99)
        rho = ens.sequence_state(xs)
        expected = 1.0 - proj.trace_with(rho)
        assert report.outcomes[0].error == pytest.approx(expected, abs=1e-12)

    def test_frozen_two_message_chain(self):
        # [DERIVED] pinned values for the seed-7 codebook at delta = 0.99
        chan = bb84_channel()
        book = sample_codebook(chan, 0.25, 4, 7)
        report = sequential_decode(chan, book, 0.99)
        assert report.variant == "cq-sequential"
        assert report.bound_kind == "success-floor"
        assert report.outcomes[0].error == pytest.approx(0.0, abs=1e-12)
        assert report.outcomes[1].error == pytest.approx(0.4375, abs=1e-9)
        assert report.all_bounds_satisfied
        assert report.details["typical"] == {1: True, 2: True}

    def test_orthogonal_codewords_decode_perfectly_in_every_order(self):
        # balanced distinct words on the classical bit channel have mutually
        # orthogonal product-line projectors, so each chain succeeds exactly
        chan = bit_channel()
        words = {1: (0, 0, 1, 1), 2: (0, 1, 0, 1), 3: (1, 0, 1, 0), 4: (1, 1, 0, 0)}
        book = Codebook(
            channel=chan, n=4, rates=(0.5,), codewords=(words,), counts=(4,), seed=(0,)
        )
        for perm in itertools.permutations(book.messages()):
            report = sequential_decode(chan, book, 0.25, order=list(perm))
            assert max(report.errors.values()) <= 1e-12
            assert report.all_bounds_satisfied
            assert report.details["order"] == tuple(perm)

    def test_success_floor_holds_on_random_channels(self):
        # invariant: reported success never drops below the chain lower bound
        for seed in range(8):
            rng = np.random.default_rng(100 + seed)
            chan = random_qubit_channel(rng)
            book = sample_codebook(chan, 0.4, 3, seed)
            report = sequential_decode(chan, book, 0.9)
            assert report.all_bounds_satisfied

    def test_atypical_codeword_gets_zero_projector(self):
        chan = bb84_channel()
        words = {1: (0, 0, 0, 0), 2: (0, 1, 1, 0)}
        book = Codebook(
            channel=chan, n=4, rates=(0.25,), codewords=(words,), counts=(2,), seed=(0,)
        )
        report = sequential_decode(chan, book, 0.25)
        assert not is_typical(chan.prior, (0, 0, 0, 0), 0.25)
        assert report.details["typical"][1] is False
        assert report.outcomes[0].error == 1.0
        assert report.outcomes[1].error < 1.0

    def test_empty_candidates_are_reported(self):
        # typical codewords whose candidates are all empty: the error is 1.0
        # while every (negative) floor holds; the ranks say why, the report
        # flags the run as degenerate, gated or not, and counts every floor
        # as vacuous, as it counts the square-root measurement's ceilings of 2
        noisy = 0.05 * np.eye(2)
        chan = CqChannel(UNIF, {0: 0.9 * KET0 + noisy, 1: 0.9 * PLUS + noisy})
        book = sample_codebook(chan, 0.5, 6, (7, 0))
        for gated in (False, True):
            report = sequential_decode(chan, book, 0.99, gated=gated)
            assert sum(report.details["typical"].values()) == 6
            assert report.average_error == 1.0
            assert report.all_bounds_satisfied
            assert report.details["candidate_ranks"] == {m: 0 for m in book.messages()}
            assert report.details["degenerate"] == "all candidates empty"
            assert all(o.bound_vacuous for o in report.outcomes)
            assert report.vacuous_bounds == len(book.messages())
        pgm = pgm_decode(chan, book, pgm_elements(chan, book, 0.99))
        assert [o.bound for o in pgm.outcomes] == [2.0] * len(book.messages())
        assert pgm.vacuous_bounds == len(book.messages())

    def test_vacuous_bounds_are_only_those_that_cannot_fail(self):
        # the pinned cq rows: floors near 1, -1, -1.45 and -0.41, and pgm
        # ceilings of 5, 5, 5 and 2, so only the first floor can fail
        chan = bb84_channel()
        book = sample_codebook(chan, 0.5, 4, (5, 0))
        seq = sequential_decode(chan, book, 0.99)
        pgm = pgm_decode(chan, book, pgm_elements(chan, book, 0.99))
        assert [o.bound_vacuous for o in seq.outcomes] == [False, True, True, True]
        assert seq.vacuous_bounds == 3
        assert pgm.vacuous_bounds == 4

    def test_duplicate_codeword_loses_to_first_occurrence(self):
        chan = bit_channel()
        words = {1: (0, 0, 1, 1), 2: (0, 0, 1, 1)}
        book = Codebook(
            channel=chan, n=4, rates=(0.25,), codewords=(words,), counts=(2,), seed=(0,)
        )
        report = sequential_decode(chan, book, 0.25)
        assert report.outcomes[0].error == 0.0
        assert report.outcomes[1].error == 1.0
        assert report.all_bounds_satisfied

    def test_reversed_order_flips_which_message_pays(self):
        chan = bb84_channel()
        book = sample_codebook(chan, 0.25, 4, 7)
        lex = sequential_decode(chan, book, 0.99)
        rev = sequential_decode(chan, book, 0.99, order=[2, 1])
        assert rev.details["order"] == (2, 1)
        assert rev.errors[2] < lex.errors[2]

    def test_gated_variant_tags_and_matches_plain_on_classical_words(self):
        chan = bit_channel()
        words = {1: (0, 0, 1, 1), 2: (1, 1, 0, 0)}
        book = Codebook(
            channel=chan, n=4, rates=(0.25,), codewords=(words,), counts=(2,), seed=(0,)
        )
        plain = sequential_decode(chan, book, 0.25)
        gated = sequential_decode(chan, book, 0.25, gated=True)
        assert gated.variant == "cq-sequential-gated"
        for m in book.messages():
            assert gated.errors[m] == pytest.approx(plain.errors[m], abs=1e-12)
        assert gated.all_bounds_satisfied

    def test_gated_bound_holds_on_bb84(self):
        chan = bb84_channel()
        book = sample_codebook(chan, 0.25, 4, 7)
        report = sequential_decode(chan, book, 0.99, gated=True)
        assert report.all_bounds_satisfied

    def test_trajectory_sampler_agrees_with_exact_chain(self):
        # invariant: physical-simulation estimate within 3 SE of the chain
        chan = bb84_channel()
        book = sample_codebook(chan, 0.25, 4, 7)
        ens = chan.ensemble()
        projs = [cond_typical_projector(ens, book.codewords[0][m], 0.99) for m in (1, 2)]
        rho = ens.sequence_state(book.codewords[0][2])
        steps = [(projs[0], "failure"), (projs[1], "success")]
        result = trajectory_estimate(rho, steps, 100_000, 42)
        exact = 0.5625
        margin = 3.0 * result["standard_error"] + 1e-6
        assert abs(result["estimate"] - exact) <= margin
        assert result["trials"] == 100_000

    def test_trajectory_conditionals_match_direct_conjugation(self):
        # oracle: the per-step conjugation loop, each trace over the one before
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = g @ g.conj().T / np.real(np.trace(g @ g.conj().T))
            steps = []
            for _ in range(int(rng.integers(0, 5))):
                rank = int(rng.integers(0, d + 1))
                vecs = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(rank)]
                proj = Projector.from_vectors(vecs) if rank else Projector.zero(d)
                steps.append((proj, "failure" if rng.random() < 0.5 else "success"))
            expected = []
            current = rho.copy()
            for proj, pass_on in steps:
                e = proj.dense() if pass_on == "success" else np.eye(d, dtype=complex) - proj.dense()
                nxt = e @ current @ e
                before = float(np.real(np.trace(current)))
                after = float(np.real(np.trace(nxt)))
                expected.append(0.0 if before <= 0.0 else min(1.0, max(0.0, after / before)))
                current = nxt
            assert trajectory_estimate(rho, steps, 10, 3)["conditionals"] == tuple(expected)

    def test_trajectory_validates_inputs(self):
        with pytest.raises(ValueError, match="unit-trace"):
            trajectory_estimate(2.0 * KET0, [], 10, 1)
        with pytest.raises(ValueError, match="at least 1"):
            trajectory_estimate(KET0, [], 0, 1)

    def test_identity_state_fn_reproduces_default(self):
        # the default path factors product states symbol by symbol, state_fn
        # results are factored whole, so the two agree to rounding
        chan = bb84_channel()
        book = sample_codebook(chan, 0.25, 4, 7)
        ens = chan.ensemble()
        plain = sequential_decode(chan, book, 0.99)
        via_fn = sequential_decode(
            chan, book, 0.99, state_fn=lambda xs: ens.sequence_state(xs)
        )
        for m in book.messages():
            assert via_fn.errors[m] == pytest.approx(plain.errors[m], abs=1e-12)
            assert via_fn.bounds[m] == pytest.approx(plain.bounds[m], abs=1e-12)

    def test_smoothed_states_plug_in_through_lookup(self):
        chan = bb84_channel()
        book = sample_codebook(chan, 0.25, 4, 7)
        trip = ClassicalDistribution(((0, "z", "y"), (1, "z", "y")), (0.5, 0.5))
        system = CqEnsemble(trip, {(0, "z", "y"): KET0, (1, "z", "y"): PLUS})
        triples = [(book.codewords[0][m], ("z",) * 4, ("y",) * 4) for m in (1, 2)]
        smoothed = smoothed_states(system, 4, 0.2, triples=triples)
        report = sequential_decode(
            chan, book, 0.99, state_fn=smoothed_state_lookup(smoothed)
        )
        plain = sequential_decode(chan, book, 0.99)
        assert report.all_bounds_satisfied
        assert report.errors != plain.errors

    def test_shared_maximally_mixed_state_is_read_only(self):
        # every atypical record aliases one I/D array; a write through one
        # record would corrupt all of them, so the array refuses writes
        chan = bb84_channel()
        book = sample_codebook(chan, 0.5, 4, 0)
        trip = ClassicalDistribution(((0, "z", "y"), (1, "z", "y")), (0.5, 0.5))
        system = CqEnsemble(trip, {(0, "z", "y"): KET0, (1, "z", "y"): PLUS})
        smoothed = smoothed_states(system, 4, 0.2)
        lookup = smoothed_state_lookup(smoothed)
        codewords = [book.codewords[0][m] for m in book.messages()]
        flags = [smoothed.record_for(xs, ("z",) * 4, ("y",) * 4).typical for xs in codewords]
        assert True in flags and False in flags
        state = lookup(codewords[flags.index(False)])
        with pytest.raises(ValueError):
            state[0, 0] = 1.0
        assert np.array_equal(state, np.eye(16) / 16.0)
        seq = sequential_decode(chan, book, 0.99, state_fn=lookup)
        pgm = pgm_decode(chan, book, pgm_elements(chan, book, 0.99), state_fn=lookup)
        for report in (seq, pgm):
            assert set(report.errors) == set(book.messages())
            assert all(0.0 <= e <= 1.0 for e in report.errors.values())

    def test_order_must_be_a_permutation(self):
        chan = bb84_channel()
        book = sample_codebook(chan, 0.25, 4, 7)
        with pytest.raises(ValueError, match="permutation"):
            sequential_decode(chan, book, 0.99, order=[1, 1])
        with pytest.raises(ValueError, match="permutation"):
            sequential_decode(chan, book, 0.99, order=[1])

    def test_dimension_cap_trips_on_long_blocks(self):
        chan = bit_channel()
        book = sample_codebook(chan, 0.1, 13, 1)
        with pytest.raises(DimensionCapError):
            sequential_decode(chan, book, 0.5)


class TestMacSequentialDecoder:
    def test_frozen_crossover_values(self):
        # [DERIVED] pinned run: the first pair decodes partially, both
        # atypical pairs get zero projectors and fail outright
        mac = crossover_mac()
        book = crafted_mac_codebook(mac)
        report = sequential_decode(mac, book, 0.25)
        assert report.variant == "ccq-mac-sequential"
        assert report.errors[(1, 1)] == pytest.approx(0.46920995705504487, abs=1e-9)
        assert report.errors[(1, 2)] == pytest.approx(0.5137679814671247, abs=1e-9)
        assert report.errors[(2, 1)] == 1.0
        assert report.errors[(2, 2)] == 1.0
        assert report.details["typical"] == {
            (1, 1): True, (1, 2): True, (2, 1): False, (2, 2): False
        }
        assert report.details["measured_epsilon"] == pytest.approx(
            0.46920995705504476, abs=1e-9
        )
        assert report.details["tau"] == pytest.approx(0.3150109803397979, abs=1e-9)
        assert report.all_bounds_satisfied

    def test_classical_pairs_decode_exactly(self):
        # XOR-output channel: typical pairs give orthogonal product lines, the
        # two-stage intersection keeps everything (measured epsilon is zero)
        states = {(0, 0): KET0, (0, 1): KET1, (1, 0): KET1, (1, 1): KET0}
        mac = CcqMac(UNIF, UNIF, states)
        book = crafted_mac_codebook(mac)
        report = sequential_decode(mac, book, 0.25)
        assert [report.errors[m] for m in book.messages()] == [0.0, 0.0, 1.0, 1.0]
        assert report.details["measured_epsilon"] == 0.0
        assert report.details["tau"] == 1.0

    def test_first_message_matches_intersection_mirror(self):
        # [TRIVIAL] lexicographically first message sees a one-step chain
        mac = crossover_mac()
        book = crafted_mac_codebook(mac)
        report = sequential_decode(mac, book, 0.25)
        xs, ys = book.sequences((1, 1))
        pair_seq = tuple(zip(xs, ys))
        pair_proj = cond_typical_projector(mac.pair_ensemble(), pair_seq, 0.25)
        y_proj = cond_typical_projector(mac.y_ensemble(), ys, 1.5)
        tilde = intersection_projector(pair_proj, y_proj, report.details["tau"])
        rho = mac.pair_ensemble().sequence_state(pair_seq)
        assert report.errors[(1, 1)] == pytest.approx(
            1.0 - tilde.trace_with(rho), abs=1e-10
        )

    def test_x_blind_channel_guesses_among_x_messages(self):
        # states depend only on y: the chain absorbs each y-word at its first
        # appearance, so exactly one m1 per y-message survives
        states = {(x, y): (KET0 if y == 0 else KET1) for x in (0, 1) for y in (0, 1)}
        mac = CcqMac(UNIF, UNIF, states)
        xw = {1: (0, 0, 1, 1), 2: (1, 1, 0, 0)}
        yw = {1: (0, 1, 0, 1), 2: (1, 0, 1, 0)}
        book = Codebook(
            channel=mac, n=4, rates=(0.25, 0.25), codewords=(xw, yw), counts=(2, 2),
            seed=(0,),
        )
        report = sequential_decode(mac, book, 0.25)
        assert all(report.details["typical"].values())
        assert [report.errors[m] for m in book.messages()] == [0.0, 0.0, 1.0, 1.0]
        assert report.average_error == 0.5

    def test_bounds_hold_on_random_states(self):
        # invariant: Lemma-style success floor for the two-stage projectors
        for seed in range(5):
            rng = np.random.default_rng(300 + seed)
            states = {(x, y): random_pure_qubit(rng) for x in (0, 1) for y in (0, 1)}
            mac = CcqMac(UNIF, UNIF, states)
            book = crafted_mac_codebook(mac)
            report = sequential_decode(mac, book, 0.25)
            assert report.all_bounds_satisfied
            assert 0.0 < report.details["tau"] <= 1.0

    def test_explicit_epsilon_sets_tau(self):
        mac = crossover_mac()
        book = crafted_mac_codebook(mac)
        with pytest.raises(ValueError, match="epsilon must lie"):
            sequential_decode(mac, book, 0.25, epsilon=1.0)
        explicit = sequential_decode(mac, book, 0.25, epsilon=0.25)
        assert explicit.details["tau"] == pytest.approx(0.5, abs=1e-12)


def coupled_channel_for_tests(seed: int = 2) -> CoupledMac:
    """x uniform, z uniform given x, trivial y, haphazard pure outputs."""
    rng = np.random.default_rng(seed)
    rows = {0: UNIF, 1: UNIF}
    ydist = ClassicalDistribution(("y",), (1.0,))
    states = {(z, "y"): random_pure_qubit(rng) for z in (0, 1)}
    return CoupledMac(UNIF, rows, ydist, states)


def crafted_cmg_codebook(chan: CoupledMac, m3: int = 1) -> Codebook:
    xw = {1: (0, 0, 1, 1), 2: (1, 1, 0, 0)}
    zw = {
        (1, 1): (0, 1, 0, 1), (1, 2): (1, 0, 1, 0),
        (2, 1): (0, 1, 0, 1), (2, 2): (1, 0, 1, 0),
    }
    yw = {m: ("y",) * 4 for m in range(1, m3 + 1)}
    r3 = 0.0 if m3 == 1 else 0.25
    return Codebook(
        channel=chan, n=4, rates=(0.25, 0.25, r3), codewords=(xw, zw, yw),
        counts=(2, 2, m3), seed=(0,),
    )


class TestCoupledSenderDecoder:
    def test_both_regions_collapse_to_single_sender_decoding(self):
        # degenerate channel (z echoes x, trivial y, classical outputs): the
        # extra projector stages keep everything, so errors match the plain
        # single-sender chain message for message
        point = {
            0: ClassicalDistribution((0, 1), (1.0, 0.0)),
            1: ClassicalDistribution((0, 1), (0.0, 1.0)),
        }
        ydist = ClassicalDistribution(("y",), (1.0,))
        states = {(z, "y"): (KET0 if z == 0 else KET1) for z in (0, 1)}
        chan = CoupledMac(UNIF, point, ydist, states)
        cq_chan = CqChannel(UNIF, {0: KET0, 1: KET1})
        for seed in (3, 7, 21):
            triple = sample_codebook(chan, (0.5, 0.0, 0.0), 4, seed)
            single = sample_codebook(cq_chan, 0.5, 4, seed)
            assert triple.codewords[0] == single.codewords[0]
            base = sequential_decode(cq_chan, single, 0.3)
            for region in (1, 2):
                rep = sequential_decode(chan, triple, 0.3, region=region)
                got = [o.error for o in rep.outcomes]
                want = [o.error for o in base.outcomes]
                assert max(abs(g - w) for g, w in zip(got, want)) == 0.0

    def test_region1_frozen_values_and_chain_certificate(self):
        # [DERIVED] pinned run; every nonzero projector passes the operator
        # inequality check against its product envelope
        chan = coupled_channel_for_tests()
        book = crafted_cmg_codebook(chan)
        report = sequential_decode(chan, book, 0.25, region=1)
        assert report.variant == "cmg-sequential-region1"
        assert report.errors[(1, 1, 1)] == pytest.approx(0.5574405896869543, abs=1e-9)
        assert report.errors[(1, 2, 1)] == 1.0
        assert report.errors[(2, 1, 1)] == 1.0
        assert report.errors[(2, 2, 1)] == 1.0
        assert report.details["chain_checks"] == 4
        assert report.all_bounds_satisfied
        tau1, tau2 = report.details["tau"]
        assert 0.0 < tau1 <= 1.0 and 0.0 < tau2 <= 1.0

    def test_region1_groups_credit_inner_message_confusion(self):
        # duplicate y-words make (m1, m2, 1) absorb (m1, m2, 2): the triple
        # record shows the miss while the pair-level outcome stays a success
        chan = coupled_channel_for_tests()
        book = crafted_cmg_codebook(chan, m3=2)
        report = sequential_decode(chan, book, 0.25, region=1)
        joint = report.details["joint_errors"]
        assert joint[(1, 1, 2)] == 1.0
        assert report.errors[(1, 1, 2)] == pytest.approx(
            report.errors[(1, 1, 1)], abs=1e-12
        )

    def test_region2_frozen_values(self):
        # [DERIVED] pinned run of the inner-sender-only chain
        chan = coupled_channel_for_tests()
        book = crafted_cmg_codebook(chan)
        report = sequential_decode(chan, book, 0.25, region=2)
        assert report.variant == "cmg-sequential-region2"
        assert report.errors[(1, 1)] == pytest.approx(0.0, abs=1e-12)
        assert report.errors[(1, 2)] == pytest.approx(0.049794324619781394, abs=1e-9)
        assert report.errors[(2, 1)] == 1.0
        assert report.errors[(2, 2)] == pytest.approx(0.9993958598483478, abs=1e-9)
        assert report.all_bounds_satisfied

    def test_region2_warns_when_third_rate_is_too_small(self):
        rows = {0: UNIF, 1: UNIF}
        states = {(z, y): (KET0 if (z + y) % 2 == 0 else KET1) for z in (0, 1) for y in (0, 1)}
        chan = CoupledMac(UNIF, rows, UNIF, states)
        info = chan.labeled_state().mutual_information("Y:B|Z")
        assert info > 0.5
        low = sample_codebook(chan, (0.25, 0.25, 0.1), 4, 3)
        with pytest.warns(UserWarning, match="region 2 requested"):
            sequential_decode(chan, low, 0.25, region=2)
        high = sample_codebook(chan, (0.25, 0.25, info + 0.05), 4, 3)
        with warnings_none():
            sequential_decode(chan, high, 0.25, region=2)

    def test_region_argument_is_validated(self):
        chan = coupled_channel_for_tests()
        book = crafted_cmg_codebook(chan)
        with pytest.raises(ValueError, match="needs region 1 or 2"):
            sequential_decode(chan, book, 0.25, region=3)
        with pytest.raises(ValueError, match="needs region 1 or 2"):
            pgm_elements(chan, book, 0.25, region=3)

    @pytest.mark.parametrize("region", [1, 2])
    def test_tau_and_epsilon_are_validated_in_both_regions(self, region):
        # region 2 has no narrowing to tune, yet refuses the same bad epsilon
        # as region 1; an epsilon just below 1 keeps each tau = 1 - sqrt(epsilon)
        # at TAU_FLOOR, never at 0
        chan = coupled_channel_for_tests()
        book = crafted_cmg_codebook(chan)
        for bad in (5.0, 0.0, 1.0):
            with pytest.raises(ValueError, match="epsilon must lie"):
                sequential_decode(chan, book, 0.25, region=region, epsilon=bad)
        report = sequential_decode(chan, book, 0.25, region=region, epsilon=math.nextafter(1.0, 0.0))
        if region == 1:
            assert report.details["tau"] == (TAU_FLOOR, TAU_FLOOR)


def test_rows_refuse_what_their_family_does_not_take():
    # one entry point per decoder: each family's rows refuse a gate they do
    # not have and a region they do not take, with the same messages for both
    cq, mac, cmg = bb84_channel(), crossover_mac(), coupled_channel_for_tests()
    cq_book, mac_book, cmg_book = sample_codebook(cq, 0.25, 4, 1), crafted_mac_codebook(mac), crafted_cmg_codebook(cmg)
    assert sequential_decode(cq, cq_book, 0.99, gated=True).variant == "cq-sequential-gated"
    with pytest.raises(ValueError, match="gated decode is not available"):
        sequential_decode(mac, mac_book, 0.25, gated=True)
    for region in (1, 2):
        with pytest.raises(ValueError, match="gated decode is not available"):
            sequential_decode(cmg, cmg_book, 0.25, region=region, gated=True)
    for build in (sequential_decode, pgm_elements):
        for chan, book in ((cq, cq_book), (mac, mac_book)):
            with pytest.raises(ValueError, match="region 1 given, but only a coupled three-sender channel takes one"):
                build(chan, book, 0.25, region=1)
        for region in (None, 0, 3):
            with pytest.raises(ValueError, match="a coupled three-sender channel needs region 1 or 2"):
                build(cmg, cmg_book, 0.25, region=region)


def test_a_gated_average_on_a_family_without_a_gate_draws_no_codebook(monkeypatch):
    # "seq-gated" is refused with sequential_decode's own message before the
    # first codebook is drawn, as a bad region or epsilon is
    import cqlab.decoders

    def refuse(*_, **__):
        raise AssertionError("a codebook was drawn")

    monkeypatch.setattr(cqlab.decoders, "sample_codebook", refuse)
    cases = [(crossover_mac(), (0.25, 0.25), None)]
    cases += [(coupled_channel_for_tests(), (0.25, 0.25, 0.0), region) for region in (1, 2)]
    for chan, rates, region in cases:
        with pytest.raises(ValueError, match="^a gated decode is not available for this channel$"):
            monte_carlo_avg_error(chan, rates, 4, 1, 0, "seq-gated", delta=0.25, region=region)


class TestPrettyGoodMeasurement:
    def test_single_element_uses_support_projector(self):
        # [TRIVIAL] one message: Upsilon is the support projector of Pi
        chan = bb84_channel()
        book = sample_codebook(chan, 0.0, 4, 3)
        elements = pgm_elements(chan, book, 0.99)
        report = pgm_decode(chan, book, elements)
        ens = chan.ensemble()
        proj = cond_typical_projector(ens, book.codewords[0][1], 0.99)
        rho = ens.sequence_state(book.codewords[0][1])
        assert report.outcomes[0].error == pytest.approx(
            1.0 - proj.trace_with(rho), abs=1e-10
        )

    def test_orthogonal_cover_is_exact(self):
        # orthogonal projectors: Sigma^{-1/2} acts as identity on each block
        chan = bit_channel()
        words = {1: (0, 0, 1, 1), 2: (0, 1, 0, 1), 3: (1, 0, 1, 0), 4: (1, 1, 0, 0)}
        book = Codebook(
            channel=chan, n=4, rates=(0.5,), codewords=(words,), counts=(4,), seed=(0,)
        )
        report = pgm_decode(chan, book, pgm_elements(chan, book, 0.25))
        assert max(report.errors.values()) <= 1e-12
        assert report.all_bounds_satisfied

    def test_matches_independent_square_root_oracle(self):
        # [DERIVED] recompute Upsilon_i = S^{-1/2} Pi_i S^{-1/2} from scratch
        chan = bb84_channel()
        book = sample_codebook(chan, 0.25, 4, 7)
        elements = pgm_elements(chan, book, 0.99)
        report = pgm_decode(chan, book, elements)
        dense = {m: f @ f.conj().T for m, f in elements.items()}
        sigma = sum(dense.values())
        vals, vecs = hermitian_eig(sigma)
        keep = vals > max(vals.max() * 1e-10, 1e-14)
        root = vecs[:, keep] @ np.diag(1.0 / np.sqrt(vals[keep])) @ vecs[:, keep].conj().T
        ens = chan.ensemble()
        for m in book.messages():
            upsilon = root @ dense[m] @ root
            rho = ens.sequence_state(book.codewords[0][m])
            expected = 1.0 - float(np.real(np.trace(upsilon @ rho)))
            assert report.errors[m] == pytest.approx(expected, abs=1e-10)

    def test_error_ceiling_holds_on_random_channels(self):
        # invariant: exact PGM error never exceeds the union-style ceiling
        for seed in range(6):
            rng = np.random.default_rng(500 + seed)
            chan = random_qubit_channel(rng)
            book = sample_codebook(chan, 0.5, 3, seed)
            report = pgm_decode(chan, book, pgm_elements(chan, book, 0.9))
            assert report.bound_kind == "error-ceiling"
            assert report.all_bounds_satisfied

    def test_mac_recipe_runs_with_bounds(self):
        mac = crossover_mac()
        book = crafted_mac_codebook(mac)
        elements = pgm_elements(mac, book, 0.25)
        for m, f in elements.items():
            low = float(np.linalg.eigvalsh(f @ f.conj().T).min())
            assert low > -1e-9
        report = pgm_decode(mac, book, elements)
        assert report.all_bounds_satisfied
        assert report.errors[(2, 1)] == 1.0

    def test_cmg_recipes_run_with_bounds(self):
        chan = coupled_channel_for_tests()
        book = crafted_cmg_codebook(chan)
        for region in (1, 2):
            elements = pgm_elements(chan, book, 0.25, region=region)
            report = pgm_decode(chan, book, elements)
            assert report.all_bounds_satisfied


# [DERIVED] (message, error, bound) per family-table entry at delta = 0.99,
# recorded from the per-family decoder bodies that preceded the shared
# candidate pipeline; see TestMonteCarlo.test_single_trial_equals_direct_decode.
PINNED_ROWS = {
    ('cq', 'seq', None): [
        (1, 8.881784197001252e-16, 0.9999999578531515),
        (2, 1.0, -1.0),
        (3, 1.0, -1.4494897427831779),
        (4, 0.43750000000000044, -0.41421356237309537),
    ],
    ('cq', 'seq-gated', None): [
        (1, 0.19885553409355783, 0.28213192169043666),
        (2, 1.0, -0.9970925977992099),
        (3, 1.0, -1.5203362323789271),
        (4, 0.6035135291010363, -0.726535446900207),
    ],
    ('cq', 'pgm', None): [
        (1, 0.5229379273840344, 4.999999999999999),
        (2, 0.5229379273840344, 4.999999999999999),
        (3, 1.0, 4.999999999999998),
        (4, 0.09175170953613754, 2.0),
    ],
    ('ccq-mac', 'seq', None): [
        ((1, 1), 0.0, 1.0),
        ((1, 2), 1.0, -1.1213203435596424),
        ((2, 1), 1.0, -1.0),
        ((2, 2), 1.0, -1.2360679774997898),
    ],
    ('ccq-mac', 'pgm', None): [
        ((1, 1), 0.5000000000000004, 3.999999999999999),
        ((1, 2), 1.0, 2.9999999999999996),
        ((2, 1), 0.5000000000000004, 3.999999999999999),
        ((2, 2), 1.0, 2.9999999999999996),
    ],
    ('cmg-mac', 'seq', 1): [
        ((1, 1, 1), 0.0, 1.0000000000000013),
        ((1, 2, 1), 1.0, -1.025058085078405),
        ((1, 3, 1), 0.049794324619781505, 0.6824149752563644),
        ((2, 1, 1), 1.0, -1.122784729636022),
        ((2, 2, 1), 0.21943810100119843, 0.2885121164939781),
        ((2, 3, 1), 1.0, -1.5460221290313467),
        ((3, 1, 1), 0.40536193058719483, -0.06835624108400884),
        ((3, 2, 1), 0.5073259270259314, -0.2504555888365838),
        ((3, 3, 1), 0.4168567869808405, -0.22284619228769187),
    ],
    ('cmg-mac', 'pgm', 1): [
        ((1, 1, 1), 0.07196800203349418, 1.4953528099925082),
        ((1, 2, 1), 1.0, 6.277900305242207),
        ((1, 3, 1), 0.07196800203349407, 1.4953528099925075),
        ((2, 1, 1), 1.0, 4.664832661025617),
        ((2, 2, 1), 0.07196800203349463, 1.4953528099925095),
        ((2, 3, 1), 1.0, 5.471366483133916),
        ((3, 1, 1), 0.09625115695435449, 1.8167466838405877),
        ((3, 2, 1), 0.09625115695435449, 1.8167466838405864),
        ((3, 3, 1), 0.07196800203349496, 1.495352809992509),
    ],
    ('cmg-mac', 'seq', 2): [
        ((1, 1), 0.0, 1.0000000000000013),
        ((1, 2), 1.0, -1.025058085078405),
        ((1, 3), 0.049794324619780395, 0.6824149752563684),
        ((2, 1), 1.0, -1.1227847296360225),
        ((2, 2), 0.21943810100119854, 0.28851211649397857),
        ((2, 3), 1.0, -1.5460221290313472),
        ((3, 1), 0.40536193058719405, -0.06835624108400795),
        ((3, 2), 0.5073259270259308, -0.2504555888365829),
        ((3, 3), 0.4168567869808405, -0.2228461922876923),
    ],
    ('cmg-mac', 'pgm', 2): [
        ((1, 1), 0.07196800203349385, 1.4953528099925073),
        ((1, 2), 1.0, 6.277900305242241),
        ((1, 3), 0.07196800203349407, 1.4953528099925077),
        ((2, 1), 1.0, 4.66483266102564),
        ((2, 2), 0.0719680020334944, 1.4953528099925086),
        ((2, 3), 1.0, 5.471366483133945),
        ((3, 1), 0.09625115695435493, 1.8167466838405888),
        ((3, 2), 0.09625115695435471, 1.816746683840588),
        ((3, 3), 0.0719680020334943, 1.4953528099925089),
    ],
}


CHAIN_KEYS = {"delta", "typical", "order", "candidate_ranks"}
TUNED_KEYS = {"tau", "measured_epsilon", "warnings"}
# details keys per family-table entry; tau and measured_epsilon are scalars
# for ccq-mac and pairs for cmg region 1
DETAIL_KEYS = {
    ("cq", "seq", None): CHAIN_KEYS,
    ("cq", "seq-gated", None): CHAIN_KEYS,
    ("cq", "pgm", None): {"support_rank"},
    ("ccq-mac", "seq", None): CHAIN_KEYS | TUNED_KEYS,
    ("ccq-mac", "pgm", None): {"support_rank"},
    ("cmg-mac", "seq", 1): CHAIN_KEYS | TUNED_KEYS | {"region", "chain_checks", "joint_errors"},
    ("cmg-mac", "pgm", 1): {"support_rank"},
    ("cmg-mac", "seq", 2): CHAIN_KEYS | {"region", "r3_threshold"},
    ("cmg-mac", "pgm", 2): {"support_rank"},
}


class TestMonteCarlo:
    def test_single_trial_equals_direct_decode(self):
        # every family-table entry: one Monte Carlo trial is the direct public
        # call on codebook (seed, 0), matches the pinned rows to 1e-12 and
        # reports exactly the pinned details keys
        configs = {  # family -> (channel, rates, n, seed)
            "cq": (bb84_channel(), 0.5, 4, 5),
            "ccq-mac": (crossover_mac(), (0.25, 0.25), 4, 5),
            "cmg-mac": (coupled_channel_for_tests(), (0.25, 0.25, 0.0), 5, 8),
        }
        direct = {
            ("cq", "seq", None): lambda ch, bk: sequential_decode(ch, bk, 0.99),
            ("cq", "seq-gated", None): lambda ch, bk: sequential_decode(ch, bk, 0.99, gated=True),
            ("cq", "pgm", None): lambda ch, bk: pgm_decode(ch, bk, pgm_elements(ch, bk, 0.99)),
            ("ccq-mac", "seq", None): lambda ch, bk: sequential_decode(ch, bk, 0.99),
            ("ccq-mac", "pgm", None): lambda ch, bk: pgm_decode(ch, bk, pgm_elements(ch, bk, 0.99)),
        }
        for region in (1, 2):
            direct[("cmg-mac", "seq", region)] = (
                lambda ch, bk, r=region: sequential_decode(ch, bk, 0.99, region=r)
            )
            direct[("cmg-mac", "pgm", region)] = (
                lambda ch, bk, r=region: pgm_decode(ch, bk, pgm_elements(ch, bk, 0.99, region=r))
            )
        assert set(direct) == set(PINNED_ROWS)
        for (family, variant, region), decode in direct.items():
            chan, rates, n, seed = configs[family]
            result = monte_carlo_avg_error(
                chan, rates, n, 1, seed, variant, delta=0.99, region=region, keep_reports=True
            )
            report = decode(chan, sample_codebook(chan, rates, n, (seed, 0)))
            rows = [(o.message, o.error, o.bound) for o in report.outcomes]
            assert [(o.message, o.error, o.bound) for o in result["reports"][0].outcomes] == rows
            # a decode report is a value: the same codebook gives an equal report
            assert result["reports"][0] == report
            assert result["mean_error"] == report.average_error
            assert result["standard_error"] == 0.0
            assert result["trials"] == 1
            pinned = PINNED_ROWS[(family, variant, region)]
            assert [m for m, _, _ in rows] == [m for m, _, _ in pinned]
            for (_, err, bnd), (_, err0, bnd0) in zip(rows, pinned):
                assert abs(err - err0) <= 1e-12 and abs(bnd - bnd0) <= 1e-12
            # not every candidate is empty, so the pins test real chains
            assert min(err for _, err, _ in rows) < 1.0
            if report.bound_kind == "success-floor":
                assert max(report.details["candidate_ranks"].values()) > 0
                assert "degenerate" not in report.details
            assert set(report.details) == DETAIL_KEYS[(family, variant, region)]
            if "tau" in report.details:
                shape = () if family == "ccq-mac" else (2,)
                assert np.shape(report.details["tau"]) == np.shape(report.details["measured_epsilon"]) == shape

    def test_repeat_runs_are_identical(self):
        chan = bb84_channel()
        a = monte_carlo_avg_error(chan, 0.25, 4, 3, 11, "seq", delta=0.99)
        b = monte_carlo_avg_error(chan, 0.25, 4, 3, 11, "seq", delta=0.99)
        assert a == b

    def test_frozen_noiseless_bit_run(self):
        # [DERIVED] pinned per-trial errors; duplicates and atypical draws
        # account for every nonzero entry
        chan = bit_channel()
        result = monte_carlo_avg_error(chan, 0.5, 4, 4, 5, "seq", delta=0.99)
        assert result["per_trial_errors"] == (0.5, 0.25, 0.25, 0.5)
        assert result["mean_error"] == pytest.approx(0.375, abs=1e-12)
        assert result["all_bounds_satisfied"]

    def test_summary_statistics_match_per_trial_errors(self):
        # [TRIVIAL]
        chan = bb84_channel()
        result = monte_carlo_avg_error(chan, 0.25, 4, 5, 2, "seq", delta=0.99)
        errs = np.array(result["per_trial_errors"])
        assert result["mean_error"] == pytest.approx(float(errs.mean()), abs=1e-15)
        assert result["standard_error"] == pytest.approx(
            float(errs.std(ddof=1) / math.sqrt(len(errs))), abs=1e-15
        )

    def test_out_of_range_epsilon_is_refused_by_every_decoder(self):
        # validated on every call, also where no row narrows (cq, cmg region 2)
        # and for the square-root decoder, which does not take it
        coupled = coupled_channel_for_tests()
        cases = [
            (bb84_channel(), 0.25, None, ("seq", "seq-gated", "pgm")),
            (crossover_mac(), (0.25, 0.25), None, ("seq", "pgm")),
            (coupled, (0.25, 0.25, 0.0), 1, ("seq", "pgm")),
            (coupled, (0.25, 0.25, 0.0), 2, ("seq", "pgm")),
        ]
        for chan, rates, region, variants in cases:
            for variant in variants:
                run = functools.partial(monte_carlo_avg_error, chan, rates, 4, 1, 0, variant, delta=0.25, region=region)
                with pytest.raises(ValueError, match="epsilon must lie in"):
                    run(epsilon=5.0)
        chan = bb84_channel()
        with pytest.raises(ValueError, match="epsilon must lie in"):
            sequential_decode(chan, sample_codebook(chan, 0.25, 4, 1), 0.99, epsilon=-3.0)
        # in range, a decode without a narrowing ignores it, as before
        for variant in ("seq", "pgm"):
            expected = monte_carlo_avg_error(chan, 0.25, 4, 2, 11, variant, delta=0.99)
            assert monte_carlo_avg_error(chan, 0.25, 4, 2, 11, variant, delta=0.99, epsilon=0.25) == expected

    def test_variant_dispatch(self):
        chan = bb84_channel()
        pgm = monte_carlo_avg_error(chan, 0.25, 4, 2, 11, "pgm", delta=0.99)
        assert pgm["variant"] == "pgm"
        gated = monte_carlo_avg_error(chan, 0.25, 4, 2, 11, "seq-gated", delta=0.99)
        assert gated["variant"] == "cq-sequential-gated"
        with pytest.raises(ValueError, match="not available"):
            monte_carlo_avg_error(chan, 0.25, 4, 2, 11, "bogus", delta=0.99)
        with pytest.raises(ValueError, match="only a coupled three-sender channel takes one"):
            monte_carlo_avg_error(chan, 0.25, 4, 1, 11, "seq", delta=0.99, region=1)
        coupled = coupled_channel_for_tests()
        with pytest.raises(ValueError, match="needs region"):
            monte_carlo_avg_error(coupled, (0.25, 0.25, 0.0), 4, 1, 1, "seq", delta=0.25)
        with pytest.raises(ValueError, match="not available"):
            monte_carlo_avg_error(coupled, (0.25, 0.25, 0.0), 4, 1, 1, "seq-gated", delta=0.25, region=1)
        with pytest.raises(ValueError, match="channel takes 3 rates, got 2"):
            monte_carlo_avg_error(coupled, (0.25, 0.25), 4, 1, 1, "seq", delta=0.25, region=1)
        with pytest.raises(TypeError, match="unsupported channel type CqEnsemble"):
            monte_carlo_avg_error(chan.ensemble(), 0.25, 4, 1, 1, "seq", delta=0.99)
        with pytest.raises(TypeError, match="unsupported channel type CqEnsemble"):
            sample_codebook(chan.ensemble(), 0.25, 4, 1)


def test_public_surface_is_unchanged():
    import cqlab

    assert sorted(cqlab.__all__) == [
        "CcqMac", "ClassicalDistribution", "Codebook", "CoupledMac", "CqChannel", "CqEnsemble",
        "DIM_CAP", "DecodeReport", "DensityOperator", "DimensionCapError", "InterferenceChannel",
        "Projector", "RateRegion", "SmoothedEnsemble", "SpecError", "TypicalityParams",
        "__version__", "ccq_mac_region", "cond_typical_projector", "dump_channel",
        "entropy_bits", "hermitian_eig", "holevo_information", "intersection_projector",
        "is_typical", "jordan_decompose", "load_channel", "monte_carlo_avg_error",
        "orthonormal_basis", "parse_channel", "pgm_decode", "pgm_elements", "psd_leq",
        "region_mask", "run_suite", "run_suites", "sample_codebook", "seq_success_lower_bound",
        "sequential_collapse", "sequential_decode", "serialize_channel", "smoothed_state_lookup",
        "smoothed_states", "tensor_product", "trace_distance", "typical_projector", "typical_set",
    ]
