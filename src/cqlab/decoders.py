"""Random codebooks and exact simulation of projection-chain decoders.

Encoders draw i.i.d. codewords from the channel input laws with one RNG
stream per message, so enlarging a codebook never disturbs the codewords
already drawn.  Decoding is one pipeline read off a table, with one entry
point per decoder.  Each decode target (the cq channel, the ccq-MAC, and
regions 1 and 2 of the coupled MAC) is a ``_Layout`` row: the law its
codeword tuples must be typical for, and its conditionally typical
projectors from the candidate outward, each outer one narrowing the
candidate by one ``intersection_projector`` step.  ``_parts`` builds each
message's projectors (None when its codeword tuple is not typical);
``sequential_decode`` folds them into one candidate per message and walks
the chain once (``_run_sequential``, checked on each run against a collapse
of the last message's state), while ``pgm_elements`` turns the same parts
into nested factors for ``pgm_decode``.  Every run reports the matching
closed-form bound next to the simulated value; ``_FAMILIES`` holds what
differs per channel type, down to the gate, the variant names and the
region-2 rate check, so neither entry point branches on the family.

States and elements are held as factors: a received state as A with
rho = A A^dag (for product states the Kronecker product of per-symbol
factors), a measurement element as F with E = F F^dag.  With D the output
dimension, r a candidate's rank and s the summed ranks of the candidates
passed, each chain step costs O(D (r_G + s) r) on a low-rank failure
operator (r_G the gate's rank), and the square-root measurement one thin
SVD of the stacked element factors.  The measured leaks that set tau and
the success floors are squared norms of the state factors too.  A projector
is read as a dense matrix in one place only: the target leak of an ungated
floor whose leak lies below ``DENSE_FLOOR_LEAK``, one D^3 product per such
row, kept because its rounding is pinned (see ``_run_sequential``).
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .channels import CcqMac, CoupledMac, CqChannel, _row_for
from .geometry import intersection_projector, sequential_collapse
from .linalg import Projector, _kron, as_matrix, check_dim_cap, hermitian_eig, psd_leq_factors
from .smoothing import SmoothedEnsemble
from .typicality import cond_typical_projector, is_typical, typical_projector

# Total symbols a codebook may store across all senders.
CODEBOOK_CAP = 2**20
# Smallest overlap threshold accepted when a measured tau collapses.
TAU_FLOOR = 1e-9
# Slack granted when comparing exact probabilities against their bounds.
BOUND_TOL = 1e-9
# An ungated floor whose factor-form leak lies below this re-reads its total
# and target leak from the dense state.  The floor Tr rho - 2 sqrt(leak) moves
# by |d leak| / sqrt(leak), and the dense and factor leaks differ by O(D eps),
# at most about 1e-14 at D <= 4096, so above 1e-4 the two reads give floors
# within 1e-12.  Below it the leak may be rounding noise that reference values
# pin; a reference regeneration removes the dense read and this constant.
DENSE_FLOOR_LEAK = 1e-4

_PROB_TOL = 1e-9
# Eigenvalues at or below this fraction of the largest are rounding, not state.
_EIG_CUT = 1e-13


def _clip01(value: float, what: str = "probability") -> float:
    v = float(np.real(value))
    if v < -_PROB_TOL or v > 1.0 + _PROB_TOL:
        raise RuntimeError(f"{what} {v} escapes [0, 1]")
    return min(1.0, max(0.0, v))


def _seed_key(seed) -> tuple[int, ...]:
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    try:
        key = tuple(int(s) for s in seed)
    except TypeError:
        raise ValueError("seed must be an integer or a sequence of integers") from None
    if not key:
        raise ValueError("seed sequence must be non-empty")
    return key


def _message_count(rate: float, n: int) -> int:
    if not math.isfinite(rate) or rate < 0:
        raise ValueError("rates must be finite and nonnegative")
    if n * rate > 62:
        raise ValueError(
            "rates too large: codebook would store more than 2^62 codewords"
        )
    # ceil of 2^{nR}, snapping float dust just above an integer back down
    return max(1, math.ceil(2.0 ** (n * rate) - 1e-9))


@dataclass(frozen=True)
class Codebook:
    """Per-sender codeword tables drawn for one seed.

    ``codewords`` holds one mapping per sender.  Keys are 1-based message
    indices, except for a coupled second sender whose entries are keyed by
    the (m1, m2) pair they were drawn for.
    """

    channel: object
    n: int
    rates: tuple[float, ...]
    codewords: tuple[Mapping, ...]
    counts: tuple[int, ...]
    seed: tuple[int, ...]

    @property
    def senders(self) -> int:
        return len(self.codewords)

    def messages(self) -> list:
        """All message indices or tuples, in lexicographic order."""
        return _lex(self.counts)

    def sequences(self, message) -> tuple:
        """Per-sender codeword sequences backing ``message``.

        A length-2 message on a three-sender codebook returns only the
        first two sequences; the third sender's codeword needs m3.
        """
        if self.senders == 1:
            return (self.codewords[0][message],)
        if self.senders == 2:
            m1, m2 = message
            return (self.codewords[0][m1], self.codewords[1][m2])
        m1, m2 = message[0], message[1]
        first = (self.codewords[0][m1], self.codewords[1][(m1, m2)])
        if len(message) == 2:
            return first
        return first + (self.codewords[2][message[2]],)


def _lex(counts: Sequence[int]) -> list:
    """Message indices (one sender) or index tuples, in lexicographic order."""
    ranges = [range(1, c + 1) for c in counts]
    if len(ranges) == 1:
        return list(ranges[0])
    return list(itertools.product(*ranges))


def _conditional_sequence(rows: Mapping, xs: Sequence, rng: np.random.Generator) -> tuple:
    """z drawn positionwise from the law ``rows[x]`` along ``xs``.

    Bit-identical to one ``rng.choice(size=1, p=rows[x].probs)`` per
    position: that call draws one uniform and reads it off the law's cdf,
    so one ``rng.random(n)`` serves every position.
    """
    u = rng.random(len(xs))
    return tuple(rows[x].symbols_at(u[j : j + 1])[0] for j, x in enumerate(xs))


def _rate_tuple(rates) -> tuple[float, ...]:
    if isinstance(rates, (int, float)):
        return (float(rates),)
    return tuple(float(r) for r in rates)


def _codebook_counts(dists: tuple, rates: tuple[float, ...], n: int) -> tuple[int, ...]:
    """Messages per sender, refusing codebooks above CODEBOOK_CAP symbols."""
    if len(rates) != len(dists):
        raise ValueError(f"channel takes {len(dists)} rates, got {len(rates)}")
    counts = tuple(_message_count(r, n) for r in rates)
    storage = sum(c * n for c in counts)
    if len(dists) == 3:
        # the coupled sender stores one codeword per (m1, m2) pair
        storage += (counts[0] * counts[1] - counts[1]) * n
    if storage > CODEBOOK_CAP:
        raise ValueError(
            f"rates too large: codebook would store {storage} symbols, cap is {CODEBOOK_CAP}"
        )
    return counts


def _decoded_messages(channel, rates, n: int, region: int | None = None) -> list:
    """The messages a decoder of ``channel`` reports on, in lexicographic order.

    Depends only on the message counts, so no codebook is drawn.
    """
    family = _family(channel)
    layout = family.layout(region)
    return layout.messages(_codebook_counts(family.laws(channel), _rate_tuple(rates), n))


def sample_codebook(channel, rates, n: int, seed) -> Codebook:
    """Draw a random codebook for ``channel`` at the given rates.

    Message m of sender s is drawn from its own generator keyed by
    (seed, s, m), message-index ascending, so prefixes of the codebook are
    stable under a rate increase.  A coupled second sender keys its
    generator by (seed, 1, m1, m2) and draws z positionwise from p(z|x)
    along the first sender's codeword for m1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    key = _seed_key(seed)
    rates = _rate_tuple(rates)
    dists = _family(channel).laws(channel)
    counts = _codebook_counts(dists, rates, n)

    books: list[dict] = []
    for s, dist in enumerate(dists):
        book: dict = {}
        if dist is not None:
            for m in range(1, counts[s] + 1):
                rng = np.random.default_rng((*key, s, m))
                book[m] = dist.sample_sequence(n, rng)
        else:
            for m1 in range(1, counts[0] + 1):
                xs = books[0][m1]
                for m2 in range(1, counts[1] + 1):
                    rng = np.random.default_rng((*key, s, m1, m2))
                    book[(m1, m2)] = _conditional_sequence(channel.z_given_x, xs, rng)
        books.append(book)

    return Codebook(
        channel=channel,
        n=n,
        rates=rates,
        codewords=tuple(books),
        counts=counts,
        seed=key,
    )


@dataclass(frozen=True)
class MessageOutcome:
    """Exact result for one sent message next to its closed-form bound.

    ``bound_vacuous`` says the bound cannot fail: a success floor at or
    below 0, or an error ceiling at or above 1.
    """

    message: object
    error: float
    success: float
    bound: float
    bound_satisfied: bool
    bound_vacuous: bool


@dataclass(frozen=True)
class DecodeReport:
    """Per-message decode results for one codebook.

    ``bound_kind`` states how each outcome's bound constrains the exact
    value: a "success-floor" lower-bounds the chain success probability,
    an "error-ceiling" upper-bounds the error probability.
    """

    variant: str
    bound_kind: str
    outcomes: tuple[MessageOutcome, ...]
    average_error: float
    details: Mapping = field(default_factory=dict)

    @property
    def errors(self) -> dict:
        return {o.message: o.error for o in self.outcomes}

    @property
    def bounds(self) -> dict:
        return {o.message: o.bound for o in self.outcomes}

    @property
    def all_bounds_satisfied(self) -> bool:
        return all(o.bound_satisfied for o in self.outcomes)

    @property
    def vacuous_bounds(self) -> int:
        """How many outcomes' bounds cannot fail (see ``MessageOutcome``)."""
        return sum(o.bound_vacuous for o in self.outcomes)


def _resolve_order(messages: list, order) -> list:
    if order is None:
        return list(messages)
    given = list(order)
    if len(given) != len(messages) or set(given) != set(messages):
        raise ValueError("order must be a permutation of the message space")
    return given


@dataclass(frozen=True)
class _Entry:
    message: object
    projector: Projector
    factor: np.ndarray  # A with rho = A A^dag
    state: Callable[[], np.ndarray]  # the dense rho, formed only for an ungated floor below DENSE_FLOOR_LEAK


def _sq(a: np.ndarray) -> float:
    """Squared Frobenius norm."""
    return float(np.vdot(a, a).real)


def _run_sequential(
    entries: list[_Entry],
    variant: str,
    *,
    gate: Projector | None = None,
    group_of: Callable | None = None,
    details: dict | None = None,
) -> DecodeReport:
    """Chain every sent message through the ordered candidate list.

    Message k's chain takes the failure branch of every earlier candidate
    and the success branch of its own projector (after the gate, when one
    is present).  The failure operator, the gate (or I) followed by the
    complements passed so far, is held as B = G - L R^dag: G is I or W W^dag
    for the gate's columns W, L stacks the columns V_i of the non-empty
    candidates passed and R stacks B^dag V_i as B stood at each.  For
    candidate j, X = V_j^dag G - (V_j^dag L) R^dag (r x D) gives message j's
    success ||X A_j||^2, and appending V_j to L and X^dag to R takes B to
    B - V_j X.  With s the columns of L, a step costs O(D (r_G + s) r) and
    forms no D x D matrix; the gate is read as its columns, W^dag formed
    once.  Once s exceeds D the pair is folded in place: L R^dag becomes one
    D x D term, which every later step extends by V_j X at the dense
    O(D^2 r), so no step costs more than that.

    Each floor is ``seq_success_lower_bound`` read from a factor G: A, or
    the gated factor W (W^dag A) with a gate W.  Its total is ||G||^2, its
    hostile leak is the sum of ||V_i^dag G||^2 over the earlier non-empty
    candidates, each V_i conjugated once, and its target leak is
    ||G - V (V^dag G)||^2.  The floor moves by |d leak| / sqrt(leak), so the
    hostile sum keeps its per-candidate products and their order, which
    reference floors pin: one stacked product rounds differently.  An
    ungated row whose leak is below ``DENSE_FLOOR_LEAK`` re-reads its total
    and target leak from the dense state, Tr rho and Tr rho - Tr[P rho]:
    ``ent.state()`` is formed for that row only, and P for its one D^3
    product, then dropped.  The last message's factor is collapsed once
    through the gate and the complements, A <- A - V (V^dag A), and must
    agree to 1e-8.

    With ``group_of`` set, the reported error counts a halt at any candidate
    of the sent message's group as a success, and the exact own-chain
    errors move to details["joint_errors"].  Grouping is only used without
    a gate.  details["candidate_ranks"] records each message's candidate
    rank, and details["degenerate"] says when every candidate is empty.
    """
    details = dict(details or {})
    dim = entries[0].projector.dim
    ranks = [ent.projector.rank for ent in entries]
    gate_cols = None if gate is None else gate.support_columns()
    gate_rows = None if gate is None else gate_cols.conj().T
    # L^dag and R^dag as rows: the first `low` rows of each hold the
    # candidates passed since the last fold
    lh = np.empty((min(sum(ranks), dim + max(ranks)), dim), dtype=np.complex128)
    rh = np.empty_like(lh)
    low = 0
    folded = None  # the folded L R^dag, once s has exceeded D
    peers: dict = {}  # message -> every entry of its group, itself included
    if group_of is not None:
        by_group: dict = {}
        for ent in entries:
            peers[ent.message] = by_group.setdefault(group_of(ent.message), [])
            peers[ent.message].append(ent)
    success: dict = {}
    grouped: dict = {ent.message: 0.0 for ent in entries}
    bounds: dict = {}
    hostile: list[np.ndarray] = []  # conj V_i of the non-empty candidates passed
    for ent, r in zip(entries, ranks):
        own = ent.projector
        cols = own.support_columns()
        vh = cols.conj().T
        success[ent.message] = 0.0
        if r > 0:
            x = vh if gate is None else (vh @ gate_cols) @ gate_rows
            if low:
                x = x - (lh[:low] @ cols).conj().T @ rh[:low]
            if folded is not None:
                x = x - vh @ folded
            success[ent.message] = _sq(x @ ent.factor)
            for peer in peers.get(ent.message, ()):
                grouped[peer.message] += _sq(x @ peer.factor)
        base = ent.factor if gate is None else gate_cols @ (gate_rows @ ent.factor)
        total = _sq(base)
        target = _sq(base - cols @ (vh @ base))
        hostile_leak = sum(_sq(vc.T @ base) for vc in hostile)
        if gate is None and hostile_leak + target < DENSE_FLOOR_LEAK:
            rho = ent.state()
            total = float(np.real(np.trace(rho)))
            target = total - own.trace_with(rho) if r > 0 else total
        leak = hostile_leak + target
        bounds[ent.message] = total - 2.0 * math.sqrt(max(0.0, leak))
        if r > 0:
            hostile.append(vh.T)
            lh[low : low + r] = vh
            rh[low : low + r] = x
            low += r
            if folded is not None or low > dim:
                pair = lh[:low].conj().T @ rh[:low]
                folded = pair if folded is None else folded + pair
                low = 0

    last = entries[-1]
    live = base  # the last message's factor, gated when a gate is present
    for vc in hostile[:-1] if last.projector.rank > 0 else hostile:
        live = live - vc.conj() @ (vc.T @ live)
    collapsed = _sq(last.projector.support_columns().conj().T @ live)
    if abs(collapsed - success[last.message]) > 1e-8:
        raise RuntimeError("failure-operator chain disagrees with the collapsed chain")

    outcomes = []
    joint_errors: dict = {}
    for ent in entries:
        own_success = _clip01(success[ent.message], "chain success")
        bound = bounds[ent.message]
        if group_of is None:
            error = 1.0 - own_success
        else:
            error = 1.0 - _clip01(grouped[ent.message], "grouped success")
            joint_errors[ent.message] = 1.0 - own_success
        outcomes.append(
            MessageOutcome(
                message=ent.message,
                error=_clip01(error, "error"),
                success=own_success,
                bound=bound,
                bound_satisfied=own_success >= max(0.0, bound) - BOUND_TOL,
                bound_vacuous=bound <= 0.0,
            )
        )

    if group_of is not None:
        details["joint_errors"] = joint_errors
    details["order"] = tuple(e.message for e in entries)
    details["candidate_ranks"] = {e.message: e.projector.rank for e in entries}
    if not any(details["candidate_ranks"].values()):
        details["degenerate"] = "all candidates empty"
    average = float(np.mean([o.error for o in outcomes]))
    return DecodeReport(
        variant=variant,
        bound_kind="success-floor",
        outcomes=tuple(outcomes),
        average_error=average,
        details=details,
    )


@dataclass(frozen=True)
class _Layout:
    """One decode target as a stack of conditionally typical projectors.

    ``layers`` run from the candidate outward, each an (ensemble method,
    slack multiple of delta, picked senders) triple: the projector
    conditioned on the picked codeword sequences zipped together.  Every
    outer layer narrows the candidate by one ``intersection_projector``
    step, with one (leak label, tau stage) pair in ``narrowings``; a
    measured tau reads the mean leak Tr[rho (I - Pi)] of that outer layer.
    ``variant`` names the sequential decode of the row in its reports.
    """

    law: Callable  # channel -> law the zipped codeword tuple must be typical for
    layers: tuple[tuple[str, float, tuple[int, ...]], ...]
    variant: str
    narrowings: tuple[tuple[str, str], ...] = ()
    senders: int = 1  # leading senders whose messages are decoded
    grouped: bool = False  # errors count a halt anywhere in the sent (m1, m2) group
    check_rates: Callable | None = None  # (channel, rates) -> details; warns on rates of another row

    def messages(self, counts: Sequence[int]) -> list:
        return _lex(counts[: self.senders])


def _zipped(seqs: Sequence, picks: Sequence[int]) -> tuple:
    """The picked sequences zipped into one sequence of symbol tuples; a single pick as is."""
    chosen = [seqs[i] for i in picks]
    return chosen[0] if len(chosen) == 1 else tuple(zip(*chosen))


def _parts(channel, codebook: Codebook, messages: list, delta: float, layout: _Layout) -> dict:
    """Per message, its layers' projectors from the candidate outward; None
    when the zipped codeword tuple is not typical for the row's law.

    Each layer's projector is made once per distinct conditioning sequence.
    """
    check_dim_cap(channel.dim**codebook.n)
    law = layout.law(channel)

    def layer(ens, slack: float, picks: tuple) -> Callable:
        build = functools.cache(lambda seq: cond_typical_projector(ens, seq, slack * delta))
        return lambda seqs: build(_zipped(seqs, picks))

    layers = [layer(getattr(channel, name)(), slack, picks) for name, slack, picks in layout.layers]
    parts: dict = {}
    for m in messages:
        seqs = codebook.sequences(m)
        typical = is_typical(law, _zipped(seqs, range(len(seqs))), delta)
        parts[m] = tuple(f(seqs) for f in layers) if typical else None
    return parts


def _factor(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A with A A^dag = v diag(w) v^dag, dropping rounding-level eigenvalues.

    A pure state thus gets one column however eigh rounds its zeros.
    """
    keep = w > _EIG_CUT * max(float(w[0]), 0.0)
    return v[:, keep] * np.sqrt(w[keep])


def _states(channel, codebook: Codebook, state_fn: Callable | None) -> tuple[Callable, Callable]:
    """(message -> factor A with rho = A A^dag, message -> dense rho).

    A product state's factor is the Kronecker product of per-symbol
    factors, each made once; a ``state_fn`` result is factored by its
    eigenpairs.  A pair message on a three-sender codebook averages m3 out,
    so its factor stacks the M3 factors scaled by 1/sqrt(M3).
    """
    if state_fn is None:
        name, picks = _family(channel).output
        ens = getattr(channel, name)()
        local = functools.cache(lambda s: _factor(*ens.eig(s)))

        def received(seqs: tuple) -> np.ndarray:
            return ens.sequence_state(_zipped(seqs, picks))

        def received_factor(seqs: tuple) -> np.ndarray:
            return functools.reduce(_kron, [local(s) for s in _zipped(seqs, picks)])
    else:
        def received(seqs: tuple) -> np.ndarray:
            return as_matrix(state_fn(*seqs))

        def received_factor(seqs: tuple) -> np.ndarray:
            return _factor(*hermitian_eig(received(seqs)))

    def completions(m) -> list[tuple]:
        seqs = codebook.sequences(m)
        if len(seqs) == codebook.senders:
            return [seqs]
        return [seqs + (codebook.codewords[2][m3],) for m3 in range(1, codebook.counts[2] + 1)]

    def factor(m) -> np.ndarray:
        facs = [received_factor(seqs) for seqs in completions(m)]
        return facs[0] if len(facs) == 1 else np.hstack(facs) / math.sqrt(len(facs))

    def dense(m) -> np.ndarray:
        full = completions(m)
        if len(full) == 1:
            return received(full[0])
        dim = channel.dim**codebook.n
        acc = np.zeros((dim, dim), dtype=np.complex128)
        for seqs in full:
            acc += received(seqs)
        return acc / len(full)

    return factor, dense


def _combine(parts: dict, build: Callable, empty) -> dict:
    """Per message, ``build(*parts)`` made once per distinct parts; ``empty`` when atypical."""
    built = {p: build(*p) for p in dict.fromkeys(parts.values()) if p is not None}
    return {m: built.get(p, empty) for m, p in parts.items()}


def _leaks(parts: dict, factors: Mapping, labels: Sequence[str]) -> list[list[float]]:
    """Per outer layer, Tr[rho_m (I - Pi)] = ||A_m - V (V^dag A_m)||^2 over the
    typical messages, in message order, from the state factor A_m and the
    layer's columns V, so a layer holding the whole state reads about 0.

    The messages are grouped by their outer layer, whose conjugate columns
    are formed once and dropped before the next layer's: one D x r copy is
    alive at a time.  Each leak is written into its message's slot."""
    typical = [(m, p) for m, p in parts.items() if p is not None]
    out: list[list[float]] = []
    for i, what in enumerate(labels, start=1):
        by_layer: dict = {}
        for slot, (m, p) in enumerate(typical):
            by_layer.setdefault(p[i], []).append((slot, factors[m]))
        leaks = [0.0] * len(typical)
        for outer, members in by_layer.items():
            v = outer.support_columns()
            vc = v.conj()
            for slot, a in members:
                leaks[slot] = _clip01(_sq(a - v @ (vc.T @ a)), what)
            del vc  # before the next layer's copy is formed
        out.append(leaks)
    return out


def _nested_factor(layers: Sequence[Projector]) -> np.ndarray:
    """F with F F^dag = P_k ... P_1 P_0 P_1 ... P_k for layers P_0 .. P_k.

    F = V_k ((V_k^dag V_(k-1)) ... (V_1^dag V_0)): the square-root element
    of a row, and over the product of its taus the envelope every candidate
    of a twice-narrowed row must lie under.
    """
    cols = [p.support_columns() for p in layers]
    grams = [outer.conj().T @ inner for outer, inner in zip(cols[:0:-1], cols[-2::-1])]
    return cols[-1] @ functools.reduce(np.matmul, grams) if grams else cols[-1]


def sequential_decode(
    channel,
    codebook: Codebook,
    delta: float,
    *,
    region: int | None = None,
    order: Sequence | None = None,
    gated: bool = False,
    epsilon: float | None = None,
    state_fn: Callable | None = None,
) -> DecodeReport:
    """Decode any decodable channel by candidate-projector elimination.

    The receiver tries the messages in ``order`` (lexicographic by default),
    projecting onto each candidate in turn; each message's exact chain
    success is reported next to its ``seq_success_lower_bound`` floor.  An
    atypical codeword tuple, an empty layer or an empty intermediate
    candidate gives the zero projector.  The candidate per row:

    - cq channel ("cq-sequential"): the conditional typical projector of the
      codeword at slack ``delta``.  ``gated=True`` ("cq-sequential-gated")
      first passes the typical projector of the averaged output at slack
      2*delta; the floor then applies to the gated state.
    - ccq-MAC ("ccq-mac-sequential"): the part of the pair-conditional
      typical subspace (slack ``delta``) that lies almost inside the
      y-conditional one (slack 6*delta).
    - coupled MAC, region 1 ("cmg-sequential-region1"), decoding (m1, m2, m3)
      jointly: the zy-conditional typical subspace (slack delta) narrowed
      into the xy-conditional one (slack 6*delta) and then into the
      y-conditional one (slack 6*delta).  Every such candidate is checked
      against the product envelope tilde <= (tau1*tau2)^-1 Py Pxy Pzy Pxy Py,
      counted in details["chain_checks"].  The reported error counts
      recovery of (m1, m2); exact triple errors sit in
      details["joint_errors"].
    - coupled MAC, region 2 ("cmg-sequential-region2"), decoding (m1, m2)
      only: the z-conditional typical subspace at slack ``delta`` for typical
      (x, z) pairs, with the third sender's codeword averaged out of the
      received state.  A rate triple with R3 < I(Y:B|Z) belongs to region 1,
      so region 2 there warns; details["r3_threshold"] holds I(Y:B|Z).

    Each narrowing is one ``intersection_projector`` at overlap threshold
    tau = 1 - sqrt(epsilon), by default with the measured epsilon, the mean
    leak Tr[rho (I - Pi)] of the outer layer over the typical messages; a
    given ``epsilon`` replaces the measured one.  It is validated on every
    row and used where it narrows.
    ``region`` (1 or 2) is required for the coupled MAC and refused
    elsewhere, and ``gated`` is refused on a family without a gate.
    ``state_fn(*sequences)`` may replace the product sequence states, e.g.
    with smoothed ones.
    """
    family = _family(channel)
    layout = family.layout(region)
    family.check_gated(gated)
    notes, tau_of = _resolve_taus(epsilon)
    details: dict = {} if region is None else {"region": region}
    if layout.check_rates is not None:
        details.update(layout.check_rates(channel, codebook.rates))
    gate = family.gate(channel, codebook.n, delta) if gated else None
    dim = channel.dim**codebook.n
    messages = _resolve_order(layout.messages(codebook.counts), order)
    parts = _parts(channel, codebook, messages, delta, layout)
    factor, dense = _states(channel, codebook, state_fn)
    factors = {m: factor(m) for m in parts}

    details = {"delta": delta, **details, "typical": {m: p is not None for m, p in parts.items()}}
    taus: list[float] = []
    if layout.narrowings:
        leaks = _leaks(parts, factors, [label for label, _ in layout.narrowings])
        taus = [tau_of(stage, eps) for (_, stage), eps in zip(layout.narrowings, leaks)]
        means = [float(np.mean(eps)) if eps else None for eps in leaks]
        single = len(taus) == 1
        details["tau"] = taus[0] if single else tuple(taus)
        details["measured_epsilon"] = means[0] if single else tuple(means)
        details["warnings"] = tuple(notes)

    checks = 0

    def candidate(*layers: Projector) -> Projector:
        nonlocal checks
        cand = layers[0]
        for outer, t in zip(layers[1:], taus):
            if cand.rank == 0 or outer.rank == 0:
                return Projector.zero(dim)
            cand = intersection_projector(cand, outer, t)
        if len(taus) > 1 and cand.rank > 0:
            envelope = _nested_factor(layers) / math.sqrt(math.prod(taus))
            if not psd_leq_factors(cand.support_columns(), envelope):
                raise RuntimeError("tilde projector escapes its product envelope")
            checks += 1
        return cand

    candidates = _combine(parts, candidate, Projector.zero(dim))
    if len(taus) > 1:
        details["chain_checks"] = checks
    entries = [_Entry(m, candidates[m], factors[m], functools.partial(dense, m)) for m in parts]
    return _run_sequential(
        entries,
        layout.variant + ("-gated" if gated else ""),
        gate=gate,
        group_of=(lambda m: (m[0], m[1])) if layout.grouped else None,
        details=details,
    )


def _measured_tau(epsilons: list[float], warnings_out: list[str], stage: str) -> float:
    if not epsilons:
        return 1.0
    eps = _clip01(float(np.mean(epsilons)), "measured epsilon")
    tau = 1.0 - math.sqrt(eps)
    if tau < TAU_FLOOR:
        warnings_out.append(f"measured tau for {stage} fell to {tau:.3g}; clamped to {TAU_FLOOR}")
        return TAU_FLOOR
    return tau


def _resolve_taus(epsilon) -> tuple[list[str], Callable]:
    """Warning sink plus a (stage, leakages) -> tau resolver: the measured
    tau, or 1 - sqrt(epsilon) for a given ``epsilon``."""
    notes: list[str] = []
    if epsilon is not None:
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        fixed = max(TAU_FLOOR, 1.0 - math.sqrt(epsilon))
        return notes, lambda stage, eps: fixed
    return notes, lambda stage, eps: _measured_tau(eps, notes, stage)


def pgm_elements(channel, codebook: Codebook, delta: float, *, region: int | None = None) -> dict:
    """Per message, the read-only D x r factor F of its row's square-root
    element E = F F^dag: the row's layers nested from the candidate outward,
    or D x 0 (the zero element) when the codeword tuple is atypical.

    That is Pi_x for the cq channel, Pi_y Pi_xy Pi_y (slacks 6*delta and
    delta) for the ccq-MAC, Py Pxy Pzy Pxy Py per typical triple in region 1
    of the coupled MAC and Pi_z per typical (x, z) pair in its region 2.
    """
    layout = _family(channel).layout(region)
    parts = _parts(channel, codebook, layout.messages(codebook.counts), delta, layout)
    empty = np.zeros((channel.dim**codebook.n, 0), dtype=np.complex128)
    elements = _combine(parts, lambda *layers: _nested_factor(layers), empty)
    for f in elements.values():
        f.flags.writeable = False
    return elements


def pgm_decode(
    channel,
    codebook: Codebook,
    elements: Mapping,
    *,
    state_fn: Callable | None = None,
) -> DecodeReport:
    """Square-root measurement over per-message positive operators.

    ``elements`` maps each message to the D x r factor F_m of its element
    E_m = F_m F_m^dag, as ``pgm_elements`` returns them; a projector's
    element is its ``support_columns()``.  Measurement operators are
    S^{-1/2} E_m S^{-1/2} with S the element sum inverted on its support;
    the reported bound is the two-plus-four-fold pairwise-overlap error
    ceiling, checked per message.

    The element factors are stacked, F = [F_1 ... F_M] = U Sigma W^dag
    (thin SVD), and singular values with Sigma^2 at or below
    max(1e-10 * max Sigma^2, 1e-14) are cut, leaving q.  With Y_m the
    block of W^dag for message m, Upsilon_m = U Y_m Y_m^dag U^dag, so the
    success is ||Y_m^dag U^dag A_m||^2, Tr[E_m rho_m] = ||F_m^dag A_m||^2
    and Tr[S rho_m] = ||F^dag A_m||^2.  That costs one SVD of a D x sum(r)
    matrix and no D x D product.
    """
    n = codebook.n
    check_dim_cap(channel.dim**n)

    messages = list(elements)
    if not messages:
        raise ValueError("no messages to decode")

    factors = [elements[m] for m in messages]
    stacked = np.concatenate(factors, axis=1)
    u, sigma, wh = np.linalg.svd(stacked, full_matrices=False)
    power = sigma**2
    keep = power > max(float(power.max(initial=0.0)) * 1e-10, 1e-14)
    u, wh = u[:, keep], wh[keep]
    q = u.shape[1]
    # sum_m Y_m Y_m^dag resolves the support: W^dag W = I in q x q
    if q and float(np.max(np.abs(wh @ wh.conj().T - np.eye(q)))) > 1e-8:
        raise RuntimeError("measurement operators fail to resolve the element support")

    factor_of, _ = _states(channel, codebook, state_fn)
    ends = np.cumsum([f.shape[1] for f in factors])
    outcomes = []
    for m, f, end in zip(messages, factors, ends):
        a = factor_of(m)
        block = wh[:, end - f.shape[1] : end]
        success = _clip01(_sq(block.conj().T @ (u.conj().T @ a)), "measurement success")
        own = _sq(f.conj().T @ a)
        overall = _sq(stacked.conj().T @ a)
        bound = 2.0 * (1.0 - own) + 4.0 * (overall - own)
        error = 1.0 - success
        outcomes.append(
            MessageOutcome(
                message=m,
                error=error,
                success=success,
                bound=bound,
                bound_satisfied=error <= bound + BOUND_TOL,
                bound_vacuous=bound >= 1.0,
            )
        )

    return DecodeReport(
        variant="pgm",
        bound_kind="error-ceiling",
        outcomes=tuple(outcomes),
        average_error=float(np.mean([o.error for o in outcomes])),
        details={"support_rank": q},
    )


def trajectory_estimate(rho, steps: Sequence, trials: int, seed) -> dict:
    """Monte Carlo estimate of the probability that every step passes.

    Reads the live-branch conditionals off the all-pass chain of
    ``sequential_collapse`` (a failed step ends a trajectory, so only the
    all-pass prefix states are ever occupied), each step's trace over the
    one before it, and samples the resulting cascade of Bernoulli outcomes.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    total = float(np.real(np.trace(as_matrix(rho))))
    if abs(total - 1.0) > 1e-8:
        raise ValueError("trajectory sampling needs a unit-trace state")

    traces = sequential_collapse(rho, steps).step_traces
    conditionals = [
        0.0 if before <= 0.0 else min(1.0, max(0.0, after / before))
        for before, after in zip([total, *traces], traces)
    ]

    rng = np.random.default_rng(_seed_key(seed))
    qs = np.asarray(conditionals)
    if qs.size:
        draws = rng.random((trials, qs.size))
        hits = np.all(draws < qs[None, :], axis=1)
        estimate = float(np.mean(hits))
    else:
        estimate = 1.0
    stderr = math.sqrt(max(0.0, estimate * (1.0 - estimate)) / trials)
    return {
        "estimate": estimate,
        "standard_error": stderr,
        "trials": trials,
        "conditionals": tuple(conditionals),
    }


def smoothed_state_lookup(smoothed: SmoothedEnsemble) -> Callable:
    """Adapter turning decoder sequence tuples into smoothed-record states.

    Calls with three sequences pass through; calls with fewer fill the
    missing trailing layers with that layer's singleton symbol, so a
    single-sender decode needs singleton middle and last layers and a
    two-sender decode maps its second sequence onto the middle layer.
    """
    zs = tuple(dict.fromkeys(z for (_, z) in smoothed.layers.p_xz.support))
    ys = smoothed.layers.p_y.support
    n = smoothed.n

    def fill(alphabet, what) -> tuple:
        if len(alphabet) != 1:
            raise ValueError(f"cannot fill the {what} layer: alphabet is not a singleton")
        return (alphabet[0],) * n

    def lookup(*seqs):
        if len(seqs) == 3:
            return smoothed.state_for(*seqs)
        if len(seqs) == 2:
            return smoothed.state_for(seqs[0], seqs[1], fill(ys, "last"))
        if len(seqs) == 1:
            return smoothed.state_for(seqs[0], fill(zs, "middle"), fill(ys, "last"))
        raise ValueError("expected one, two, or three sequences")

    return lookup


@dataclass(frozen=True)
class _Family:
    """What the pipeline needs to know about one channel type.

    ``layouts`` maps each decode region to its row, keyed by None for a
    family without regions.  ``gate`` builds the projector a gated
    sequential decode passes first; a family without one has no gated
    variant.
    """

    laws: Callable  # channel -> input law per sender, None for a coupled sender
    output: tuple[str, tuple[int, ...]]  # received-state ensemble method, picked senders
    layouts: Mapping
    gate: Callable | None = None  # (channel, n, delta) -> Projector

    @property
    def regions(self) -> bool:
        """Both decoders take region 1 or 2."""
        return None not in self.layouts

    def layout(self, region: int | None) -> _Layout:
        if not self.regions:
            if region is not None:
                raise ValueError(f"region {region} given, but only a coupled three-sender channel takes one")
            return self.layouts[None]
        if region not in self.layouts:
            raise ValueError("a coupled three-sender channel needs region 1 or 2")
        return self.layouts[region]

    def check_gated(self, gated: bool) -> None:
        if gated and self.gate is None:
            raise ValueError("a gated decode is not available for this channel")


def _region2_rates(channel: CoupledMac, rates: tuple[float, ...]) -> dict:
    """Warns when R3 < I(Y:B|Z): such rate triples belong to region 1."""
    r3 = rates[2]
    threshold = channel.labeled_state().mutual_information("Y:B|Z")
    if r3 < threshold - 1e-12:
        warnings.warn(
            f"region 2 requested with R3 = {r3:.6g} < I(Y:B|Z) = {threshold:.6g}; "
            "such rate triples belong to region 1",
            stacklevel=3,
        )
    return {"r3_threshold": threshold}


_FAMILIES: dict[type, _Family] = {
    CqChannel: _Family(
        laws=lambda ch: (ch.prior,),
        output=("ensemble", (0,)),
        layouts={
            None: _Layout(law=lambda ch: ch.prior, layers=(("ensemble", 1.0, (0,)),), variant="cq-sequential"),
        },
        gate=lambda ch, n, delta: typical_projector(ch.ensemble().average_state(), n, 2.0 * delta),
    ),
    CcqMac: _Family(
        laws=lambda ch: (ch.x_prior, ch.y_prior),
        output=("pair_ensemble", (0, 1)),
        layouts={
            None: _Layout(
                law=lambda ch: ch.x_prior.product(ch.y_prior),
                layers=(("pair_ensemble", 1.0, (0, 1)), ("y_ensemble", 6.0, (1,))),
                variant="ccq-mac-sequential",
                narrowings=(("pair leak", "pair/y intersection"),),
                senders=2,
            ),
        },
    ),
    CoupledMac: _Family(
        laws=lambda ch: (ch.x_prior, None, ch.y_prior),
        output=("zy_ensemble", (1, 2)),
        layouts={
            1: _Layout(
                law=lambda ch: ch.labeled_state().dist,
                layers=(("zy_ensemble", 1.0, (1, 2)), ("xy_ensemble", 6.0, (0, 2)), ("y_ensemble", 6.0, (2,))),
                variant="cmg-sequential-region1",
                narrowings=(("xy leak", "zy/xy intersection"), ("y leak", "tilde/y intersection")),
                senders=3,
                grouped=True,
            ),
            # the third sender's codeword is averaged out of the received state
            2: _Layout(
                law=lambda ch: ch.xz_dist(),
                layers=(("z_ensemble", 1.0, (1,)),),
                variant="cmg-sequential-region2",
                senders=2,
                check_rates=_region2_rates,
            ),
        },
    ),
}


def _family(channel) -> _Family:
    family = _row_for(_FAMILIES, channel)
    if family is None:
        raise TypeError(f"unsupported channel type {type(channel).__name__}")
    return family


def monte_carlo_avg_error(
    channel,
    rates,
    n: int,
    trials: int,
    seed,
    variant: str = "seq",
    *,
    delta: float,
    region: int | None = None,
    order: Sequence | None = None,
    epsilon: float | None = None,
    keep_reports: bool = False,
) -> dict:
    """Average decode error over independently seeded codebooks.

    Trial t redraws the codebook with seed (seed..., t) and runs the
    decoder named by ``variant``: "seq" for ``sequential_decode``,
    "seq-gated" for its gated chain (where the family has a gate), "pgm"
    for ``pgm_decode`` over the ``pgm_elements``.  A bad region or epsilon,
    an unknown variant and "seq-gated" on a family without a gate are
    refused before any codebook is drawn, whichever decoder runs.
    ``keep_reports`` retains the per-trial DecodeReport objects.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    key = _seed_key(seed)
    family = _family(channel)
    family.layout(region)
    _resolve_taus(epsilon)
    if variant not in ("seq", "seq-gated", "pgm"):
        raise ValueError(f"decoder variant {variant!r} is not available for this channel")
    family.check_gated(variant == "seq-gated")

    def run(book: Codebook) -> DecodeReport:
        if variant == "pgm":
            return pgm_decode(channel, book, pgm_elements(channel, book, delta, region=region))
        return sequential_decode(
            channel, book, delta, region=region, order=order, gated=variant == "seq-gated", epsilon=epsilon,
        )

    averages: list[float] = []
    bound_means: list[float] = []
    reports: list[DecodeReport] = []
    satisfied = True
    bound_kind = None
    resolved = None
    for t in range(trials):
        book = sample_codebook(channel, rates, n, (*key, t))
        report = run(book)
        averages.append(report.average_error)
        bound_means.append(float(np.mean([o.bound for o in report.outcomes])))
        satisfied = satisfied and report.all_bounds_satisfied
        bound_kind = report.bound_kind
        resolved = report.variant
        if keep_reports:
            reports.append(report)

    mean = float(np.mean(averages))
    stderr = float(np.std(averages, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    out = {
        "variant": resolved,
        "bound_kind": bound_kind,
        "n": n,
        "trials": trials,
        "seed": key,
        "mean_error": mean,
        "standard_error": stderr,
        "mean_bound": float(np.mean(bound_means)),
        "per_trial_errors": tuple(averages),
        "all_bounds_satisfied": satisfied,
    }
    if keep_reports:
        out["reports"] = tuple(reports)
    return out
