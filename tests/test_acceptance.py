"""Acceptance gate: eleven numbered product guarantees, one verdict line each.

Every test measures its claim at the stated tolerance, prints a single
``[criterion N] PASS/FAIL`` line (visible under ``pytest -rA`` or ``-s``),
and asserts both the claim and its wall-clock ceiling.  Seeds are fixed so
the gate is reproducible; none of the expected values below were tuned to
the implementation.
"""

import itertools
import math
import time

import numpy as np

from cqlab.channels import (
    CcqMac,
    CoupledMac,
    CqChannel,
    InterferenceChannel,
    holevo_information,
)
from cqlab.decoders import monte_carlo_avg_error
from cqlab.geometry import (
    gentle_measurement_check,
    intersection_projector,
    jordan_decompose,
    key_inequality_check,
    seq_success_lower_bound,
    sequential_collapse,
)
from cqlab.linalg import Projector, psd_leq
from cqlab.regions import (
    IcAchievability,
    ccq_mac_region,
    classical_cmg_region,
    cmg_mac_region,
    fawzi_first_part_witness,
    receiver_region,
    region_mask,
    sample_points_inside,
)
from cqlab.smoothing import smoothed_states, triple_layers, verify_smoothing_bounds
from cqlab.typicality import (
    ClassicalDistribution,
    CqEnsemble,
    TypicalityParams,
    is_typical,
    verify_averaged_state_overlaps,
    verify_conditional_typicality,
    verify_sequence_typicality,
    verify_state_typicality,
)

SEED = 20260817

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]])
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]])
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]])
KET = {0: KET0, 1: KET1}


def verdict(number: int, ok: bool, detail: str, elapsed: float, limit: float) -> None:
    word = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[criterion {number}] {word} - {detail} ({elapsed:.1f}s < {limit:.0f}s)")
    assert ok, detail
    assert elapsed < limit, f"criterion {number} exceeded {limit:.0f}s: {elapsed:.1f}s"


def random_projector(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    q, _ = np.linalg.qr(g)
    return q @ q.conj().T


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / float(np.real(np.trace(m)))


def test_criterion_01_projector_chain_key_inequality():
    # 1000 random (vector, <=5 projectors) instances in dimensions 2..32
    t0 = time.time()
    rng = np.random.default_rng((SEED, 1))
    slacks = []
    for _ in range(1000):
        dim = int(rng.integers(2, 33))
        k = int(rng.integers(1, 6))
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        projs = [random_projector(rng, dim, int(rng.integers(1, dim + 1))) for _ in range(k)]
        res = key_inequality_check(v, projs)
        slacks.append(res["rhs"] - res["lhs"])
    worst = min(slacks)
    verdict(
        1,
        len(slacks) == 1000 and worst >= -1e-9,
        f"1000 instances, worst slack {worst:.2e} >= -1e-9",
        time.time() - t0,
        10.0,
    )


def test_criterion_02_chained_success_floor():
    # exact collapse probability against the closed-form square-root floor
    t0 = time.time()
    rng = np.random.default_rng((SEED, 2))
    slacks = []
    for _ in range(500):
        dim = int(rng.integers(2, 17))
        k = int(rng.integers(0, 5))
        rho = random_density(rng, dim)
        hostile = [
            Projector.from_matrix(random_projector(rng, dim, int(rng.integers(1, dim + 1))))
            for _ in range(k)
        ]
        target = Projector.from_matrix(random_projector(rng, dim, int(rng.integers(1, dim + 1))))
        steps = [(p, "failure") for p in hostile] + [(target, "success")]
        success = sequential_collapse(rho, steps).success_probability
        slacks.append(success - seq_success_lower_bound(rho, hostile, target))
    worst = min(slacks)
    verdict(
        2,
        len(slacks) == 500 and worst >= -1e-9,
        f"500 instances, worst slack {worst:.2e} >= -1e-9",
        time.time() - t0,
        10.0,
    )


def test_criterion_03_two_subspace_blocks():
    # reconstruction within 1e-8, every block at most 2-dimensional, and the
    # first-subspace lines an orthonormal basis of the first support
    t0 = time.time()
    rng = np.random.default_rng((SEED, 3))
    worst = 0.0
    oversized = 0
    for _ in range(300):
        dim = int(rng.integers(3, 33))
        pa = random_projector(rng, dim, int(rng.integers(1, dim)))
        pb = random_projector(rng, dim, int(rng.integers(1, dim)))
        decomp = jordan_decompose(pa, pb)
        dev = max(
            float(np.abs(decomp.reconstruct_first() - pa).max()),
            float(np.abs(decomp.reconstruct_second() - pb).max()),
        )
        if any(b.dim > 2 for b in decomp.blocks):
            oversized += 1
        lines = decomp.first_lines  # ranks are at least 1
        dev = max(
            dev,
            float(np.abs(lines.conj().T @ lines - np.eye(lines.shape[1])).max()),
            float(np.abs(lines @ lines.conj().T - pa).max()),
        )
        worst = max(worst, dev)
    verdict(
        3,
        oversized == 0 and worst <= 1e-8,
        f"300 pairs, worst deviation {worst:.2e} <= 1e-8, 0 blocks above size 2",
        time.time() - t0,
        30.0,
    )


def planes_with_angles(dim: int, angles: list, rng: np.random.Generator):
    g = rng.normal(size=(dim, 2 * len(angles))) + 1j * rng.normal(size=(dim, 2 * len(angles)))
    q, _ = np.linalg.qr(g)
    a_lines, b_lines = [], []
    for i, theta in enumerate(angles):
        a = q[:, 2 * i]
        c = q[:, 2 * i + 1]
        a_lines.append(a)
        b_lines.append(math.cos(theta) * a + math.sin(theta) * c)
    pa = sum(np.outer(v, v.conj()) for v in a_lines)
    pb = sum(np.outer(v, v.conj()) for v in b_lines)
    return pa, pb, a_lines


def test_criterion_04_intersection_sandwich_and_floor():
    # instances built to satisfy the overlap hypothesis at each epsilon
    t0 = time.time()
    rng = np.random.default_rng((SEED, 4))
    checked = 0
    ok = True
    for eps in (0.01, 0.04, 0.16):
        tau = 1.0 - math.sqrt(eps)
        floor = 1.0 - 2.0 * math.sqrt(eps)
        for _ in range(20):
            tilt = math.acos(math.sqrt(1.0 - eps / 2.0))
            wide = math.acos(math.sqrt(float(rng.uniform(0.05, 0.5))))
            pa, pb, a_lines = planes_with_angles(10, [0.0, tilt, wide], rng)
            weights = [1.0 - eps, eps / 2.0, eps / 2.0]
            rho = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, a_lines))
            assert float(np.real(np.trace(rho @ pb))) >= 1.0 - eps - 1e-9
            r = intersection_projector(pa, pb, tau).dense()
            kept = float(np.real(np.trace(rho @ r)))
            ok = ok and psd_leq(r, pb @ pa @ pb / tau, tol=1e-8) and kept >= floor - 1e-9
            checked += 1
    verdict(
        4,
        ok and checked == 60,
        "60 instances at eps in {0.01, 0.04, 0.16}: sandwich (tol 1e-8) and trace floor hold",
        time.time() - t0,
        30.0,
    )


def test_criterion_05_typicality_by_full_enumeration():
    # two-symbol, qubit-output families with n <= 10: mass, per-member
    # sandwich, and cardinality/rank bounds, plus independent count oracles
    t0 = time.time()
    params = TypicalityParams(delta=0.3, epsilon=0.2, context_dims=(2, 2))
    rng = np.random.default_rng((SEED, 5))
    asserted = 0
    failures = []

    def window(prob: float, m: int) -> tuple[float, float]:
        return prob * (1.0 - params.delta) * m, prob * (1.0 + params.delta) * m

    for p in (0.5, 0.3, 0.71):
        dist = ClassicalDistribution((0, 1), (p, 1.0 - p))
        for n in (4, 7, 10):
            checks = verify_sequence_typicality(dist, n, params)
            lo0, hi0 = window(p, n)
            lo1, hi1 = window(1.0 - p, n)
            mass = sum(
                math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
                for k in range(n + 1)
                if lo0 - 1e-12 <= k <= hi0 + 1e-12 and lo1 - 1e-12 <= n - k <= hi1 + 1e-12
            )
            if abs(mass - checks["mass"].value) > 1e-12:
                failures.append(f"mass oracle p={p} n={n}")
            for c in checks.values():
                if not c.informative:
                    asserted += 1
                    if not c.passed:
                        failures.append(f"dist p={p} n={n} {c.name}")
    for i in range(3):
        rho = random_density(rng, 2)
        q = np.sort(np.linalg.eigvalsh(rho))[::-1]
        for n in (4, 7, 10):
            checks = verify_state_typicality(rho, n, params)
            lo0, hi0 = window(float(q[0]), n)
            lo1, hi1 = window(float(q[1]), n)
            rank = sum(
                math.comb(n, k)
                for k in range(n + 1)
                if lo0 - 1e-12 <= k <= hi0 + 1e-12 and lo1 - 1e-12 <= n - k <= hi1 + 1e-12
            )
            if rank != int(checks["rank"].value):
                failures.append(f"rank oracle state {i} n={n}")
            for c in checks.values():
                if not c.informative:
                    asserted += 1
                    if not c.passed:
                        failures.append(f"state {i} n={n} {c.name}")
    for i in range(3):
        ens = CqEnsemble(
            ClassicalDistribution((0, 1), (0.5, 0.5)),
            {0: random_density(rng, 2), 1: random_density(rng, 2)},
        )
        for n in (6, 10):
            seq = tuple(j % 2 for j in range(n))
            for c in verify_conditional_typicality(ens, seq, params).values():
                if not c.informative:
                    asserted += 1
                    if not c.passed:
                        failures.append(f"conditional {i} n={n} {c.name}")
    verdict(
        5,
        not failures and asserted >= 40,
        f"{asserted} enumerated bounds hold, count oracles agree" if not failures else "; ".join(failures[:4]),
        time.time() - t0,
        60.0,
    )


def test_criterion_06_averaged_state_overlaps_and_gentle_collapse():
    # every jointly typical pair of a BB84-style two-sender channel against
    # the doubled-slack average projector and the six-fold conditional one
    t0 = time.time()
    mac = CcqMac(
        ClassicalDistribution((0, 1), (0.5, 0.5)),
        ClassicalDistribution((0, 1), (2.0 / 3.0, 1.0 / 3.0)),
        {(0, 0): KET0, (0, 1): PLUS, (1, 0): PLUS, (1, 1): KET1},
    )
    pair_ens = mac.pair_ensemble()
    x_ens = mac.x_ensemble()
    n, delta = 6, 0.25
    params = TypicalityParams(delta=delta, epsilon=0.1, context_dims=(2, 2))
    t_avg, t_cond = [], []
    for xs in itertools.product((0, 1), repeat=n):
        for ys in itertools.product((0, 1), repeat=n):
            if not is_typical(pair_ens.dist, tuple(zip(xs, ys)), delta):
                continue
            checks = verify_averaged_state_overlaps(pair_ens, x_ens, xs, ys, params)
            t_avg.append(checks["average_overlap"].value)
            t_cond.append(checks["conditional_overlap"].value)
    eps_avg = 1.0 - float(np.mean(t_avg))
    eps_cond = 1.0 - float(np.mean(t_cond))
    overlaps_ok = (
        len(t_avg) == 180
        and all(0.0 < v <= 1.0 + 1e-12 for v in t_avg + t_cond)
        and all(v >= 1.0 - eps_avg - 1e-12 for v in t_avg)
        and all(v >= 1.0 - eps_cond - 1e-12 for v in t_cond)
    )
    rng = np.random.default_rng((SEED, 6))
    gentle_ok = True
    for _ in range(500):
        dim = int(rng.integers(2, 17))
        rho = random_density(rng, dim)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = g @ g.conj().T
        m = h / (float(np.linalg.eigvalsh(h).max()) + float(rng.uniform(0.0, 1.0)))
        gentle_ok = gentle_ok and gentle_measurement_check(rho, m)["holds"]
    verdict(
        6,
        overlaps_ok and gentle_ok,
        f"180 typical pairs: overlaps >= 1 - measured eps ({eps_avg:.4f}, {eps_cond:.4f}); "
        "500 gentle collapses bounded",
        time.time() - t0,
        60.0,
    )


def diagonal_triple_system() -> CqEnsemble:
    entries = {
        (0, 0): (0.86, 0.14),
        (0, 1): (0.32, 0.68),
        (1, 0): (0.57, 0.43),
        (1, 1): (0.23, 0.77),
    }
    symbols, probs, states = [], [], {}
    for x in (0, 1):
        z = x
        for y in (0, 1):
            symbols.append((x, z, y))
            probs.append(0.25)
            states[(x, z, y)] = np.diag(np.array(entries[(x, y)]))
    return CqEnsemble(ClassicalDistribution(tuple(symbols), tuple(probs)), states)


def truncation_oracle(system: CqEnsemble, n: int, delta: float):
    """Count-window truncation of output strings; diagonal systems only."""
    layers = triple_layers(system)
    d = system.dim
    q_bar = np.real(np.diag(layers.rho_bar))
    q_x = {x: np.real(np.diag(layers.x_ens.state(x))) for x in layers.p_x.support}
    q_xz = {s: np.real(np.diag(layers.pair_ens.state(s))) for s in layers.p_xz.support}

    def window_ok(counts, m, q, slack):
        for b, prob in enumerate(q):
            c = counts.get(b, 0)
            if prob <= 0:
                if c:
                    return False
            elif abs(c / m - prob) > slack * prob + 1e-9:
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


def test_criterion_07_smoothing_matches_truncation_oracle():
    t0 = time.time()
    system = diagonal_triple_system()
    n, delta = 6, 0.35
    se = smoothed_states(system, n, delta)
    oracle = truncation_oracle(system, n, delta)
    mixed = np.eye(2**n) / 2.0**n
    oracle_dev = 0.0
    compared = 0
    atypical_ok = True
    saw_atypical = False
    for r in se.records:
        if r.typical and not r.zero_denominator:
            oracle_dev = max(oracle_dev, float(np.max(np.abs(r.state - oracle(r.zipped)))))
            compared += 1
        elif not r.typical:
            saw_atypical = True
            atypical_ok = atypical_ok and np.array_equal(r.state, mixed)
    pair_dev = x_dev = 0.0
    pair_sums, x_sums = {}, {}
    avg = np.zeros((2**n, 2**n), dtype=np.complex128)
    for r in se.records:
        if r.probability == 0:
            continue
        pair_sums.setdefault(tuple(zip(r.xs, r.zs)), []).append((r.probability, r.state))
        x_sums.setdefault(r.xs, []).append((r.probability, r.state))
        avg += r.probability * r.state
    for key, terms in pair_sums.items():
        w = math.prod(se.layers.p_xz.prob(p) for p in key)
        manual = sum(p * s for p, s in terms) / w
        pair_dev = max(pair_dev, float(np.max(np.abs(manual - se.pair_marginals[key]))))
    for xs, terms in x_sums.items():
        w = math.prod(se.layers.p_x.prob(x) for x in xs)
        manual = sum(p * s for p, s in terms) / w
        x_dev = max(x_dev, float(np.max(np.abs(manual - se.x_marginals[xs]))))
    avg_dev = float(np.max(np.abs(avg - se.average)))
    report = verify_smoothing_bounds(se)
    l1 = report["checks"]["l1-global"]
    ceiling = 13.0 * math.sqrt(se.measured_epsilon)
    l1_ok = l1.value <= ceiling + 1e-12 and abs(l1.bound - ceiling) < 1e-9
    verdict(
        7,
        compared > 0
        and oracle_dev <= 1e-9
        and saw_atypical
        and atypical_ok
        and max(pair_dev, x_dev, avg_dev) <= 1e-10
        and l1_ok,
        f"{compared} smoothed states within {oracle_dev:.1e} of the oracle; marginals consistent; "
        f"global l1 {l1.value:.3f} <= 13*sqrt(eps) = {ceiling:.3f}",
        time.time() - t0,
        60.0,
    )


def test_criterion_08_decoder_bounds_zero_violations():
    # success-floor and error-ceiling checks across every simulated run
    t0 = time.time()
    rng = np.random.default_rng((SEED, 8))
    ok = True
    decodes = 0
    bb84 = CqChannel(ClassicalDistribution((0, 1), (0.5, 0.5)), {0: KET0, 1: PLUS})
    rand_cq = CqChannel(
        ClassicalDistribution((0, 1), (0.6, 0.4)),
        {0: random_density(rng, 2), 1: random_density(rng, 2)},
    )
    for chan in (bb84, rand_cq):
        for n in (4, 6, 8):
            for variant in ("seq", "seq-gated", "pgm"):
                r = monte_carlo_avg_error(chan, (0.25,), n, 7, (SEED, 80, n), variant, delta=0.4)
                ok = ok and r["all_bounds_satisfied"]
                decodes += r["trials"]
    crossover = CcqMac(
        ClassicalDistribution((0, 1), (0.5, 0.5)),
        ClassicalDistribution((0, 1), (0.5, 0.5)),
        {(0, 0): KET0, (0, 1): PLUS, (1, 0): PLUS, (1, 1): KET1},
    )
    rand_mac = CcqMac(
        ClassicalDistribution((0, 1), (0.7, 0.3)),
        ClassicalDistribution((0, 1), (0.5, 0.5)),
        {(x, y): random_density(rng, 2) for x in (0, 1) for y in (0, 1)},
    )
    for chan in (crossover, rand_mac):
        for n in (4, 5):
            for variant in ("seq", "pgm"):
                r = monte_carlo_avg_error(
                    chan, (0.25, 0.25), n, 10, (SEED, 81, n), variant, delta=0.25
                )
                ok = ok and r["all_bounds_satisfied"]
                decodes += r["trials"]
    rows = {
        x: ClassicalDistribution((0, 1), tuple(rng.dirichlet((2.0, 2.0)))) for x in (0, 1)
    }
    cmg = CoupledMac(
        ClassicalDistribution((0, 1), tuple(rng.dirichlet((2.0, 2.0)))),
        rows,
        ClassicalDistribution((0, 1), tuple(rng.dirichlet((2.0, 2.0)))),
        {(z, y): random_density(rng, 2) for z in (0, 1) for y in (0, 1)},
    )
    for region in (1, 2):
        for n in (4, 5):
            for variant in ("seq", "pgm"):
                r = monte_carlo_avg_error(
                    cmg,
                    (0.2, 0.2, 0.2),
                    n,
                    10,
                    (SEED, 82, region, n),
                    variant,
                    delta=0.25,
                    region=region,
                )
                ok = ok and r["all_bounds_satisfied"]
                decodes += r["trials"]
    verdict(
        8,
        ok and decodes >= 280,
        f"{decodes} seeded decodes across single-sender, two-sender, and coupled channels; "
        "zero bound violations",
        time.time() - t0,
        600.0,
    )


def test_criterion_09_error_decreases_with_blocklength():
    t0 = time.time()
    bb84 = CqChannel(ClassicalDistribution((0, 1), (0.5, 0.5)), {0: KET0, 1: PLUS})
    info = holevo_information(bb84.ensemble())
    assert abs(info - 0.6009) <= 1.5e-4
    kwargs = dict(variant="seq", delta=0.99)
    r3 = monte_carlo_avg_error(bb84, (0.25,), 3, 50, (2026,), **kwargs)
    r6 = monte_carlo_avg_error(bb84, (0.25,), 6, 50, (2026,), **kwargs)
    gap = r3["mean_error"] - r6["mean_error"]
    margin = 3.0 * math.hypot(r3["standard_error"], r6["standard_error"])
    verdict(
        9,
        gap >= margin and r3["all_bounds_satisfied"] and r6["all_bounds_satisfied"],
        f"mean error {r3['mean_error']:.3f} (n=3) -> {r6['mean_error']:.3f} (n=6); "
        f"drop {gap:.3f} >= 3 SE = {margin:.3f} at R = 0.25 < I(X:B) = {info:.4f}",
        time.time() - t0,
        300.0,
    )


def random_coupled_channel(rng: np.random.Generator) -> CoupledMac:
    def rdist() -> ClassicalDistribution:
        return ClassicalDistribution((0, 1), tuple(rng.dirichlet((2.0, 2.0))))

    rows = {x: rdist() for x in (0, 1)}
    states = {(z, y): random_density(rng, 2) for z in (0, 1) for y in (0, 1)}
    return CoupledMac(rdist(), rows, rdist(), states)


def flip_dist(bit: int, p: float) -> np.ndarray:
    out = np.zeros(2)
    out[bit] = 1.0 - p
    out[1 - bit] = p
    return out


def public_pair_ic(which: str) -> InterferenceChannel:
    q = ClassicalDistribution(("q0",), (1.0,))
    if which == "v":
        ux = {"q0": ClassicalDistribution((("u0", 0), ("u0", 1)), (0.5, 0.5))}
        vy = {"q0": ClassicalDistribution((("v0", 0), ("v1", 1)), (0.5, 0.5))}
    else:
        ux = {"q0": ClassicalDistribution((("u0", 0), ("u1", 1)), (0.5, 0.5))}
        vy = {"q0": ClassicalDistribution((("v0", 0), ("v0", 1)), (0.5, 0.5))}
    states = {(x, y): np.kron(KET[x], KET[y]) for x in (0, 1) for y in (0, 1)}
    return InterferenceChannel(q, ux, vy, (2, 2), states)


def crosstalk_ic(leak1: float, leak2: float) -> InterferenceChannel:
    q = ClassicalDistribution(("q0",), (1.0,))
    ux = {"q0": ClassicalDistribution((("u0", 0), ("u1", 1)), (0.5, 0.5))}
    vy = {"q0": ClassicalDistribution((("v0", 0), ("v1", 1)), (0.5, 0.5))}
    states = {}
    for x in (0, 1):
        for y in (0, 1):
            p1 = flip_dist(x, 0.05 + leak1 * y)
            p2 = flip_dist(y, 0.05 + leak2 * x)
            states[(x, y)] = np.kron(np.diag(p1), np.diag(p2))
    return InterferenceChannel(q, ux, vy, (2, 2), states)


def second_part_quadruples(ic: InterferenceChannel, step: float, cap: int, rng) -> list:
    """Grid points feasible for both receivers but not on first parts alone."""
    r1 = receiver_region(ic, 1)
    r2 = receiver_region(ic, 2)
    ach = IcAchievability(ic, r1, r2, step, {})
    gmax = max(r1.max_bound(), r2.max_bound(), step)
    vals = [round(i * step, 9) for i in range(int(math.floor(gmax / step + 1e-9)) + 1)]
    found = [
        quad
        for quad in itertools.product(vals, repeat=4)
        if ach.quadruple_feasible(quad) and not ach.quadruple_feasible(quad, first_parts_only=True)
    ]
    rng.shuffle(found)
    return found[:cap]


def test_criterion_10_region_containment_and_public_layer_transform():
    t0 = time.time()
    rng = np.random.default_rng((SEED, 10))
    inside = 0
    for _ in range(5):
        cmg = random_coupled_channel(rng)
        ours = cmg_mac_region(cmg)
        classical = classical_cmg_region(cmg)
        pts = sample_points_inside(classical, rng, 100, margin=1e-6)
        inside += int(region_mask(ours, np.array(pts), margin=1e-9).sum())
    transformed = 0
    witnesses_ok = True
    plan = [
        (public_pair_ic("v"), 0.125),
        (public_pair_ic("u"), 0.125),
        (crosstalk_ic(0.25, 0.0), 0.1),
        (crosstalk_ic(0.15, 0.3), 0.1),
    ]
    for ic, step in plan:
        for quad in second_part_quadruples(ic, step, min(30, 100 - transformed), rng):
            w = fawzi_first_part_witness(ic, quad)
            witnesses_ok = (
                witnesses_ok
                and w.receiver1_first_part
                and w.receiver2_first_part
                and IcAchievability.pair(w.quadruple) == IcAchievability.pair(quad)
            )
            transformed += 1
    verdict(
        10,
        inside == 500 and transformed == 100 and witnesses_ok,
        f"{inside}/500 classical points inside the three-sender region; "
        f"{transformed}/100 transformed quadruples first-part feasible with rates kept",
        time.time() - t0,
        120.0,
    )


def shannon_entropy(joint: dict) -> float:
    return -sum(p * math.log2(p) for p in joint.values() if p > 1e-300)


def joint_marginal(joint: dict, keep: tuple) -> dict:
    out: dict = {}
    for sym, p in joint.items():
        key = tuple(sym[i] for i in keep)
        out[key] = out.get(key, 0.0) + p
    return {k: v for k, v in out.items() if v > 0}


def classical_cmi(joint: dict, left: tuple, cond: tuple) -> float:
    # I(left : last coordinate | cond) on an exact joint table
    b = (len(next(iter(joint))) - 1,)
    h_left = shannon_entropy(joint_marginal(joint, left + cond))
    h_b = shannon_entropy(joint_marginal(joint, cond + b))
    h_cond = shannon_entropy(joint_marginal(joint, cond)) if cond else 0.0
    h_all = shannon_entropy(joint_marginal(joint, left + cond + b))
    return h_left + h_b - h_cond - h_all


def test_criterion_11_diagonal_channels_match_shannon_oracle():
    t0 = time.time()
    rng = np.random.default_rng((SEED, 11))

    def rdist(k: int) -> ClassicalDistribution:
        return ClassicalDistribution(tuple(range(k)), tuple(rng.dirichlet(np.full(k, 2.0))))

    def ddiag(dim: int) -> np.ndarray:
        return np.diag(rng.dirichlet(np.full(dim, 1.5)))

    worst = 0.0
    for _ in range(40):
        k = int(rng.integers(2, 4))
        dim = int(rng.integers(2, 5))
        chan = CqChannel(rdist(k), {x: ddiag(dim) for x in range(k)})
        joint = {
            (x, b): chan.prior.prob(x) * float(chan.states[x][b, b].real)
            for x in chan.prior.support
            for b in range(dim)
            if chan.prior.prob(x) * float(chan.states[x][b, b].real) > 0
        }
        worst = max(worst, abs(holevo_information(chan.ensemble()) - classical_cmi(joint, (0,), ())))
    for _ in range(30):
        dim = int(rng.integers(2, 4))
        mac = CcqMac(rdist(2), rdist(2), {(x, y): ddiag(dim) for x in (0, 1) for y in (0, 1)})
        bounds = ccq_mac_region(mac).meta["bounds"]
        joint = {}
        for x in (0, 1):
            for y in (0, 1):
                pxy = mac.x_prior.prob(x) * mac.y_prior.prob(y)
                for b in range(dim):
                    p = pxy * float(mac.states[(x, y)][b, b].real)
                    if p > 0:
                        joint[(x, y, b)] = p
        worst = max(worst, abs(bounds["I(X:B|Y)"] - classical_cmi(joint, (0,), (1,))))
        worst = max(worst, abs(bounds["I(Y:B|X)"] - classical_cmi(joint, (1,), (0,))))
        worst = max(worst, abs(bounds["I(XY:B)"] - classical_cmi(joint, (0, 1), ())))
    cmg_exprs = {
        "Y:B|Z": ((2,), (1,)),
        "Z:B|X Y": ((1,), (0, 2)),
        "Z:B|Y": ((1,), (2,)),
        "Z Y:B|X": ((1, 2), (0,)),
        "Z Y:B": ((1, 2), ()),
        "Z:B|X": ((1,), (0,)),
        "Z:B": ((1,), ()),
    }
    for _ in range(30):
        rows = {x: rdist(2) for x in (0, 1)}
        cmg = CoupledMac(rdist(2), rows, rdist(2), {(z, y): ddiag(2) for z in (0, 1) for y in (0, 1)})
        bounds = cmg_mac_region(cmg).meta["bounds"]
        joint = {}
        for x in (0, 1):
            for z in (0, 1):
                for y in (0, 1):
                    pxzy = cmg.x_prior.prob(x) * rows[x].prob(z) * cmg.y_prior.prob(y)
                    for b in (0, 1):
                        p = pxzy * float(cmg.states[(z, y)][b, b].real)
                        if p > 0:
                            joint[(x, z, y, b)] = joint.get((x, z, y, b), 0.0) + p
        for expr, (left, cond) in cmg_exprs.items():
            worst = max(worst, abs(bounds[expr] - classical_cmi(joint, left, cond)))
    verdict(
        11,
        worst <= 1e-9,
        f"100 diagonal channels: worst deviation from the Shannon oracle {worst:.2e} <= 1e-9",
        time.time() - t0,
        10.0,
    )
