"""Seeded invariant suites with per-instance slack reporting.

Each suite draws its instances from a fixed seed, checks one family of
operator or probability inequalities, and returns rows suitable for JSON
emission.  A row records the instance id, whether the inequality holds,
and the measured slack (negative slack means violated).  The suites call
the library through module attributes so a corrupted core is observable
from here.

The lemma suites (``lemma-key``, ``lemma-chain``, ``blocks``) draw each
projector as the QR columns of a complex Gaussian draw and hand it to the
checks as a ``Projector``: the checks read its columns, so no q q^dag is
formed for them, no raw matrix is validated and none is eigendecomposed.
``intersection`` feeds ``intersection_projector`` raw matrices, and
``gentle`` draws no projector.

Suites draw from disjoint streams ``(seed, 1..8)`` and share no state, so
``run_suites`` runs them in forked worker processes, one per available CPU,
and reports them in order; the output is the same as one suite after
another.  Rows within a suite share one stream and stay serial.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import channels as _channels
from . import decoders as _decoders
from . import geometry as _geometry
from . import linalg as _linalg
from . import smoothing as _smoothing
from . import typicality as _typicality

DEFAULT_SEED = 2024


def _random_projector(rng: np.random.Generator, dim: int, rank: int) -> _linalg.Projector:
    """A projector held as the QR columns of a complex Gaussian D x rank draw."""
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    q, _ = np.linalg.qr(g)
    return _linalg.Projector(q)


def _random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / float(np.real(np.trace(m)))


def _planes_with_angles(dim: int, angles: list[float], rng: np.random.Generator):
    """Projector pair whose two-subspace blocks realise the given angles."""
    need = 2 * len(angles)
    if dim < need:
        raise ValueError("dimension too small for the requested angles")
    g = rng.normal(size=(dim, need)) + 1j * rng.normal(size=(dim, need))
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


def _numbered(name: str, seed: int, stream: int, count: int, draw) -> list[dict]:
    """Rows ``<name>-0000`` onward, one per ``draw(rng) -> (holds, slack)``
    call on the suite's own stream ``(seed, stream)``."""
    rng = np.random.default_rng((seed, stream))
    rows = []
    for i in range(count):
        holds, slack = draw(rng)
        rows.append({"id": f"{name}-{i:04d}", "holds": bool(holds), "slack": slack})
    return rows


def suite_lemma_key(seed: int = DEFAULT_SEED) -> list[dict]:
    """Vector defect under a projector chain never beats the overlap sum."""

    def draw(rng):
        dim = int(rng.integers(2, 33))
        k = int(rng.integers(1, 6))
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        projs = [
            _random_projector(rng, dim, int(rng.integers(1, dim + 1))) for _ in range(k)
        ]
        res = _geometry.key_inequality_check(v, projs)
        return res["holds"], res["rhs"] - res["lhs"]

    return _numbered("lemma-key", seed, 1, 1000, draw)


def suite_lemma_chain(seed: int = DEFAULT_SEED) -> list[dict]:
    """Exact chained success against the square-root floor."""

    def draw(rng):
        dim = int(rng.integers(2, 17))
        k = int(rng.integers(0, 5))
        rho = _random_density(rng, dim)
        hostile = [_random_projector(rng, dim, int(rng.integers(1, dim + 1))) for _ in range(k)]
        target = _random_projector(rng, dim, int(rng.integers(1, dim + 1)))
        steps = [(p, "failure") for p in hostile] + [(target, "success")]
        success = _geometry.sequential_collapse(rho, steps).success_probability
        bound = _geometry.seq_success_lower_bound(rho, hostile, target)
        return success >= bound - 1e-9, success - bound

    return _numbered("lemma-chain", seed, 2, 500, draw)


def suite_blocks(seed: int = DEFAULT_SEED) -> list[dict]:
    """Two-subspace decomposition: block sizes and exact reconstruction."""

    def draw(rng):
        dim = int(rng.integers(3, 33))
        pa = _random_projector(rng, dim, int(rng.integers(1, dim)))
        pb = _random_projector(rng, dim, int(rng.integers(1, dim)))
        decomp = _geometry.jordan_decompose(pa, pb)
        dev_a = float(np.abs(decomp.reconstruct_first() - pa.dense()).max())
        dev_b = float(np.abs(decomp.reconstruct_second() - pb.dense()).max())
        sizes_ok = all(b.dim <= 2 for b in decomp.blocks)
        lines = decomp.first_lines
        gram_dev = float(np.abs(lines.conj().T @ lines - np.eye(lines.shape[1])).max())
        dev = max(dev_a, dev_b, gram_dev)
        return sizes_ok and dev <= 1e-8, 1e-8 - dev

    return _numbered("blocks", seed, 3, 300, draw)


def suite_intersection(seed: int = DEFAULT_SEED) -> list[dict]:
    """Two-projector intersection: operator sandwich and trace floor."""
    rng = np.random.default_rng((seed, 4))
    rows = []
    idx = 0
    for eps in (0.01, 0.04, 0.16):
        tau = 1.0 - math.sqrt(eps)
        for _ in range(20):
            tilt = math.acos(math.sqrt(1.0 - eps / 2.0))
            wide = math.acos(math.sqrt(float(rng.uniform(0.05, 0.5))))
            pa, pb, a_lines = _planes_with_angles(10, [0.0, tilt, wide], rng)
            weights = [1.0 - eps, eps / 2.0, eps / 2.0]
            rho = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, a_lines))
            overlap_b = float(np.real(np.trace(rho @ pb)))
            r = _geometry.intersection_projector(pa, pb, tau).dense()
            sandwich = _linalg.psd_leq(r, pb @ pa @ pb / tau, tol=1e-8)
            kept = float(np.real(np.trace(rho @ r)))
            floor = 1.0 - 2.0 * math.sqrt(eps)
            rows.append(
                {
                    "id": f"intersection-{idx:03d}",
                    "holds": bool(sandwich and overlap_b >= 1 - eps - 1e-9 and kept >= floor - 1e-9),
                    "slack": kept - floor,
                    "note": f"eps={eps}",
                }
            )
            idx += 1
    return rows


def suite_gentle(seed: int = DEFAULT_SEED) -> list[dict]:
    """Collapse disturbance against twice the root of the lost mass."""

    def draw(rng):
        dim = int(rng.integers(2, 17))
        rho = _random_density(rng, dim)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = g @ g.conj().T
        m = h / (float(np.linalg.eigvalsh(h).max()) + float(rng.uniform(0.0, 1.0)))
        res = _geometry.gentle_measurement_check(rho, m)
        return res["holds"], res["bound"] - res["l1"]

    return _numbered("gentle", seed, 5, 500, draw)


def _rows_from_checks(prefix: str, checks: dict) -> list[dict]:
    # report-style checks mix bound directions; slack is the unsigned
    # distance to the bound, made negative when the check fails
    rows = []
    for name, c in checks.items():
        holds = bool(c.passed or c.informative)
        gap = abs(c.value - c.bound)
        rows.append(
            {
                "id": f"{prefix}:{name}",
                "holds": holds,
                "slack": gap if holds else -gap,
                "note": c.note,
            }
        )
    return rows


def suite_typicality(seed: int = DEFAULT_SEED) -> list[dict]:
    """Mass, sandwich, and cardinality reports on fixed small ensembles."""
    rng = np.random.default_rng((seed, 6))
    rows = []
    params = _typicality.TypicalityParams(delta=0.3, epsilon=0.1, context_dims=(2, 2))
    for i in range(4):
        p = float(rng.uniform(0.2, 0.8))
        dist = _typicality.ClassicalDistribution((0, 1), (p, 1.0 - p))
        checks = _typicality.verify_sequence_typicality(dist, 8, params)
        rows.extend(_rows_from_checks(f"typicality-seq-{i}", checks))
    for i in range(4):
        rho = _random_density(rng, 2)
        checks = _typicality.verify_state_typicality(rho, 6, params)
        rows.extend(_rows_from_checks(f"typicality-state-{i}", checks))
    for i in range(2):
        dist = _typicality.ClassicalDistribution((0, 1), (0.5, 0.5))
        ens = _typicality.CqEnsemble(
            dist, {0: _random_density(rng, 2), 1: _random_density(rng, 2)}
        )
        seq = tuple(int(b) for b in rng.integers(0, 2, size=6))
        checks = _typicality.verify_conditional_typicality(ens, seq, params)
        rows.extend(_rows_from_checks(f"typicality-cond-{i}", checks))
    return rows


def suite_smoothing(seed: int = DEFAULT_SEED) -> list[dict]:
    """Sup-norm ceilings and trace-distance bounds of smoothed families."""
    rng = np.random.default_rng((seed, 7))
    rows = []
    for i in range(2):
        p = float(rng.uniform(0.3, 0.7))
        dist = _typicality.ClassicalDistribution(
            ((0, "z", "y"), (1, "z", "y")), (p, 1.0 - p)
        )
        system = _typicality.CqEnsemble(
            dist,
            {(0, "z", "y"): _random_density(rng, 2), (1, "z", "y"): _random_density(rng, 2)},
        )
        se = _smoothing.smoothed_states(system, 6, 0.3)
        report = _smoothing.verify_smoothing_bounds(se)
        rows.extend(_rows_from_checks(f"smoothing-{i}", report["checks"]))
    return rows


def suite_decoders(seed: int = DEFAULT_SEED) -> list[dict]:
    """Bound flags from small sequential and square-root decode runs."""
    rng = np.random.default_rng((seed, 8))

    def qubit(r):
        v = r.normal(size=2) + 1j * r.normal(size=2)
        v /= np.linalg.norm(v)
        return np.outer(v, v.conj())

    # (row id, channel, rates, codebook seed, variant, delta, region), channels drawn in row order
    table = []
    unif = _typicality.ClassicalDistribution((0, 1), (0.5, 0.5))
    for i in range(3):
        chan = _channels.CqChannel(unif, {0: qubit(rng), 1: qubit(rng)})
        for variant in ("seq", "seq-gated", "pgm"):
            table.append((f"decoders-cq-{i}-{variant}", chan, 0.3, (seed, 8, i), variant, 0.9, None))
    for i in range(2):
        mac = _channels.CcqMac(unif, unif, {(x, y): qubit(rng) for x in (0, 1) for y in (0, 1)})
        table.append((f"decoders-mac-{i}", mac, (0.25, 0.25), (seed, 9, i), "seq", 0.25, None))
    ydist = _typicality.ClassicalDistribution(("y",), (1.0,))
    for i, region in ((0, 1), (1, 2)):
        cmg = _channels.CoupledMac(unif, {0: unif, 1: unif}, ydist, {(z, "y"): qubit(rng) for z in (0, 1)})
        table.append((f"decoders-cmg-region{region}", cmg, (0.25, 0.25, 0.0), (seed, 10, i), "seq", 0.25, region))

    rows = []
    for row_id, chan, rates, book_seed, variant, delta, region in table:
        res = _decoders.monte_carlo_avg_error(
            chan, rates, 4, 2, book_seed, variant, delta=delta, region=region, keep_reports=True
        )
        holds = bool(res["all_bounds_satisfied"])
        note = f"mean_error={res['mean_error']:.6f}"
        # a trial whose candidates are all empty decodes nothing, and its bounds cannot fail
        empty = sum("degenerate" in report.details for report in res["reports"])
        if empty:
            note += f"; all candidates empty in {empty}/{len(res['reports'])} trials"
        rows.append({"id": row_id, "holds": holds, "slack": 0.0 if holds else -1.0, "note": note})
    return rows


SUITES = {
    "lemma-key": suite_lemma_key,
    "lemma-chain": suite_lemma_chain,
    "blocks": suite_blocks,
    "intersection": suite_intersection,
    "gentle": suite_gentle,
    "typicality": suite_typicality,
    "smoothing": suite_smoothing,
    "decoders": suite_decoders,
}


def _known(name: str) -> str:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {sorted(SUITES)} or 'all'")
    return name


def run_suite(name: str, seed: int = DEFAULT_SEED) -> dict:
    """Run one named suite and summarise its rows."""
    rows = SUITES[_known(name)](seed)
    failures = sum(1 for r in rows if not r["holds"])
    return {
        "suite": name,
        "seed": seed,
        "total": len(rows),
        "failures": failures,
        "ok": failures == 0,
        "instances": rows,
    }


def _run_each(names: list[str], seed: int) -> list[dict]:
    """``run_suite`` of each name, reports in the order of ``names``.

    With two or more suites and CPUs, the suites run in a pool of forked
    workers, one per CPU up to one per suite.  ``fork`` keeps the parent's
    module state (a patched core stays patched) and skips re-importing numpy;
    the pool forks every worker before it starts its manager thread, so no
    thread of its own is copied.  With one CPU, one suite or no ``fork``, they run inline; the pool's
    modules are imported only when it is used.  A suite's exception is
    raised here, after the pool has shut down.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(names), cpus)
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            try:
                futures = [pool.submit(run_suite, name, seed) for name in names]
                return [future.result() for future in futures]
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
    return [run_suite(name, seed) for name in names]


def run_suites(names, seed: int = DEFAULT_SEED) -> dict:
    """Run several suites ('all' expands to every registered suite)."""
    # every name is checked before any suite runs; repeats run once, first place kept
    expanded = dict.fromkeys(k for name in names for k in (SUITES if name == "all" else [_known(name)]))
    reports = _run_each(list(expanded), seed)
    return {
        "seed": seed,
        "suites": reports,
        "failures": sum(r["failures"] for r in reports),
        "ok": all(r["ok"] for r in reports),
    }
