"""Checks on the benchmark itself: tracing fidelity and non-degenerate inputs.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (pins BLAS threads before numpy is imported)

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def traced_cq_large():
    wl, workdir, _ = run.make_workload("cq-large", workloads.DEFAULT_SEED)
    try:
        yield wl, run.measure(wl, 0.0, trace=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@pytest.fixture(scope="module")
def traced_multi_sender():
    wl, workdir, _ = run.make_workload("multi-sender", workloads.DEFAULT_SEED)
    tracer = tracing.Tracer()
    try:
        with tracer:
            ops = run.run_pass(wl, 0, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return ops, tracer


def test_traced_outputs_match_untraced_and_reference(traced_cq_large):
    wl, measured = traced_cq_large
    # measure() marks an op failed when traced and untraced outputs differ
    assert [o["problems"] for o in measured["ops"]] == [[] for _ in measured["ops"]]
    assert all(o["key"] in wl.reference for o in measured["ops"])


def test_self_times_sum_to_traced_run_time(traced_cq_large):
    _, measured = traced_cq_large
    cols = measured["tracer"].arrays()
    roots = cols["parent"] < 0
    inside = float((cols["end"] - cols["start"])[roots].sum())
    traced_run_s = sum(measured["traced_seconds"])
    assert cols["self"].sum() == pytest.approx(inside, rel=1e-9)
    outside = traced_run_s - inside
    assert 0.0 <= outside < 0.02 * traced_run_s


def test_every_per_layer_metric_is_reported(traced_cq_large):
    _, measured = traced_cq_large
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    values = run.per_layer(measured, names)
    assert sorted(values) == sorted(names)
    assert values["geometry.sequential_collapse.calls"] > 0
    assert values["geometry.sequential_collapse.gflop_computed"] > 0


def test_wrappers_patch_every_namespace_and_restore():
    import cqlab.decoders
    import cqlab.geometry
    import cqlab.linalg
    import cqlab.smoothing
    import cqlab.typicality

    originals = (
        cqlab.decoders.sequential_collapse,
        cqlab.smoothing.cond_typical_projector,
        vars(cqlab.linalg.Projector)["trace_with"],
        vars(cqlab.linalg.Projector)["from_matrix"],
    )
    tracer = tracing.Tracer()
    with tracer:
        assert cqlab.decoders.sequential_collapse is cqlab.geometry.sequential_collapse
        assert cqlab.decoders.sequential_collapse is not originals[0]
        assert cqlab.smoothing.cond_typical_projector is cqlab.typicality.cond_typical_projector
        assert cqlab.smoothing.cond_typical_projector is not originals[1]
        assert vars(cqlab.linalg.Projector)["trace_with"] is not originals[2]
        cqlab.linalg.Projector.zero(2).trace_with([[1, 0], [0, 0]])
    called = {tracer.names[s[0]] for s in tracer.spans}
    assert {"linalg.Projector.zero", "linalg.Projector.trace_with", "linalg.as_matrix"} <= called
    assert (
        cqlab.decoders.sequential_collapse,
        cqlab.smoothing.cond_typical_projector,
        vars(cqlab.linalg.Projector)["trace_with"],
        vars(cqlab.linalg.Projector)["from_matrix"],
    ) == originals


def _share_empty(tracer) -> float:
    count = lambda key: sum(v for (_, k), v in tracer.counts.items() if k == key)  # noqa: E731
    return count(tracing.COUNT_EMPTY_CANDIDATES) / count(tracing.COUNT_CANDIDATES)


def test_cq_large_candidates_are_not_all_empty(traced_cq_large):
    _, measured = traced_cq_large
    assert _share_empty(measured["tracer"]) < 1.0


def test_multi_sender_candidates_are_not_all_empty(traced_multi_sender):
    ops, tracer = traced_multi_sender
    assert [o["problems"] for o in ops] == [[] for _ in ops]
    assert _share_empty(tracer) < 1.0
    built = tracer.names.index("geometry.intersection_projector")
    assert sum(1 for s in tracer.spans if s[0] == built) >= 1


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(21)]
    assert run.tail(values) == (10.0, 100.0 * 11 / 21, 21)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_refuses_to_run_without_the_sources():
    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "small-many", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_counters_never_consume_a_generator_argument():
    import numpy as np

    import cqlab.geometry
    import cqlab.linalg

    rho = np.eye(2) / 2
    p = cqlab.linalg.Projector.from_matrix(np.diag([1.0, 0.0]))
    expected = cqlab.geometry.sequential_collapse(rho, [(p, "success")]).success_probability
    tracer = tracing.Tracer()
    with tracer:
        got = cqlab.geometry.sequential_collapse(rho, ((p, "success") for _ in range(1)))
    assert got.success_probability == expected
    assert sum(v for (_, k), v in tracer.counts.items() if k == tracing.COUNT_HOOK_FAILURES) == 1


def test_reference_check_rejects_drift_and_nan():
    expected = [[1, 0.25, 0.5], [2, 0.75, 1.0]]
    assert run.reference_problems(expected, [[1, 0.25, 0.5], [2, 0.75 + 1e-13, 1.0]]) == []
    assert run.reference_problems(expected, [[1, 0.25, 0.5], [2, 0.75 + 1e-11, 1.0]])
    assert run.reference_problems(expected, [[1, float("nan"), 0.5], [2, 0.75, 1.0]])
    assert run.reference_problems(expected, [[2, 0.75, 1.0], [1, 0.25, 0.5]])
