"""cqlab benchmark: one command, three exact-decoding workloads.

Usage, from the repository root:

    python3 bench/run.py --workload cq-large --seed 0 --seconds 30 --trace 0

Each workload runs in this single process as a closed loop with one client,
with BLAS pinned to one thread.  A run repeats the workload's fixed op list
(a *pass*, on fresh inputs derived from ``--seed`` and the pass index)
until ``--seconds`` would be exceeded, and always runs at least
``MIN_PASSES`` passes so ``run_s`` is a median.  Every op's outputs are checked: no raise, no
violated bound, and at ``DEFAULT_SEED`` agreement with ``bench/reference``
within 1e-12.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs every pass twice, untraced and traced in alternating
order, requires bit-identical outputs, reports the per-layer metrics and
writes the spans to ``bench/out``.  The last stdout line is the result
JSON; the line before it is the run record (machine, versions, sample
counts), which carries no gated metric.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy can be imported, here and in the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_PASSES = 3
TRACE_MIN_PASSES = 2
HARD_LIMIT_S = 140.0
SETUP_PROBES = 5
EQUIVALENCE_TOL = 1e-12
OP_STRIDE = 1000  # op id = pass * OP_STRIDE + slot


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cq-large", "multi-sender", "small-many"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


# -- set-up ------------------------------------------------------------
def make_workload(name: str, seed: int):
    """Import cqlab, build the workload's inputs; return (workload, workdir, info)."""
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    wl = workloads.WORKLOADS[name]()
    info = wl.setup(seed, workdir)
    ref_path = BENCH / "reference" / f"{name}.json"
    wl.reference = {}
    if seed == workloads.DEFAULT_SEED and ref_path.exists():
        wl.reference = json.loads(ref_path.read_text())["ops"]
    return wl, workdir, info


def setup_probe(args) -> int:
    wl, workdir, _ = make_workload(args.workload, args.seed)
    ready = time.monotonic()
    shutil.rmtree(workdir, ignore_errors=True)
    print(f"ready {ready!r}")
    return 0


def measure_setup(args) -> list[float]:
    """Seconds from process start to ready-for-the-first-op, in fresh interpreters.

    CLOCK_MONOTONIC is system-wide, so the probe's ready time and the
    launch time read here are on one clock.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        launched = time.monotonic()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=120, check=True)
        word, ready = proc.stdout.split()
        if word != "ready":
            raise RuntimeError(f"unexpected set-up probe output {proc.stdout!r}")
        samples.append(float(ready) - launched)
    return samples


# -- the measured loop -------------------------------------------------
def run_pass(wl, p: int, tracer=None) -> list[dict]:
    ops = []
    for slot, (kind, run, read) in enumerate(wl.pass_ops(p)):
        key = f"{p}.{slot}"
        if tracer is not None:
            tracer.op = p * OP_STRIDE + slot
        start = time.perf_counter()
        try:
            result = run()
            raised = None
        except Exception:  # an op that raises counts as failed; the run goes on
            raised = traceback.format_exc()
        seconds = time.perf_counter() - start
        if raised is None:
            try:
                outputs, problems = read(result)
            except Exception:
                outputs, problems = {}, [traceback.format_exc()]
        else:
            outputs, problems = {}, [raised]
        problems += reference_problems(wl.reference.get(key), outputs.get("rows"))
        ops.append({"key": key, "kind": kind, "seconds": seconds, "outputs": outputs, "problems": problems})
    return ops


def reference_problems(expected, rows) -> list[str]:
    if expected is None:
        return []
    if rows is None or len(rows) != len(expected):
        return ["outputs differ from the reference in length"]
    for (m, err, bnd), (m_ref, err_ref, bnd_ref) in zip(rows, expected):
        m = list(m) if isinstance(m, (list, tuple)) else [m]
        m_ref = list(m_ref) if isinstance(m_ref, (list, tuple)) else [m_ref]
        if m != m_ref:
            return [f"message order differs from the reference ({m} vs {m_ref})"]
        gap = max(abs(err - err_ref), abs(bnd - bnd_ref))
        if not gap <= EQUIVALENCE_TOL:  # also catches NaN
            return [f"message {m} differs from the reference by {gap:.3g} > {EQUIVALENCE_TOL}"]
    return []


def run_traced_pair(wl, p: int, tracer) -> tuple[list[dict], float]:
    """Run pass ``p`` untraced and traced; return the untraced ops and traced seconds.

    The side that runs first alternates with ``p`` so warm caches favour
    neither.  An op whose traced outputs differ from its untraced ones fails.
    """
    sides = {}
    for traced in ((False, True) if p % 2 == 0 else (True, False)):
        if traced:
            with tracer:
                sides[traced] = run_pass(wl, p, tracer)
        else:
            sides[traced] = run_pass(wl, p)
    for plain, traced in zip(sides[False], sides[True]):
        if plain["outputs"] != traced["outputs"]:
            plain["problems"].append("traced outputs differ from untraced outputs")
        plain["problems"] += traced["problems"]
    return sides[False], sum(o["seconds"] for o in sides[True])


def measure(wl, seconds: float, trace: bool) -> dict:
    """Run passes until the budget is spent; with ``trace`` run each pass twice."""
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    passes, ops, pass_seconds, traced_seconds = [], [], [], []
    begun = time.perf_counter()
    p = 0
    while True:
        if trace:
            done, traced = run_traced_pair(wl, p, tracer)
            traced_seconds.append(traced)
        else:
            done = run_pass(wl, p)
        ops += done
        pass_seconds.append(sum(o["seconds"] for o in done))
        passes.append(p)
        p += 1
        elapsed = time.perf_counter() - begun
        step = statistics.median(pass_seconds) + (statistics.median(traced_seconds) if trace else 0.0)
        enough = len(passes) >= (TRACE_MIN_PASSES if trace else MIN_PASSES)
        if (enough and elapsed + step > seconds) or elapsed + step > HARD_LIMIT_S:
            break
    out = {"passes": passes, "ops": ops, "pass_seconds": pass_seconds, "elapsed_s": time.perf_counter() - begun}
    if trace:
        out["tracer"] = tracer
        out["traced_seconds"] = traced_seconds
    return out


# -- metrics -----------------------------------------------------------
def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples); with ten samples or fewer no such
    percentile exists and the slowest sample is reported at percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(measured: dict, setup_samples: list[float]) -> dict:
    op_seconds = [o["seconds"] for o in measured["ops"]]
    tail_value, _, _ = tail(op_seconds)
    return {
        "setup_s": statistics.median(setup_samples),
        "run_s": statistics.median(measured["pass_seconds"]),
        "op_s_p50": statistics.median(op_seconds),
        "op_s_tail": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(measured: dict, names: list[str]) -> dict:
    """Per-pass medians of self time and call counts, run-wide shares.

    A layer that no longer exists in cqlab reports 0 rather than failing
    the run, so later changes to the package keep the benchmark usable.
    """
    import numpy as np

    import tracing

    tracer = measured["tracer"]
    cols = tracer.arrays()
    span_pass = cols["op"] // OP_STRIDE
    passes = measured["passes"]
    index = {name: i for i, name in enumerate(tracer.names)}

    def per_pass(value_of) -> float:
        return float(statistics.median(value_of(p) for p in passes))

    def self_s(*layers) -> float:
        mask = np.isin(cols["name"], [index[layer] for layer in layers if layer in index])
        return per_pass(lambda p: float(cols["self"][mask & (span_pass == p)].sum()))

    def calls(layer, p=None) -> float:
        mask = cols["name"] == index.get(layer, -1)
        if p is None:
            return float(np.count_nonzero(mask))
        return float(np.count_nonzero(mask & (span_pass == p)))

    def count(key, p=None) -> float:
        return float(sum(v for (op, k), v in tracer.counts.items()
                         if k == key and (p is None or op // OP_STRIDE == p)))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    overhead = [t - u for u, t in zip(measured["pass_seconds"], measured["traced_seconds"])]
    special = {
        "decoders.pgm_elements.self_s": self_s(
            "decoders.cq_pgm_elements", "decoders.mac_pgm_elements", "decoders.cmg_pgm_elements"),
        "geometry.sequential_collapse.steps": per_pass(lambda p: count(tracing.COUNT_STEPS, p)),
        "geometry.sequential_collapse.gflop_computed": per_pass(lambda p: count(tracing.COUNT_FLOP, p) / 1e9),
        "geometry.sequential_collapse.zero_rank_step_share": ratio(
            count(tracing.COUNT_ZERO_RANK_STEPS), count(tracing.COUNT_STEPS)),
        "typicality.cond_typical_projector.repeat_share": ratio(
            count(tracing.COUNT_CTP_REPEATS), calls("typicality.cond_typical_projector")),
        "decoders.candidate_rank_zero_share": ratio(
            count(tracing.COUNT_EMPTY_CANDIDATES), count(tracing.COUNT_CANDIDATES)),
        "trace_overhead_s": statistics.median(overhead),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".self_s"):
            out[name] = self_s(name[: -len(".self_s")])
        elif name.endswith(".calls"):
            out[name] = per_pass(lambda p, layer=name[: -len(".calls")]: calls(layer, p))
        else:
            raise KeyError(f"no rule computes per-layer metric {name}")
    return out


# -- run record --------------------------------------------------------
def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def run_record(args, measured: dict, setup_samples, in_process_setup_s: float, inputs: dict,
               reference: dict) -> dict:
    import numpy as np

    op_seconds = [o["seconds"] for o in measured["ops"]]
    _, pct, count = tail(op_seconds)
    kinds: dict = {}
    for o in measured["ops"]:
        kinds.setdefault(o["kind"], []).append(o["seconds"])
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(measured["passes"]),
        "ops_attempted": len(measured["ops"]),
        "ops_failed": sum(1 for o in measured["ops"] if o["problems"]),
        "ops_checked_against_reference": sum(1 for o in measured["ops"] if o["key"] in reference),
        "op_s_tail_percentile": pct,
        "op_s_tail_samples": count,
        "op_s_median_by_kind": {k: statistics.median(v) for k, v in sorted(kinds.items())},
        "pass_seconds": measured["pass_seconds"],
        "op_seconds": op_seconds,
        "measured_s": measured["elapsed_s"],
        "setup_s_samples": setup_samples,
        "in_process_setup_s": in_process_setup_s,
        "inputs": inputs,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas.get("version"),
        "git_commit": git_commit(),
        "src_cqlab_lines": sum(len(p.read_text().splitlines()) for p in sorted((SRC / "cqlab").glob("*.py"))),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cqlab" / "__init__.py").is_file():
        print(f"error: no cqlab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    setup_samples = [] if args.trace else measure_setup(args)
    started = time.perf_counter()
    wl, workdir, inputs = make_workload(args.workload, args.seed)
    in_process_setup_s = time.perf_counter() - started
    try:
        measured = measure(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = per_layer(measured, [m["name"] for m in metric_specs])
        measured["tracer"].write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        values = end_to_end(measured, setup_samples)
    record = run_record(args, measured, setup_samples, in_process_setup_s, inputs, wl.reference)
    if args.trace:
        import tracing

        record["uncounted_hook_calls"] = sum(
            v for (_, k), v in measured["tracer"].counts.items() if k == tracing.COUNT_HOOK_FAILURES)

    for o in measured["ops"]:
        for problem in o["problems"]:
            print(f"op {o['key']} ({o['kind']}) failed: {problem}", file=sys.stderr)
    metrics = {}
    for m in metric_specs:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]!r} {m['unit']}")
    print(f"ops_failed = {record['ops_failed']} of ops_attempted = {record['ops_attempted']}")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": record["ops_failed"] == 0,
        "attempted": record["ops_attempted"],
        "failed": record["ops_failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
