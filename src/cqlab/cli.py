"""Batch front door: regions, simulate, sweep, and verify commands.

Artifacts are deterministic byte-for-byte for a fixed seed and tool
version: JSON is emitted with sorted keys, CSV cells use shortest
round-trip float repr, and no timing information is written.

Exit codes: 0 success, 2 parse or configuration error, 3 dimension cap
exceeded, 4 property-suite failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import verify as _verify
from .channels import InterferenceChannel
from .decoders import _decoded_messages, monte_carlo_avg_error
from .linalg import DimensionCapError
from .regions import named_regions, sample_boundary
from .specio import SpecError, _kind, load_channel

TOOL_VERSION = "cqlab/0.1.0"
CSV_SCHEMA_REGIONS = "cqlab-regions-csv/1"
CSV_SCHEMA_PER_MESSAGE = "cqlab-per-message-csv/1"
CSV_SCHEMA_SWEEP = "cqlab-sweep-csv/1"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_PROPERTY = 4


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _write_csv(path: str, schema: str, header: list[str], rows: list[list]) -> None:
    lines = [f"# schema: {schema}", ",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _ensure_outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def cmd_regions(args) -> int:
    channel = load_channel(args.spec)
    kind = _kind(channel)
    try:
        regions = named_regions(channel, args.delta)
    except ValueError as exc:
        raise SpecError(f"kind {kind!r}", str(exc)) from exc
    outdir = _ensure_outdir(args.out)

    csv_rows = []
    doc: dict = {
        "schema": "cqlab-regions/1",
        "tool": TOOL_VERSION,
        "kind": kind,
        "seed": args.seed,
        "regions": {},
    }
    for name, region in regions.items():
        rows = region.rows()
        for r in rows:
            csv_rows.append([name, r["part"], r["label"], r["relation"], r["bound"]])
        rng = np.random.default_rng((args.seed, 99))
        boundary = sample_boundary(region, rng)
        doc["regions"][name] = {
            "rate_names": list(region.rate_names),
            "constraints": [{**r, "coeffs": list(r["coeffs"])} for r in rows],
            "boundary_samples": {
                part: [list(p) for p in pts] for part, pts in boundary.items()
            },
        }
    _write_csv(
        os.path.join(outdir, "regions.csv"),
        CSV_SCHEMA_REGIONS,
        ["region", "part", "label", "relation", "bound"],
        csv_rows,
    )
    _write_json(os.path.join(outdir, "regions.json"), doc)
    print(f"wrote {len(csv_rows)} constraint rows to {outdir}/regions.csv")
    return EXIT_OK


def _resolve_order(spec: str, channel, rates, n: int, region: int | None):
    if spec == "lex":
        return None
    messages = _decoded_messages(channel, rates, n, region)
    if spec == "reverse":
        return list(reversed(messages))
    if spec.startswith("random:"):
        try:
            sub = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad --order value {spec!r}; expected random:<integer seed>") from None
        rng = np.random.default_rng(sub)
        return [messages[i] for i in rng.permutation(len(messages))]
    raise ValueError(f"bad --order value {spec!r}; expected lex, reverse, or random:<seed>")


def _message_columns(message) -> list:
    parts = [message] if isinstance(message, int) else list(message)
    parts += [""] * (3 - len(parts))
    return parts


def _simulate_result(args, channel):
    if isinstance(channel, InterferenceChannel):
        raise SpecError("spec.kind", "no direct decoder for kind 'ccqq-ic'; decode its per-receiver sub-problems instead")
    order = _resolve_order(args.order, channel, args.rate, args.n, args.region)
    return monte_carlo_avg_error(
        channel,
        args.rate,
        args.n,
        args.trials,
        args.seed,
        args.decoder,
        delta=args.delta,
        region=args.region,
        epsilon=args.epsilon,
        order=order,
        keep_reports=True,
    )


def _config(args, n_key: str, n) -> dict:
    """The experiment flags as written into summary.json and sweep.json."""
    return {
        n_key: n,
        "delta": args.delta,
        "epsilon": args.epsilon,
        "rates": list(args.rate),
        "trials": args.trials,
        "seed": args.seed,
        "decoder": args.decoder,
        "region": args.region,
        "order": args.order,
    }


def _summary_doc(args, channel, result) -> dict:
    return {
        "schema": "cqlab-simulate/1",
        "tool": TOOL_VERSION,
        "kind": _kind(channel),
        "config": _config(args, "n", args.n),
        "result": {
            "variant": result["variant"],
            "bound_kind": result["bound_kind"],
            "mean_error": result["mean_error"],
            "standard_error": result["standard_error"],
            "mean_bound": result["mean_bound"],
            "per_trial_errors": list(result["per_trial_errors"]),
            "all_bounds_satisfied": result["all_bounds_satisfied"],
        },
    }


def cmd_simulate(args) -> int:
    channel = load_channel(args.spec)
    result = _simulate_result(args, channel)
    outdir = _ensure_outdir(args.out)

    rows = []
    for t, report in enumerate(result["reports"]):
        for o in report.outcomes:
            rows.append(
                [t, *_message_columns(o.message), o.error, o.bound, o.bound_satisfied]
            )
    _write_csv(
        os.path.join(outdir, "per_message.csv"),
        CSV_SCHEMA_PER_MESSAGE,
        ["trial", "m1", "m2", "m3", "error", "bound", "bound_satisfied"],
        rows,
    )
    _write_json(os.path.join(outdir, "summary.json"), _summary_doc(args, channel, result))
    print(
        f"{result['variant']}: mean error {result['mean_error']:.6f} "
        f"(SE {result['standard_error']:.6f}) over {args.trials} trial(s); "
        f"bounds {'ok' if result['all_bounds_satisfied'] else 'VIOLATED'}"
    )
    degenerate = [t for t, report in enumerate(result["reports"]) if "degenerate" in report.details]
    if degenerate:
        print(
            f"warning: all candidates empty in {len(degenerate)} of {args.trials} trial(s) "
            f"(first: trial {degenerate[0]}); the errors measure no decoding",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_sweep(args) -> int:
    channel = load_channel(args.spec)
    outdir = _ensure_outdir(args.out)
    rows = []
    results = []
    prev = None
    for n in args.n:
        ns = argparse.Namespace(**{**vars(args), "n": n})
        result = _simulate_result(ns, channel)
        trend = ""
        if prev is not None:
            gap = result["mean_error"] - prev
            trend = "flat" if abs(gap) <= 1e-12 else ("down" if gap < 0 else "up")
        rows.append(
            [
                n,
                args.trials,
                result["mean_error"],
                result["standard_error"],
                result["mean_bound"],
                trend,
            ]
        )
        results.append(result)
        prev = result["mean_error"]
    _write_csv(
        os.path.join(outdir, "sweep.csv"),
        CSV_SCHEMA_SWEEP,
        ["n", "trials", "mean_error", "standard_error", "mean_bound", "trend_vs_prev"],
        rows,
    )
    means = [r["mean_error"] for r in results]
    doc = {
        "schema": "cqlab-sweep/1",
        "tool": TOOL_VERSION,
        "kind": _kind(channel),
        "config": _config(args, "n_values", list(args.n)),
        "result": {
            "mean_errors": means,
            "standard_errors": [r["standard_error"] for r in results],
            "monotone_decreasing": all(b < a + 1e-12 for a, b in zip(means, means[1:])),
            "all_bounds_satisfied": all(r["all_bounds_satisfied"] for r in results),
        },
    }
    _write_json(os.path.join(outdir, "sweep.json"), doc)
    print(f"swept n in {list(args.n)}: mean errors {[round(m, 6) for m in means]}")
    return EXIT_OK


def cmd_verify(args) -> int:
    report = _verify.run_suites(args.suite, seed=args.seed)
    doc = {"schema": "cqlab-verify/1", "tool": TOOL_VERSION, **report}
    if args.out:
        outdir = _ensure_outdir(args.out)
        _write_json(os.path.join(outdir, "verify.json"), doc)
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    for suite in report["suites"]:
        print(
            f"suite {suite['suite']}: {suite['total'] - suite['failures']}/{suite['total']} ok",
            file=sys.stderr,
        )
    return EXIT_OK if report["ok"] else EXIT_PROPERTY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqlab",
        description="Exact decoding experiments and rate regions for classical-quantum channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    regions = sub.add_parser("regions", help="emit rate-region constraints and boundary samples")
    regions.add_argument("--spec", required=True, help="channel spec JSON path")
    regions.add_argument("--out", required=True, help="output directory")
    regions.add_argument("--delta", type=float, default=None, help="blocklength-aware weak variant (mac kinds only)")
    regions.add_argument("--seed", type=int, default=0, help="boundary sampling seed")
    regions.set_defaults(func=cmd_regions)

    def add_experiment_flags(p, sweep: bool) -> None:
        p.add_argument("--spec", required=True, help="channel spec JSON path")
        p.add_argument("--out", required=True, help="output directory")
        if sweep:
            p.add_argument("--n", type=int, action="append", required=True, help="block length (repeatable)")
        else:
            p.add_argument("--n", type=int, required=True, help="block length")
        p.add_argument("--delta", type=float, required=True, help="typicality parameter")
        p.add_argument("--epsilon", type=float, default=None, help="explicit intersection epsilon (default: measured)")
        p.add_argument("--rate", type=float, action="append", required=True, help="rate per sender (repeatable)")
        p.add_argument("--trials", type=int, default=1, help="Monte Carlo trials")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--decoder", choices=("seq", "seq-gated", "pgm"), default="seq")
        p.add_argument("--region", type=int, choices=(1, 2), default=None, help="cmg-mac decode region")
        p.add_argument("--order", default="lex", help="message order: lex, reverse, or random:<seed>")

    simulate = sub.add_parser("simulate", help="decode sampled codebooks and emit reports")
    add_experiment_flags(simulate, sweep=False)
    simulate.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser("sweep", help="simulate across block lengths")
    add_experiment_flags(sweep, sweep=True)
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify", help="run seeded invariant suites")
    verify.add_argument(
        "--suite",
        action="append",
        choices=(*sorted(_verify.SUITES), "all"),
        default=None,
        help="suite name (repeatable; default all)",
    )
    verify.add_argument("--seed", type=int, default=_verify.DEFAULT_SEED)
    verify.add_argument("--out", default=None, help="directory for verify.json (default: stdout)")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify" and args.suite is None:
        args.suite = ["all"]
    try:
        return args.func(args)
    except DimensionCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:  # SpecError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
