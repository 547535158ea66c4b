"""The three benchmark workloads and the checks on their outputs.

A workload turns ``--seed`` into inputs during ``setup`` and then hands out
passes: pass ``p`` is the workload's fixed op list, drawn on fresh codebook
or suite seeds derived from ``(seed, p)``.  Each op is ``(kind, run,
read)``: ``run`` is the timed call into cqlab, ``read`` turns its result
into comparable outputs plus a list of problems (a violated bound, a failed
check).  Decode ops put ``[message, error, bound]`` rows under
``outputs["rows"]``; those rows are compared against the committed
reference at ``DEFAULT_SEED``.

cqlab is always called through its module attributes (``decoders.x``,
``cli.main``), so the tracer's wrappers are seen when installed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os

import numpy as np

from cqlab import cli, decoders, smoothing, specio, typicality
from cqlab.channels import CcqMac, CoupledMac, CqChannel
from cqlab.typicality import ClassicalDistribution, CqEnsemble

DEFAULT_SEED = 0

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]])
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]])
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]])
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]])


def derived_seed(seed: int, p: int) -> int:
    """One integer per (workload seed, pass) for the CLI's ``--seed``."""
    return seed * 1_000_003 + p


def _rows(report) -> list:
    return [[o.message, o.error, o.bound] for o in report.outcomes]


def _cli_runner(argv: list):
    """Op that runs ``cqlab <argv>`` in-process and returns its exit code."""
    def run():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)
    return run


class CqLarge:
    """Single sender {|0>, |+>}, n = 8 (D = 256), R = 0.5 (16 codewords)."""

    name = "cq-large"
    variants = ("seq", "seq-gated", "pgm")
    n, rate, delta = 8, 0.5, 0.99

    def setup(self, seed: int, workdir: str) -> dict:
        self.seed = seed
        u = ClassicalDistribution((0, 1), (0.5, 0.5))
        self.channel = CqChannel(u, {0: KET0, 1: PLUS})
        # monte_carlo_avg_error draws trial 0 of pass p with seed (seed, p, 0)
        book = decoders.sample_codebook(self.channel, (self.rate,), self.n, (seed, 0, 0))
        typical = sum(
            typicality.is_typical(u, book.sequences(m)[0], self.delta) for m in book.messages()
        )
        return {"pass0_codewords": len(book.messages()), "pass0_typical": int(typical)}

    def pass_ops(self, p: int) -> list:
        return [(f"cq/{v}", self._runner(p, v), self._read) for v in self.variants]

    def _runner(self, p: int, variant: str):
        def run():
            return decoders.monte_carlo_avg_error(
                self.channel, (self.rate,), self.n, 1, (self.seed, p), variant,
                delta=self.delta, keep_reports=True,
            )
        return run

    @staticmethod
    def _read(result) -> tuple[dict, list]:
        report = result["reports"][0]
        problems = [f"bound violated for message {o.message}" for o in report.outcomes
                    if not o.bound_satisfied]
        if not result["all_bounds_satisfied"] and not problems:
            problems.append("all_bounds_satisfied is false")
        return {"rows": _rows(report)}, problems


class MultiSender:
    """Two- and three-sender channels decoded through ``cqlab simulate``."""

    name = "multi-sender"
    n, delta = 7, 0.99
    # (label, spec file, rates, extra flags); each runs with seq then pgm
    configs = (
        ("ccq-mac", "ccq_mac.json", ("0.35", "0.35"), ()),
        ("cmg-r1", "cmg_mac.json", ("0.35", "0.35", "0"), ("--region", "1")),
        ("cmg-r2", "cmg_mac.json", ("0.35", "0.35", "0"), ("--region", "2")),
    )

    def setup(self, seed: int, workdir: str) -> dict:
        self.seed = seed
        self.workdir = workdir
        u = ClassicalDistribution(("0", "1"), (0.5, 0.5))
        mac = CcqMac(u, u, {("0", "0"): KET0, ("0", "1"): PLUS, ("1", "0"): MINUS, ("1", "1"): KET1})
        rows = {
            "0": ClassicalDistribution(("0", "1"), (0.8, 0.2)),
            "1": ClassicalDistribution(("0", "1"), (0.2, 0.8)),
        }
        cmg = CoupledMac(u, rows, ClassicalDistribution(("0",), (1.0,)), {("0", "0"): KET0, ("1", "0"): PLUS})
        specio.dump_channel(mac, os.path.join(workdir, "ccq_mac.json"))
        specio.dump_channel(cmg, os.path.join(workdir, "cmg_mac.json"))
        # the CLI's --seed s draws trial 0 with codebook seed (s, 0)
        s0 = (derived_seed(seed, 0), 0)
        mac_book = decoders.sample_codebook(mac, (0.35, 0.35), self.n, s0)
        cmg_book = decoders.sample_codebook(cmg, (0.35, 0.35, 0.0), self.n, s0)
        return {"pass0_ccq_mac_messages": len(mac_book.messages()),
                "pass0_cmg_messages": len(cmg_book.messages())}

    def pass_ops(self, p: int) -> list:
        ops = []
        for label, spec, rates, extra in self.configs:
            for decoder in ("seq", "pgm"):
                argv = ["simulate", "--spec", os.path.join(self.workdir, spec), "--n", str(self.n),
                        "--delta", str(self.delta), "--trials", "1",
                        "--seed", str(derived_seed(self.seed, p)), "--decoder", decoder,
                        "--out", self.workdir, *extra]
                for r in rates:
                    argv += ["--rate", r]
                ops.append((f"{label}/{decoder}", _cli_runner(argv), self._read))
        return ops

    def _read(self, code) -> tuple[dict, list]:
        if code != 0:
            return {}, [f"cqlab simulate exited with {code}"]
        with open(os.path.join(self.workdir, "per_message.csv"), encoding="utf-8") as fh:
            lines = [line for line in fh if not line.startswith("#")]
        rows, problems = [], []
        for rec in csv.DictReader(lines):
            message = [int(rec[k]) for k in ("m1", "m2", "m3") if rec[k]]
            rows.append([message, float(rec["error"]), float(rec["bound"])])
            if rec["bound_satisfied"] != "true":
                problems.append(f"bound violated for message {message}")
        return {"rows": rows}, problems


def diagonal_triple_system() -> CqEnsemble:
    """Four diagonal qubit states over (x, z = x, y), uniform prior."""
    entries = {(0, 0): (0.86, 0.14), (0, 1): (0.32, 0.68), (1, 0): (0.57, 0.43), (1, 1): (0.23, 0.77)}
    symbols, states = [], {}
    for x in (0, 1):
        for y in (0, 1):
            symbols.append((x, x, y))
            states[(x, x, y)] = np.diag(np.array(entries[(x, y)]))
    return CqEnsemble(ClassicalDistribution(tuple(symbols), (0.25,) * 4), states)


class SmallMany:
    """Smoothing build-and-verify (n = 6) and ``cqlab verify --suite all``."""

    name = "small-many"
    n, delta = 6, 0.35

    def setup(self, seed: int, workdir: str) -> dict:
        self.seed = seed
        self.workdir = workdir
        self.system = diagonal_triple_system()
        return {"system_symbols": len(self.system.dist.support)}

    def pass_ops(self, p: int) -> list:
        argv = ["verify", "--suite", "all", "--seed", str(derived_seed(self.seed, p)), "--out", self.workdir]
        return [("smoothing", self._smooth, self._read_smoothing),
                ("verify", _cli_runner(argv), self._read_verify)]

    def _smooth(self):
        se = smoothing.smoothed_states(self.system, self.n, self.delta)
        return smoothing.verify_smoothing_bounds(se)

    @staticmethod
    def _read_smoothing(report) -> tuple[dict, list]:
        checks = report["checks"]
        outputs = {name: [float(c.value), float(c.bound)] for name, c in checks.items()}
        problems = [f"smoothing check {name} does not hold" for name, c in checks.items() if not c.passed]
        return {"checks": outputs}, problems

    def _read_verify(self, code) -> tuple[dict, list]:
        if code != 0:
            return {}, [f"cqlab verify exited with {code}"]
        with open(os.path.join(self.workdir, "verify.json"), "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw)
        problems = []
        if not doc["ok"]:
            problems.append(f"verify report not ok ({doc['failures']} failures)")
        return {"verify_sha256": hashlib.sha256(raw).hexdigest()}, problems


WORKLOADS = {w.name: w for w in (CqLarge, MultiSender, SmallMany)}
