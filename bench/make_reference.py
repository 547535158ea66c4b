"""Regenerate bench/reference/<workload>.json from the current cqlab.

    python3 bench/make_reference.py

Stores the per-message errors and bounds of every decode op of the first
passes at DEFAULT_SEED.  run.py compares ops with a stored key against these
rows to 1e-12; ops past the stored passes get the raise and bound checks
only.  Regenerate only when the outputs are meant to change.
"""

from __future__ import annotations

import run  # pins BLAS threads before numpy is imported

import json
import shutil
import sys

# About three times the passes one 30-second run makes at the seed commit.
PASSES = {"cq-large": 24, "multi-sender": 8}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads

    for name, passes in PASSES.items():
        wl, workdir, _ = run.make_workload(name, workloads.DEFAULT_SEED)
        wl.reference = {}
        ops = {}
        try:
            for p in range(passes):
                for op in run.run_pass(wl, p):
                    if op["problems"]:
                        raise RuntimeError(f"{name} op {op['key']} failed: {op['problems']}")
                    ops[op["key"]] = op["outputs"]["rows"]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        doc = {"workload": name, "seed": workloads.DEFAULT_SEED, "passes": passes, "ops": ops}
        path = run.BENCH / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
        print(f"wrote {path.relative_to(run.ROOT)}: {len(ops)} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
