#!/usr/bin/env python3
"""Benchmark of singclass, one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in its own process
(worker.py) against the checkout's src/.  With ``--trace 0`` the last line
of standard output carries the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` the per-layer metrics from a traced pass.  The full record of
each run is written to perfbench/results/.  Exits non-zero, printing no
result, when the checkout has no src/singclass or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4  # set-up-only processes per untraced run, besides the measuring one
DEADLINE_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "singclass" / "__init__.py").is_file():
        print(f"run.py: no singclass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    metric_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = dict(os.environ, PYTHONHASHSEED="0")  # the worker pins the BLAS threads itself
    deadline = time.monotonic() + DEADLINE_S

    def worker(*extra: str) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
        started = time.monotonic()
        proc = subprocess.run(cmd + ["--started", repr(started)], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0 or not proc.stdout.strip():
            raise WorkerFailed(f"worker exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    try:
        setups = [] if args.trace else [worker("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
        rec = worker("--trace", str(args.trace))
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    values = dict(rec.get("layers", {}))
    values.update({k: rec[k] for k in ("wall_s", "case_ms", "peak_rss_mb")})
    values["setup_s"] = statistics.median(setups + [rec["setup_s"]])
    missing = [m["name"] for m in metric_spec if m["name"] not in values]
    if missing:
        print(f"run.py: worker gave no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not rec["problems"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
