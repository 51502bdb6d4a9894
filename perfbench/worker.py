#!/usr/bin/env python3
"""Run one workload of the benchmark in this process and print its record.

run.py starts this once per measurement, and a few more times with
``--setup-only`` to time set-up.  The last line of standard output is one
JSON object.  The timed phase is a closed loop: one caller runs the cases
round-robin, each operation starting when the previous one has returned.
Whole passes repeat: at least ``MIN_PASSES``, then more while the next
pass is predicted to end within ``--seconds``.
"""

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# One BLAS/OpenMP thread, set before numpy is first imported (by ``cases``).
# With the default thread count a 2-core machine spends about twice the CPU
# time for no gain in wall time, and the run-to-run spread grows.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"  # full records, ignored by git
MIN_PASSES = 2  # so that every case median rests on at least two operations


def _import_checkout():
    """Import singclass from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import singclass
    except ImportError as exc:
        sys.exit(f"worker: cannot import singclass from {SRC}: {exc}")
    if not Path(singclass.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"worker: singclass resolved to {singclass.__file__}, outside {SRC}")


def _timed_pass(cases, order, seed):
    """One round-robin pass; returns (wall seconds, [(case, result, seconds)])."""
    results = []
    start = time.perf_counter()
    for case in order:
        t0 = time.perf_counter()
        res = cases.attempt(case, seed)
        results.append((case, res, time.perf_counter() - t0))
    return time.perf_counter() - start, results


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    _import_checkout()
    import cases

    order, warmup = cases.workload(args.workload, args.seed)
    setup_s = time.monotonic() - args.started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    for case in warmup:
        cases.attempt(case, args.seed)
    gc.collect()

    times = {case.label: [] for case in order}
    walls, problems = [], []
    attempted = failed = 0

    def account(results):
        nonlocal attempted, failed
        for case, res, dt in results:
            times[case.label].append(dt)
            bad, found = cases.judge(case, res)
            attempted += 1
            failed += bad
            problems.extend(found)

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    begin = time.perf_counter()
    while True:
        wall, results = _timed_pass(cases, order, args.seed)
        walls.append(wall)
        account(results)  # checks run outside the timed pass
        del results
        gc.collect()  # between passes, never inside an operation
        if len(walls) >= MIN_PASSES and time.perf_counter() - begin + wall > args.seconds:
            break
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    passes = len(walls)
    case_median_ms = {label: 1000.0 * statistics.median(ts) for label, ts in times.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "case_ms": math.exp(statistics.fmean(math.log(v) for v in case_median_ms.values())),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "passes": passes,
        "pass_walls_s": walls,
        "case_median_ms": case_median_ms,
    }

    if args.trace:
        from tracer import Tracer, layer_metrics

        with Tracer() as tr:
            traced_wall, results = _timed_pass(cases, order, args.seed)
        account(results)
        del results
        names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
        layers = layer_metrics(tr, names)
        layers.update({
            "process.minflt": (ru1.ru_minflt - ru0.ru_minflt) / passes,
            "process.sys_s": (ru1.ru_stime - ru0.ru_stime) / passes,
            "process.cpu_s": (ru1.ru_utime - ru0.ru_utime + ru1.ru_stime - ru0.ru_stime) / passes,
            "trace.overhead_s": traced_wall - record["wall_s"],
        })
        record["layers"] = layers
        record["call_tree"] = tr.edges()

    record.update(attempted=attempted, failed=failed, problems=problems)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    for line in problems:
        print(f"worker: wrong output: {line}", file=sys.stderr)
    print(json.dumps({k: v for k, v in record.items() if k not in ("call_tree", "case_median_ms")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
