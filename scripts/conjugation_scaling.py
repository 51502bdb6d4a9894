#!/usr/bin/env python3
"""Cost of an affine change of coordinates on the periodic quartic problem.

Classifies u = 0 of u' + sin(2 pi t) u^2 + u^4 on the fibering route at each
grid size N, once as built and once conjugated by a random affine pair
(singular values in [1/2, 2]), and prints the wall time and peak resident set
size of each run side by side.  Every run is a fresh process, so no run's
imports, caches or allocations count in another's; the runs use one BLAS
thread unless the environment sets another count.

Usage: python scripts/conjugation_scaling.py [--n 64 128 256] [--seed 0]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from singclass.bvp import PeriodicProblem, make_periodic_bvp
from singclass.classify import classify_point
from singclass.model import conjugate, random_affine_pair

THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_case(n: int, conjugated: bool, seed: int) -> dict:
    """One classification, timed; peak RSS is the whole process's."""
    model = make_periodic_bvp(PeriodicProblem(N=n, a_terms=((1, 0.0, 1.0),),
                                              p_terms=((0, 1.0, 0.0),)))
    u = np.zeros(n)
    if conjugated:
        affine = random_affine_pair(n, np.random.default_rng(seed))
        model, u = conjugate(model, affine), affine.gamma_shift
    started = time.perf_counter()
    c = classify_point(model, u, route="fibering")
    wall = time.perf_counter() - started
    return {"verdict": c.describe(), "J": [float(j) for j in c.evidence.routes[0].J_values],
            "wall_s": wall, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def in_fresh_process(n: int, conjugated: bool, seed: int) -> dict:
    env = dict(os.environ)
    for name in THREADS:
        env.setdefault(name, "1")
    args = [sys.executable, __file__, "--case", str(n), str(int(conjugated)), "--seed", str(seed)]
    proc = subprocess.run(args, capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, nargs="+", default=[64, 128, 256])
    parser.add_argument("--seed", type=int, default=0, help="seed of the affine pair")
    parser.add_argument("--case", type=int, nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.case:
        print(json.dumps(run_case(args.case[0], bool(args.case[1]), args.seed)))
        return 0
    print(f"{'N':>5} {'variant':>11} {'verdict':>16} {'J_3':>11} {'wall_s':>8} {'peak_mb':>8}")
    for n in args.n:
        rows = {label: in_fresh_process(n, conjugated, args.seed)
                for label, conjugated in (("plain", False), ("conjugated", True))}
        for label, r in rows.items():
            j3 = f"{r['J'][3]:.4e}" if len(r["J"]) > 3 else "-"
            print(f"{n:>5} {label:>11} {r['verdict']:>16} {j3:>11} "
                  f"{r['wall_s']:>8.3f} {r['peak_rss_mb']:>8.1f}")
        plain, conj = rows["plain"], rows["conjugated"]
        print(f"{n:>5} {'ratio':>11} {'':>16} {'':>11} {conj['wall_s'] / plain['wall_s']:>8.2f} "
              f"{conj['peak_rss_mb'] / plain['peak_rss_mb']:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
