#!/usr/bin/env python3
"""Cost of an affine change of coordinates on the periodic quartic problem.

Classifies u = 0 of u' + sin(2 pi t) u^2 + u^4 on the fibering route at each
grid size N, once as built and once conjugated by a random affine pair
(singular values in [1/2, 2]), and the problem as built once more on the ls
route.  It prints the wall time and peak resident set size of each run side
by side, with the conjugated/plain and the fibering/ls ratios.  Every run is a
fresh process, so no run's imports, caches or allocations count in another's;
the runs use one BLAS thread unless the environment sets another count.

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


def run_case(n: int, conjugated: bool, route: str, seed: int) -> dict:
    """One classification, timed; peak RSS is the whole process's."""
    model = make_periodic_bvp(PeriodicProblem(N=n, a_terms=((1, 0.0, 1.0),),
                                              p_terms=((0, 1.0, 0.0),)))
    u = np.zeros(n)
    if conjugated:
        affine = random_affine_pair(n, np.random.default_rng(seed))
        model, u = conjugate(model, affine), affine.gamma_shift
    started = time.perf_counter()
    c = classify_point(model, u, route=route)
    wall = time.perf_counter() - started
    return {"verdict": c.describe(), "J": [float(j) for j in c.evidence.routes[0].J_values],
            "wall_s": wall, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def in_fresh_process(n: int, conjugated: bool, route: str, seed: int) -> dict:
    env = dict(os.environ)
    for name in THREADS:
        env.setdefault(name, "1")
    args = [sys.executable, __file__, "--case", str(n), str(int(conjugated)), route, "--seed", str(seed)]
    proc = subprocess.run(args, capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, nargs="+", default=[64, 128, 256])
    parser.add_argument("--seed", type=int, default=0, help="seed of the affine pair")
    parser.add_argument("--case", nargs=3, help=argparse.SUPPRESS)  # N, conjugated, route
    args = parser.parse_args()
    if args.case:
        n, conjugated, route = args.case
        print(json.dumps(run_case(int(n), bool(int(conjugated)), route, args.seed)))
        return 0
    print(f"{'N':>5} {'variant':>11} {'verdict':>16} {'J_3':>11} {'wall_s':>8} {'peak_mb':>8}")

    def show(n, label, r):
        j3 = f"{r['J'][3]:.4e}" if len(r["J"]) > 3 else "-"
        print(f"{n:>5} {label:>11} {r['verdict']:>16} {j3:>11} "
              f"{r['wall_s']:>8.3f} {r['peak_rss_mb']:>8.1f}")

    def ratio(n, label, num, den):
        print(f"{n:>5} {label:>11} {'':>16} {'':>11} {num['wall_s'] / den['wall_s']:>8.2f} "
              f"{num['peak_rss_mb'] / den['peak_rss_mb']:>8.2f}")

    for n in args.n:
        plain = in_fresh_process(n, False, "fibering", args.seed)
        conj = in_fresh_process(n, True, "fibering", args.seed)
        ls = in_fresh_process(n, False, "ls", args.seed)
        show(n, "plain", plain)
        show(n, "conjugated", conj)
        ratio(n, "ratio", conj, plain)
        show(n, "ls", ls)
        ratio(n, "fibering/ls", plain, ls)
    return 0


if __name__ == "__main__":
    sys.exit(main())
