"""The benchmark's workloads: their cases, the operation a case runs, and the
checks on its output.

An operation is what one user call costs: build the model afresh
(``gallery_map`` or ``make_periodic_bvp``), then call ``classify_point`` or
``verify_problem`` on it.  Nothing built by one operation is handed to the
next.  The singclass functions are looked up on their modules at call time,
so a tracer that rebinds them sees every call.

The expected verdicts and J values below are derived by hand from the normal
forms, not read from the program (see README.md for the derivations and for
the unit-norm pair they assume).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from singclass import bvp, classify, gallery, verify
from singclass.errors import SingclassError

A_SIN = ((1, 0.0, 1.0),)  # a(t) = sin(2 pi t) in u' + a(t) u^2 + p u^4
VERIFY_TRIALS = 50
J_REL_TOL = 1e-9

K_SING = "KSingularity"
MAX_T = "MaximalKTransverse"
NOT_ONE = "NotOneTransverse"
REGULAR = "Regular"


@dataclass(frozen=True)
class Case:
    """One (model, point, route) or one invariance fixture.

    ``route`` is a classify_point route, or ``"verify"`` for verify_problem.
    ``J`` holds closed-form values ``(k, J_k)`` every route must reproduce.
    """

    label: str
    route: str
    expected: tuple[str, int | None]
    J: tuple[tuple[int, float], ...] = ()
    gallery: tuple[str, tuple, tuple[float, ...]] | None = None  # (name, params, point)
    bvp: tuple[int, float] | None = None  # (N, mean of p)


def normal_form_verdict(name: str, params: dict) -> tuple[str, int | None]:
    """Verdict of a gallery normal form at its listed points."""
    if name == "whitney":  # t^(k+1) + sum_{h<k} x_h t^h
        return K_SING, params["k"]
    if name in ("transverse_k", "l2_truncated"):  # full unfolding, no pure power
        return MAX_T, params.get("k", params.get("N"))
    if name == "fold_t2":
        return K_SING, 1
    if name == "cusp_source_t3":
        return NOT_ONE, None
    if name == "eps_perturbed":
        return (MAX_T, 1) if params["eps"] == 0.0 else (K_SING, 1)
    if name == "family_kn":  # t^n + sum_{h<=k} x_h t^h
        k, n = params["k"], params["n"]
        if n == 1:
            return REGULAR, None
        if k == 0:
            return (K_SING, 1) if n == 2 else (NOT_ONE, None)
        if n == 0 or n >= k + 3:
            return MAX_T, k
        return K_SING, n - 1
    raise ValueError(f"no normal form for {name!r}")


def gallery_j_values(name: str, params: dict, point, verdict) -> tuple[tuple[int, float], ...]:
    """Closed-form J_k at the verdict's order, where the normal form gives one."""
    kind, k = verdict
    if kind != K_SING:
        return ()
    if name in ("whitney", "fold_t2", "family_kn"):  # pure power t^(k+1): J_k = (k+1)!
        return ((k, float(math.factorial(k + 1))),)
    if name == "eps_perturbed":  # t xi - eps t^2 / 2 at (t, eps t)
        t = point[0]
        return ((1, -params["eps"] / math.sqrt(1.0 + t * t)),)
    return ()


def _gallery_case(name: str, params: dict, point: tuple[float, ...], route: str) -> Case:
    verdict = normal_form_verdict(name, params)
    label = f"{name}{sorted(params.items())}@{point}"
    return Case(label, route, verdict, gallery_j_values(name, params, point, verdict),
                gallery=(name, tuple(sorted(params.items())), point))


def _origin(n: int) -> tuple[float, ...]:
    return (0.0,) * n


def gallery_table() -> list[Case]:
    """The 46 points of the acceptance classification table, route both."""
    cells = []
    for k in range(1, 6):
        for dimz in (0, 2):
            cells.append(("whitney", {"k": k, "dimZ": dimz}, [_origin(k + dimz)]))
    for k in range(0, 4):
        for n in range(0, k + 4):
            cells.append(("family_kn", {"k": k, "n": n, "dimZ": 1}, [_origin(k + 2)]))
    cells.append(("fold_t2", {}, [(0.0, 0.0), (0.0, 0.7), (0.0, -1.3)]))
    cells.append(("cusp_source_t3", {}, [(0.0, 0.0), (0.0, 0.4)]))
    for N in (2, 3, 4):
        cells.append(("l2_truncated", {"N": N}, [_origin(N + 1)]))
    ts = (0.0, 0.6, -1.1)
    cells.append(("eps_perturbed", {"eps": 0.0}, [(t, 0.0) for t in ts]))
    cells.append(("eps_perturbed", {"eps": 0.1}, [(t, 0.1 * t) for t in ts]))
    return [_gallery_case(name, params, pt, "both") for name, params, pts in cells for pt in pts]


def bvp_case(N: int, p: float, route: str) -> Case:
    """Quartic problem u' + sin(2 pi t) u^2 + p u^4 at u = 0.

    With the unit-norm pair J_3 = 24 mean(p) N^(-3/2); p = 0 is maximal
    2-transverse.
    """
    if p == 0.0:
        return Case(f"quartic N={N} p=0 {route}", route, (MAX_T, 2), bvp=(N, p))
    return Case(f"quartic N={N} p={p:g} {route}", route, (K_SING, 3),
                ((3, 24.0 * p * N ** -1.5),), bvp=(N, p))


INVARIANCE_FIXTURES = (
    ("fold_t2", {}, (0.0, 0.0)),
    ("cusp_source_t3", {}, (0.0, 0.0)),
    ("whitney", {"k": 2, "dimZ": 0}, (0.0, 0.0)),
    ("whitney", {"k": 3, "dimZ": 2}, (0.0,) * 5),
    ("family_kn", {"k": 2, "n": 0, "dimZ": 1}, (0.0,) * 4),
    ("family_kn", {"k": 2, "n": 3, "dimZ": 1}, (0.0,) * 4),
    ("l2_truncated", {"N": 3}, (0.0,) * 4),
    ("eps_perturbed", {"eps": 0.0}, (0.6, 0.0)),
    ("eps_perturbed", {"eps": 0.1}, (0.6, 0.06)),
)


def _workload_cases(name: str) -> list[Case]:
    if name == "gallery":
        return gallery_table()
    if name == "bvp_both":
        return [bvp_case(N, p, "both") for N in (32, 48, 64) for p in (0.0, 1.0)]
    if name == "bvp_ls":
        return [bvp_case(N, p, "ls") for N in (128, 256, 512) for p in (0.0, 1.0)] + [
            bvp_case(128, 0.05, "ls")  # J_3 inside the tolerance band: fails today
        ]
    if name == "invariance":
        return [_gallery_case(n, p, pt, "verify") for n, p, pt in INVARIANCE_FIXTURES]
    raise KeyError(name)


def workload(name: str, seed: int) -> tuple[list[Case], list[Case]]:
    """(cases in the seed's round-robin order, untimed warm-up cases).

    The warm-up is one full pass for ``gallery`` (about a second) and the
    cheapest case elsewhere.
    """
    cases = _workload_cases(name)
    warmup = cases if name == "gallery" else cases[:1]
    order = list(cases)
    random.Random(seed).shuffle(order)
    return order, list(warmup)


def run_op(case: Case, seed: int):
    """One user call: build the model, then classify or verify the point."""
    if case.bvp is not None:
        N, p = case.bvp
        problem = bvp.PeriodicProblem(N=N, a_terms=A_SIN, p_terms=((0, p, 0.0),))
        model = bvp.make_periodic_bvp(problem)
        point = np.zeros(N)
    else:
        name, params, pt = case.gallery
        model = gallery.gallery_map(name, dict(params)).model
        point = np.array(pt)
    if case.route == "verify":
        return verify.verify_problem(model, point, trials=VERIFY_TRIALS, seed=seed)
    return classify.classify_point(model, point, route=case.route)


def attempt(case: Case, seed: int):
    """Run one operation; a SingclassError is returned, not raised."""
    try:
        return run_op(case, seed)
    except SingclassError as exc:
        return exc


def judge(case: Case, result) -> tuple[bool, list[str]]:
    """(failed, problems) of one operation's result.

    An operation fails when the program gives no decisive answer: it raises
    a SingclassError or returns Indeterminate for a reason other than route
    disagreement.  A decisive answer that contradicts the closed forms, or a
    route disagreement, is a problem: the output is wrong.
    """
    if isinstance(result, SingclassError):
        return True, []
    c = result.base if case.route == "verify" else result
    if c.kind == classify.INDETERMINATE and c.stage != "route-disagreement":
        return True, []
    problems = []
    if (c.kind, c.k) != case.expected:
        problems.append(f"{case.label}: verdict {c.describe()}, expected {case.expected}")
    if c.evidence.route == "both" and c.evidence.routes and c.evidence.route_agreement is not True:
        problems.append(f"{case.label}: routes disagree")
    for k, value in case.J:
        for ev in c.evidence.routes:
            got = ev.J_values[k] if len(ev.J_values) > k else None
            if got is None or abs(got - value) > J_REL_TOL * abs(value):
                problems.append(f"{case.label}: {ev.route} J_{k} = {got}, closed form {value!r}")
    if case.route == "verify" and not result.passed:
        problems.append(f"{case.label}: invariance suite failed (seed {result.seed})")
    return False, problems
