"""Decision procedure for the type of a simple singularity.

For k = 0, 1, ... the loop keeps the largest k whose transversality
evidence holds (J_0 .. J_{k-1} numerically zero, rows I_1 .. I_k of full
rank) and stops at the first decisive event: J_k clearly nonzero (a
k-singularity; at k = 0, no singular point), I_{k+1} dependent while J_k
vanishes (maximal k-transverse; at k = 0, not 1-transverse), or the cap.

Every decision reads ``linalg.negligible``: ranks against sigma_max at tol_rank,
and zero tests by ``linalg.zero_state``, whose band between tol_zero and
tol_nonzero makes the verdict Indeterminate rather than a guess.  J_0 is judged
against itself, J_k (k >= 1) as the cosine |J_k| / (|P I_k| |phi_0|) against 0
(P projects out I_1 .. I_{k-1}), free of the pair's units and the grid size.
Both evaluation routes (the pair functionals on the original coordinates and
the reduced-scalar derivatives) run by default and must agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import OrderExceedsSmoothness
from .fibering import PairBase, PointFunctionals, make_fibering_pair
from .lsreduce import local_representation
from .model import MapModel

REGULAR = "Regular"
NON_SIMPLE = "NonSimpleKernel"
NOT_ONE_TRANSVERSE = "NotOneTransverse"
K_SINGULARITY = "KSingularity"
MAXIMAL_K_TRANSVERSE = "MaximalKTransverse"
TRANSVERSE_UP_TO_CAP = "TransverseUpToCap"
INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class Tolerances:
    """Thresholds of the one rule: ``rank`` on sigma / sigma_max; ``zero`` and ``nonzero``
    bound a zero test's band, relative thresholds on the cosine of each J_k, k >= 1."""

    rank: float = linalg.DEFAULT_RANK_TOL
    zero: float = 1e-6
    nonzero: float = 1e-3

    def __post_init__(self):
        fields = (self.rank, self.zero, self.nonzero)
        if not all(v > 0 for v in fields):  # NaN fails here too
            raise ValueError("tolerances must be positive")
        if not all(v < 1 for v in fields):
            raise ValueError("tolerances must be below 1, or every value is negligible")
        if self.zero >= self.nonzero:
            raise ValueError("tol_zero must be strictly below tol_nonzero")

    def zero_states(self, values) -> list[str]:
        """``linalg.zero_state`` of each value, judged against the largest
        |value| in ``values``: ``'zero'``, ``'band'`` or ``'nonzero'``."""
        ref = max((abs(v) for v in values), default=0.0)
        return [linalg.zero_state(v, ref, self.zero, self.nonzero) for v in values]


@dataclass
class RouteEvidence:
    route: str
    pair_id: str
    J_values: list[float] = field(default_factory=list)
    singular_values: dict[int, list[float]] = field(default_factory=dict)
    kind: str = INDETERMINATE
    k: int | None = None
    transversality_order: int = 0
    stage: str | None = None


@dataclass
class ClassificationReport:
    jacobian_singular_values: list[float]
    route: str
    routes: list[RouteEvidence]
    route_agreement: bool | None = None


@dataclass
class Classification:
    kind: str
    k: int | None
    kdim: int
    transversality_order: int
    stage: str | None
    evidence: ClassificationReport

    def describe(self) -> str:
        if self.k is not None:
            return f"{self.kind}({self.k})"
        if self.stage:
            return f"{self.kind}[{self.stage}]"
        return self.kind

    def same_kind(self, other: "Classification") -> bool:
        return self.kind == other.kind and self.k == other.k


def _run_route(route: str, pair_id: str, functionals, k_cap: int, tol: Tolerances) -> RouteEvidence:
    """The decision loop over one route's ``J(k)`` / ``row(k)`` / ``phi0`` functionals."""
    ev = RouteEvidence(route=route, pair_id=pair_id)

    def finish(kind, stage=None):  # the order reached is the loop's k
        ev.kind, ev.transversality_order, ev.stage = kind, k, stage
        ev.k = None if kind in (NOT_ONE_TRANSVERSE, INDETERMINATE) else k
        return ev

    rows, k, phi_norm = [], 0, np.linalg.norm(functionals.phi0)
    while True:
        ev.J_values.append(J := functionals.J(k))
        sv = ev.singular_values  # |P I_k| = vol(I_1 .. I_k) / vol(I_1 .. I_{k-1}): sigma products
        scale = np.prod(sv[k]) / np.prod(sv.get(k - 1, 1.0)) * phi_norm if k else 1.0
        state = linalg.zero_state(J / scale, 0.0 if k else J, tol.zero, tol.nonzero)
        if state == "nonzero" and k > 0:
            return finish(K_SINGULARITY)
        if state != "zero":  # undecided, or a nonzero J_0: the point is not singular
            return finish(INDETERMINATE, f"J_{k}")
        if k >= k_cap:
            return finish(TRANSVERSE_UP_TO_CAP)
        rows.append(functionals.row(k + 1))
        dec = linalg.rank_decision(np.array(rows), tol.rank)
        ev.singular_values[k + 1] = list(dec.singular_values)
        if dec.rank == k:  # I_{k+1} depends on the rows before it
            return finish(MAXIMAL_K_TRANSVERSE if k else NOT_ONE_TRANSVERSE)
        if dec.rank != k + 1:
            return finish(INDETERMINATE, f"rank_I{k + 1}")
        k += 1


def classify_point(
    model: MapModel,
    u,
    k_cap: int = 6,
    tol: Tolerances = Tolerances(),
    route: str = "both",
    pair: PairBase | None = None,
) -> Classification:
    """Classify the point u of the given map.

    ``route`` is one of ``fibering``, ``ls`` or ``both``; with ``both`` the
    two routes must agree on the kind, otherwise the verdict is
    Indeterminate with both evidence trails attached.  A custom ``pair``
    replaces the default bordered pair on the fibering route.
    """
    if route not in ("fibering", "ls", "both"):
        raise ValueError(f"unknown route {route!r}")
    if k_cap < 1:
        raise ValueError("k_cap must be at least 1")
    if model.d < 2:  # no F'' to classify by, on any route
        raise OrderExceedsSmoothness(f"smoothness {model.d} < 2 leaves no F''")
    lin = linalg.linearize(model, u, tol.rank)
    kdim = lin.kdim
    report = ClassificationReport(
        jacobian_singular_values=[float(s) for s in lin.singular_values],
        route=route,
        routes=[],
    )
    if kdim == 0:
        return Classification(REGULAR, None, 0, 0, None, report)
    if kdim >= 2:
        return Classification(NON_SIMPLE, kdim, kdim, 0, None, report)

    k_cap = min(k_cap, model.d - 1)
    if route in ("fibering", "both"):
        if pair is None:
            pair = make_fibering_pair(model, lin, tol.rank)
        pf = PointFunctionals(model, pair, lin, tol.rank)
        report.routes.append(_run_route("fibering", pair.pair_id, pf, k_cap, tol))
    if route in ("ls", "both"):
        ls = local_representation(model, lin, tol.rank)
        report.routes.append(_run_route("ls", "canonical-ls", ls, k_cap, tol))

    if len(report.routes) == 2:
        a, b = report.routes
        report.route_agreement = (a.kind == b.kind and a.k == b.k)
        if not report.route_agreement:
            t_order = min(a.transversality_order, b.transversality_order)
            return Classification(INDETERMINATE, None, 1, t_order, "route-disagreement", report)
    ev = report.routes[0]
    return Classification(ev.kind, ev.k, 1, ev.transversality_order, ev.stage, report)
