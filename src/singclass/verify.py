"""Executable invariance properties for one problem: the classification must
survive random pair rescalings and random affine changes of coordinates, the
two evaluation routes must agree, and the stratification geometry at the
point must be consistent."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, strata
from .classify import Classification, Tolerances, classify_point
from .fibering import PointFunctionals, ScaleSpec, make_fibering_pair, rescale_pair
from .model import MapModel, conjugate, random_affine_pair


@dataclass
class VerifyRecord:
    base: Classification
    rescale_trials: int
    rescale_failures: int
    conjugate_trials: int
    conjugate_failures: int
    route_agreement: bool
    scaling_law_error: float | None
    stratification: strata.StratificationRecord | None
    seed: int

    @property
    def passed(self) -> bool:
        ok = self.rescale_failures == 0 and self.conjugate_failures == 0
        ok = ok and self.route_agreement
        if self.scaling_law_error is not None:
            ok = ok and self.scaling_law_error <= 1e-8
        if self.stratification is not None:
            ok = ok and all(self.stratification.rank_ok.values())
            ok = ok and self.stratification.dichotomy_consistent
        return ok


def _random_scale_spec(rng: np.random.Generator, center: np.ndarray) -> ScaleSpec:
    value = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
    if rng.uniform() < 0.5:
        return ScaleSpec(value)
    n = center.shape[0]
    Q = 0.1 * rng.standard_normal((n, n))
    return ScaleSpec(value, quad=(Q + Q.T) / 2, center=center)


def scaling_law_error(model: MapModel, u, alpha: float = 2.0, beta: float = 3.0,
                      tol: Tolerances = Tolerances()) -> float:
    """Relative error of J1 against the alpha^2 * beta rescaling law at a
    singular point (exact for constant rescalings).  ``u`` is a plain point
    or its ``linalg.Linearization``."""
    lin = linalg.linearize(model, u, tol.rank)
    base = make_fibering_pair(model, lin, tol.rank)
    scaled = rescale_pair(base, ScaleSpec(alpha), ScaleSpec(beta))
    j1 = PointFunctionals(model, base, lin, tol.rank).J(1)
    j1s = PointFunctionals(model, scaled, lin, tol.rank).J(1)
    expect = alpha**2 * beta * j1
    return abs(j1s - expect) / max(1.0, abs(expect))


def verify_problem(model: MapModel, u, trials: int = 50, seed: int = 0,
                   k_cap: int = 6, tol: Tolerances = Tolerances()) -> VerifyRecord:
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    lin = linalg.linearize(model, u, tol.rank)  # the one F'(u) every base-point step reads
    u = lin.u
    rng = np.random.default_rng(seed)
    base = classify_point(model, lin, k_cap=k_cap, tol=tol, route="both")
    agreement = base.evidence.route_agreement is not False

    rescale_failures = 0
    rescale_trials = 0
    law_err = None
    pair0 = make_fibering_pair(model, lin, tol.rank) if base.kdim == 1 else None
    if pair0 is not None:
        for _ in range(trials):
            spec_a = _random_scale_spec(rng, u)
            spec_b = _random_scale_spec(rng, u)
            scaled = rescale_pair(pair0, spec_a, spec_b)
            c = classify_point(model, lin, k_cap=k_cap, tol=tol, route="fibering", pair=scaled)
            rescale_trials += 1
            if not c.same_kind(base):
                rescale_failures += 1
        law_err = scaling_law_error(model, lin, tol=tol)

    conjugate_failures = 0
    for _ in range(trials):
        affine = random_affine_pair(model.n, rng)
        tmodel = conjugate(model, affine)
        c = classify_point(model=tmodel, u=affine.apply_gamma(u), k_cap=k_cap, tol=tol,
                           route="fibering")
        if not c.same_kind(base):
            conjugate_failures += 1

    strat = None
    if pair0 is not None and base.transversality_order >= 1:
        strat = strata.verify_stratification(
            model, lin, base.transversality_order, pair0, seed=seed, tol=tol
        )

    return VerifyRecord(
        base=base,
        rescale_trials=rescale_trials,
        rescale_failures=rescale_failures,
        conjugate_trials=trials,
        conjugate_failures=conjugate_failures,
        route_agreement=agreement,
        scaling_law_error=law_err,
        stratification=strat,
        seed=seed,
    )
