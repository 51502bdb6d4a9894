"""Pointwise access to the nested singular strata near a 1-transverse point:
Newton projection onto the singular hypersurface, stratum membership tests,
tangent spaces, and codimension verification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .classify import Tolerances
from .errors import DegenerateGradient, NoConvergence, NotIndependent, SingularBorder
from .fibering import PairBase, PointFunctionals
from .model import MapModel

NEWTON_MAX_ITER = 25
NEWTON_TARGET = 1e-10  # |J0| at which a Newton iterate counts as singular
_NEWTON_MIN_CUT = 1 / 8  # a last step leaving more of |J0| converged linearly: a double zero
SAMPLE_RADIUS = 0.1
SAMPLE_H_MAX = 3


@dataclass
class StratumSample:
    points: list[np.ndarray]
    h_membership: list[int]
    residuals: list[float]
    seed: int


def project_to_singular(model: MapModel, u_guess, pair: PairBase,
                        tol: Tolerances = Tolerances()) -> np.ndarray:
    """Newton iteration for J0 = 0 along the I1 direction.

    Well-posed near a 1-transverse point, where the singular set is the
    regular zero set of J0.  A returned point has a nonzero I1 and was not
    reached at the linear rate of Newton on a double zero of J0.
    """
    u = np.asarray(u_guess, dtype=float).copy()
    j0_prev = np.inf
    for step in range(NEWTON_MAX_ITER + 1):  # the start and each Newton step's iterate
        pf = PointFunctionals(model, pair, u, tol.rank)
        i1 = pf.row(1)
        i1_norm = float(np.linalg.norm(i1))
        if linalg.negligible(i1_norm, i1_norm, tol.rank):
            if step == 0:
                sv = linalg.rank_decision(pf.Fp0).singular_values
                raise DegenerateGradient(
                    f"I1 vanishes at the start point, where sigma_min/sigma_max of F' is "
                    f"{sv[-1] / sv[0]:.3g}; start where F' has one small singular value")
            raise DegenerateGradient("I1 vanishes at the current iterate")
        j0 = pf.J(0)
        if linalg.negligible(j0, 0.0, NEWTON_TARGET):
            if not linalg.negligible(j0 / j0_prev, 0.0, _NEWTON_MIN_CUT):
                raise DegenerateGradient(f"Newton converged linearly to a double zero of J0: last "
                                         f"step |J0| {abs(j0_prev):.3g} -> {abs(j0):.3g}")
            return u
        j0_prev = j0
        u = u - (j0 / float(np.dot(i1, i1))) * i1
    raise NoConvergence(f"|J0| = {abs(j0):.3e} after {NEWTON_MAX_ITER} Newton steps")


def stratum_membership(model: MapModel, u, h: int, pair: PairBase,
                       tol: Tolerances = Tolerances()):
    """Member of the h-th stratum iff J_0 .. J_{h-1} all vanish at u.

    Returns ``(member, values)``; ``member`` is None (indeterminate) when no
    value is clearly nonzero but some value lies in the tolerance band.
    """
    if h < 0:
        raise ValueError(f"stratum order h must be at least 0, got {h}")
    pf = PointFunctionals(model, pair, u, tol.rank)
    vals = [pf.J(j) for j in range(h)]
    states = set(tol.zero_states(vals))
    member = False if "nonzero" in states else None if "band" in states else True
    return member, vals


def tangent_space(model: MapModel, u, h: int, pair: PairBase,
                  tol: Tolerances = Tolerances()) -> list[np.ndarray]:
    """Orthonormal basis of the intersection of the null spaces of I_1 .. I_h."""
    if h < 0:
        raise ValueError(f"stratum order h must be at least 0, got {h}")
    if h == 0:
        return list(np.eye(model.n))
    pf = PointFunctionals(model, pair, u, tol.rank)
    rows = np.array([pf.row(j) for j in range(1, h + 1)])
    rank, basis = linalg.null_space(rows, tol.rank)
    if rank != h:
        raise NotIndependent(f"rows I_1..I_{h} have rank {rank} < {h}")
    return list(basis.T)


@dataclass
class StratificationRecord:
    ranks: dict[int, int]
    rank_ok: dict[int, bool]
    phi_in_tangent: bool
    J_k_zero: bool
    dichotomy_consistent: bool
    sampled_rank1_ok: bool


def verify_stratification(model: MapModel, u0, k: int, pair: PairBase,
                          n_probes: int = 10, seed: int = 0,
                          tol: Tolerances = Tolerances()) -> StratificationRecord:
    """Codimension checks for h = 1..k plus the kernel-line dichotomy:
    phi(u0) lies in the order-k tangent space iff J_k vanishes.  ``u0`` is a
    plain point or its ``linalg.Linearization``."""
    if k < 1:
        raise ValueError(f"stratum order k must be at least 1, got {k}")
    pf = PointFunctionals(model, pair, u0, tol.rank)
    u0 = pf.u
    ranks, rank_ok = {}, {}
    rows = []
    for h in range(1, k + 1):
        rows.append(pf.row(h))
        stack = np.array(rows)
        dec = linalg.rank_decision(stack, tol.rank)
        ranks[h] = dec.rank
        rank_ok[h] = dec.rank == h
    phi = pf.phi0
    resid = np.linalg.norm(stack @ phi)
    phi_in = linalg.negligible(resid, float(np.linalg.norm(stack)) * float(np.linalg.norm(phi)),
                               tol.zero)
    jk_zero = tol.zero_states([pf.J(j) for j in range(k + 1)])[-1] == "zero"
    # sampled nearby singular points must keep rank(I1) = 1
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(n_probes):
        guess = u0 + 0.05 * rng.standard_normal(model.n)
        try:
            project_to_singular(model, guess, pair, tol=tol)
        except (DegenerateGradient, NoConvergence):
            ok = False
    return StratificationRecord(
        ranks=ranks,
        rank_ok=rank_ok,
        phi_in_tangent=bool(phi_in),
        J_k_zero=bool(jk_zero),
        dichotomy_consistent=bool(phi_in == jk_zero),
        sampled_rank1_ok=bool(ok),
    )


def sample_stratum(model: MapModel, u0, pair: PairBase, count: int = 20, seed: int = 0,
                   tol: Tolerances = Tolerances()) -> StratumSample:
    """Project random nearby guesses onto the singular set and record the
    largest stratum order each projected point still belongs to.

    The sampling radius is halved (up to 4 times) when the bordered solve
    leaves its validity neighbourhood.
    """
    if count < 0:
        raise ValueError(f"sample count must be at least 0, got {count}")
    rng = np.random.default_rng(seed)
    pts, hs, res = [], [], []
    for _ in range(count):
        r = SAMPLE_RADIUS
        for _attempt in range(5):
            guess = np.asarray(u0, dtype=float) + r * rng.standard_normal(model.n)
            try:
                pt = project_to_singular(model, guess, pair, tol=tol)
                break
            except (SingularBorder, NoConvergence, DegenerateGradient):
                r *= 0.5
        else:
            continue
        pf = PointFunctionals(model, pair, pt, tol.rank)
        states = tol.zero_states([pf.J(j) for j in range(SAMPLE_H_MAX)])
        h = next((j for j, state in enumerate(states) if state != "zero"), SAMPLE_H_MAX)
        pts.append(pt)
        hs.append(h)
        res.append(abs(pf.J(0)))
    return StratumSample(points=pts, h_membership=hs, residuals=res, seed=seed)
