"""Smooth kernel/cokernel fields near a simple singularity and the scalar
functionals built from them.

A pair (phi, psi) assigns to every point u near a base singularity a vector
phi(u) and a covector psi(u) that span the kernel and the range-complement
of F'(u) wherever the derivative drops rank.  The bordered construction
freezes one kernel and one cokernel representative at the base point and
solves

    [[F'(u), b], [c^T, 0]] (phi, s) = (0, 1)

which is regular on a neighbourhood, so phi and psi inherit the smoothness
of F' and are exactly jet-differentiable through the solve.

From the pair, the scalar J0(u) = psi(u) F'(u) phi(u) and its iterated
derivatives along phi (rows I_k = grad J_{k-1}, values J_k = I_k phi) are
the data every classification decision consumes.  For the bordered pair
J0 = -s, the test function of the phi solve (Griewank & Reddien 1984).
Bordered by the last singular pair of F'(u0), the system is regular near any
u0 with one small singular value.

J_{k-1} is (k-1)! times the s^(k-1) coefficient of J0(x(s)), x(s) the flow of
phi from u, so I_k comes from one flow jet in s alone, with no probe axis, and
one adjoint sweep (Griewank & Walther, *Evaluating Derivatives*, ch. 13); psi
and phi along the flow come from the Taylor series of the bordered inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from . import jets, linalg
from .errors import NotSimple, OrderExceedsSmoothness, VanishingScale
from .model import MapModel

_SCALE_RADIUS = 0.5  # working neighbourhood on which a ScaleSpec must not vanish


class PairBase:
    """A fibering pair, bound near a point by ``at`` and then read through two
    field methods at a plain or jet point x with F'(x) = Fp: ``phi_j0`` gives
    phi and J0 = psi F' phi, ``psi`` psi.  ``flow_terms`` feeds the row sweep."""

    pair_id = "pair"

    def at(self, u, Fp0, tol: float) -> "PairBase":
        """The pair ready to evaluate near u, where F'(u) = Fp0."""
        return self

    def phi_j0(self, x, Fp):
        raise NotImplementedError

    def psi(self, x, Fp):
        raise NotImplementedError

    def flow_terms(self, model, x, Fp, extend, speed=1.0):
        """(phi, J0, q, adjoint) of order K along the flow x(s) = x exact through s^K,
        F'(x) = Fp (None at K = 0), once ``extend(phi)`` moved it on: q = speed grad J0,
        adjoint(w) = speed Dphi^T w, the flow's velocity being speed phi.  This
        default probes ``phi_j0`` once, at x + eps v over the n axes v."""
        e = jets.fresh_name("probe")
        xp = jets.constant(x, (e,), (1,))
        xp = xp + jets.unit(xp.vars, xp.orders, e) * np.eye(model.n)  # [v, i]: a probe axis v
        phi, j0 = self.phi_j0(xp, jets.jacobian(model, xp))
        phi = xp * 0.0 + phi  # a jet with the probe axis also for a constant field
        dphi, phi = phi.extract({e: 1}), jets.transpose_mat(phi.extract({e: 0}))[0]
        extend(phi)
        return (phi, j0.extract({e: 0})[0], j0.extract({e: 1}) * speed,
                lambda w: jets.matvec(dphi, w) * speed)


@dataclass(frozen=True)
class FiberingPair(PairBase):
    """Bordered-system pair with border data frozen at the base point; ``at``
    factors the bordered matrix of F'(u) that every solve near u reuses."""

    border_b: np.ndarray
    border_c: np.ndarray
    border_lu: tuple | None = field(default=None, repr=False, compare=False)
    inverse: list = field(default_factory=list, repr=False, compare=False)  # W(s) along the flow

    pair_id = "bordered(phi_scale=1,psi_scale=1)"  # the report text of the unscaled pair

    def at(self, u, Fp0, tol: float) -> "FiberingPair":
        lu = linalg.border_factor(Fp0, self.border_b, self.border_c, tol)
        return replace(self, border_lu=lu, inverse=[])

    def psi(self, x, Fp):
        return linalg.bordered_solve(Fp, self.border_lu, trans=1)[0]

    def phi_j0(self, x, Fp):
        """phi and -s from one solve (J0 is 0.0, not -0.0, when s is zero)."""
        phi, s = linalg.bordered_solve(Fp, self.border_lu)
        return phi, 0.0 - s

    def flow_terms(self, model, x, Fp, extend, speed=1.0):
        """One solve extends W(s), the bordered matrix's inverse along the flow, by
        W_K: column n is phi, entry (n, n) -J0, row n psi, rows r < n mu_r.  With
        T = d/ds F'(x(s)) = speed F''(x)[phi, .], q = T^T psi, adjoint(w) = -T^T mu^T w."""
        linalg.extend_inverse(self.border_lu, Fp, self.inverse)
        n, W = len(self.border_b), jets.series(self.inverse, x.vars[0])
        phi, Wt = W[n][:n], jets.transpose_mat(W)
        Tt = jets.transpose_mat(jets.derivative(extend(phi)))
        return (phi, -W[n][n], jets.matvec(Tt, Wt[n][:n]),
                lambda w: -jets.matvec(Tt, jets.matvec(Wt, w.append_zero())[:n]))


@dataclass(frozen=True)
class ScaleSpec:
    """Scalar field c * (1 + (u - center)^T Q (u - center)), bounded away from 0.
    Checked on construction: non-finite or misshapen input raises ValueError,
    a field that may vanish on the working neighbourhood VanishingScale."""

    value: float
    quad: np.ndarray | None = None
    center: np.ndarray | None = None

    def __call__(self, x):
        if self.quad is None:
            return float(self.value)
        dx = x - self.center
        return (jets.dot(dx, jets.matvec(self.quad, dx)) + 1.0) * self.value

    def __post_init__(self):
        quad = np.zeros((0, 0)) if self.quad is None else np.asarray(self.quad, dtype=float)
        center = np.zeros(0) if self.center is None else np.asarray(self.center, dtype=float)
        if center.ndim != 1 or quad.shape != center.shape * 2:
            raise ValueError(f"quad {quad.shape} does not match center {center.shape}")
        if not (np.isfinite(self.value) and np.isfinite(quad).all() and np.isfinite(center).all()):
            raise ValueError("scale value, quad and center must be finite")
        if abs(self.value) < 1e-6:
            raise VanishingScale("constant factor too close to zero")
        if quad.size and float(np.linalg.norm(quad, 2)) * _SCALE_RADIUS * _SCALE_RADIUS >= 0.9:
            raise VanishingScale("quadratic term may vanish on the working neighbourhood")

    def grad(self, x):
        """The gradient at a (jet) point x: c (Q + Q^T)(x - center), 0 if constant."""
        if self.quad is None:
            return 0.0
        return jets.matvec(self.quad + self.quad.T, x - self.center) * self.value

    def describe(self) -> str:
        if self.quad is None:
            return f"const({self.value:g})"
        return f"quad({self.value:g})"


@dataclass(frozen=True)
class RescaledPair(PairBase):
    inner: PairBase
    alpha: ScaleSpec
    beta: ScaleSpec

    @property
    def pair_id(self) -> str:
        return f"rescaled({self.alpha.describe()},{self.beta.describe()})<-{self.inner.pair_id}"

    def at(self, u, Fp0, tol: float) -> "RescaledPair":
        return replace(self, inner=self.inner.at(u, Fp0, tol))

    def psi(self, x, Fp):
        return self.inner.psi(x, Fp) * jets.stack([self.beta(x)])

    def phi_j0(self, x, Fp):
        phi, j0 = self.inner.phi_j0(x, Fp)
        alpha = self.alpha(x)  # a scalar per batched point: stack adds the component axis
        return phi * jets.stack([alpha]), j0 * alpha * self.beta(x)

    def flow_terms(self, model, x, Fp, extend, speed=1.0):
        """The inner terms by the product rule: grad(alpha beta J0) = alpha beta grad J0
        + J0 grad(alpha beta), D(alpha phi)^T w = alpha Dphi^T w + grad alpha (phi . w)."""
        a, b = self.alpha(x), self.beta(x)
        phi, j0, q, adjoint = self.inner.flow_terms(model, x, Fp, lambda p: extend(p * a), speed * a)
        ga, gb = self.alpha.grad(x) * speed, self.beta.grad(x) * speed
        return (phi * a, j0 * a * b, q * b + (ga * b + gb * a) * j0,
                lambda w: adjoint(w) + ga * jets.dot(phi, w))


@dataclass(frozen=True)
class ExplicitPair(PairBase):
    """Pair given by closed-form jet-evaluable fields (used for replication
    tests); ``base_point`` only records where the fields were written."""

    base_point: np.ndarray
    phi_fn: Callable
    psi_fn: Callable
    label: str = "explicit"

    @property
    def pair_id(self) -> str:
        return self.label

    def phi_j0(self, x, Fp):
        """phi and the contraction psi F' phi."""
        phi = self.phi_fn(x)
        return phi, jets.dot(self.psi_fn(x), jets.matvec(Fp, phi))

    def psi(self, x, Fp):
        return self.psi_fn(x)


class PointFunctionals:
    """Fibering functionals of one (model, pair) anchored at one point.

    Row I_k = grad J_{k-1} is (k-1)! times the gradient of the s^(k-1)
    coefficient of J0(x(s)), x(s) the flow of phi from u; J_k = I_k . phi(u).
    The flow is one jet in s, kept from row to row: row k moves it one degree
    on (one Jacobian; one solve for the bordered pair) and runs one adjoint
    sweep.  ``u`` is a plain point or its ``linalg.Linearization``, whose F'(u)
    is then reused; ``pair`` is kept bound at u (``PairBase.at``).
    """

    def __init__(self, model: MapModel, pair: PairBase, u, tol: float = linalg.DEFAULT_RANK_TOL):
        self.model = model
        if isinstance(u, linalg.Linearization):
            self.u, self.Fp0 = u.u, u.A
        else:
            self.u = np.asarray(u, dtype=float)
            self.Fp0 = jets.jacobian(model, self.u)
        self.pair = pair.at(self.u, self.Fp0, tol)
        phi0, j0 = self.pair.phi_j0(self.u, self.Fp0)
        self.phi0 = np.asarray(phi0, dtype=float)
        self._j0, self._rows = float(j0), {}
        self._x, self._Fp = jets.constant(self.u, (jets.fresh_name("flow"),), (0,)), None  # flow, F'

    @cached_property
    def psi0(self) -> np.ndarray:
        """psi(u), solved on first read: no decision reads it."""
        return np.asarray(self.pair.psi(self.u, self.Fp0), dtype=float)

    # -- rows and values -------------------------------------------------------

    def J(self, k: int) -> float:
        return self._j0 if k == 0 else float(np.dot(self.row(k), self.phi0))

    def row(self, k: int) -> np.ndarray:
        """I_k(u) as a length-n row vector (gradient of J_{k-1}); rows
        I_1 .. I_k are computed in order."""
        if k > self.model.d - 1:
            raise OrderExceedsSmoothness(f"row {k} undefined for smoothness {self.model.d}")
        while len(self._rows) < k:
            self._next_row()
        return self._rows[k]

    def _next_row(self) -> None:
        """Row k = K + 1 = K! xibar_0 once the flow moves on to s^(K+1): the tangent
        xi(s) = DPhi_s v runs (j+1) xi_{j+1} = sum_i A_i xi_{j-i}, so from j = K down
        xibar_j = q_{K-j} + sum_i A_i^T xibar_{j+1+i} / (j+1+i), the sum being the
        s^(K-1-j) coefficient of A(s)^T H(s), H_d = xibar_{K-d} / (K-d)."""
        K, s = len(self._rows), self._x.vars[0]
        def extend(phi):  # x' = phi through s^K
            self._x = jets.integrate(phi, s, K + 1) + self.u
            self._Fp = jets.jacobian(self.model, self._x)
            return self._Fp
        _, _, q, adjoint = self.pair.flow_terms(self.model, self._x, self._Fp, extend)
        bar = [q.extract({s: K - j}) for j in range(K + 1)]  # xibar_j before the sum
        for j in range(K - 1, -1, -1):
            H = [bar[p] / p for p in range(K, j, -1)] + [0 * bar[0]] * (j + 1)
            bar[j] = bar[j] + adjoint(jets.series(H, s)).extract({s: K - 1 - j})
        self._rows[K + 1] = bar[0] * math.factorial(K)


def bordered_pair(model: MapModel, u0, tol: float = linalg.DEFAULT_RANK_TOL) -> FiberingPair:
    """Pair bordered by the last left (b) and right (c) singular vectors of
    F'(u0), which need not be singular; ``u0`` may be its Linearization."""
    lin = linalg.linearize(model, u0, tol)
    return FiberingPair(*lin.last_pair)


def make_fibering_pair(model: MapModel, u0, tol: float = linalg.DEFAULT_RANK_TOL) -> FiberingPair:
    """``bordered_pair`` at a simple singularity, where b spans the cokernel
    and c the kernel.  ``u0`` is a plain point or its ``linalg.Linearization``."""
    lin = linalg.linearize(model, u0, tol)
    if lin.kdim != 1:
        raise NotSimple(f"kernel dimension is {lin.kdim}, expected 1")
    return bordered_pair(model, lin)


def rescale_pair(pair: PairBase, alpha_spec: ScaleSpec, beta_spec: ScaleSpec) -> RescaledPair:
    return RescaledPair(pair, alpha_spec, beta_spec)
