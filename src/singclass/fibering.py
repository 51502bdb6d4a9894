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
J0 = -s, the test function of the phi solve (Griewank & Reddien 1984), so psi
is solved only at the base point.  Bordered by the last singular pair of
F'(u0), the system is regular near any u0 with one small singular value.

J_{k-1} is (k-1)! times the s^(k-1) coefficient of J0(Phi_s(u)), Phi_s the
flow of phi, so every row comes from one Taylor expansion of the flow:
Picard passes x <- u + int_0^s phi(x), each exact through one more degree in
s (Griewank & Walther, *Evaluating Derivatives*, SIAM 2008, ch. 13).
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

# floats of one probe chunk's F'(x) jet (its d if jac is set) at row min(d - 1, n + 1)
_ROW_BATCH_BUDGET = 1 << 20
_SCALE_RADIUS = 0.5  # working neighbourhood on which a ScaleSpec must not vanish


class PairBase:
    """A fibering pair, bound near a point by ``at`` and then read through two
    field methods at a plain or jet point x with F'(x) = Fp: ``phi_j0`` gives
    phi and J0 = psi F' phi, ``psi`` psi."""

    pair_id = "pair"

    def at(self, u, Fp0, tol: float) -> "PairBase":
        """The pair ready to evaluate near u, where F'(u) = Fp0."""
        return self

    def phi_j0(self, x, Fp):
        raise NotImplementedError

    def psi(self, x, Fp):
        raise NotImplementedError


@dataclass(frozen=True)
class FiberingPair(PairBase):
    """Bordered-system pair with border data frozen at the base point; ``at``
    factors the bordered matrix of F'(u) that every solve near u reuses."""

    border_b: np.ndarray
    border_c: np.ndarray
    border_lu: tuple | None = field(default=None, repr=False, compare=False)

    pair_id = "bordered(phi_scale=1,psi_scale=1)"  # the report text of the unscaled pair

    def at(self, u, Fp0, tol: float) -> "FiberingPair":
        return replace(self, border_lu=linalg.border_factor(Fp0, self.border_b, self.border_c, tol))

    def psi(self, x, Fp):
        return linalg.bordered_solve(Fp, self.border_lu, trans=1)[0]

    def phi_j0(self, x, Fp):
        """phi and -s from one solve (J0 is 0.0, not -0.0, when s is zero)."""
        phi, s = linalg.bordered_solve(Fp, self.border_lu)
        return phi, 0.0 - s


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

    Row I_k = grad J_{k-1} is (k-1)! times the eps s^(k-1) coefficient of
    J0(Phi_s(u + eps v)), batched over probe directions v along a leading
    value axis; J_k = I_k . phi(u).  The flow is kept per probe chunk, so row
    k+1 costs one Jacobian and one bordered solve more than row k.  ``u`` is a
    plain point or its ``linalg.Linearization``, whose F'(u) is then reused;
    ``pair`` is kept bound at u (``PairBase.at``).
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
        self._J: dict[int, float] = {0: float(j0)}
        self._rows: dict[int, np.ndarray] = {}
        self._eps, self._s = jets.fresh_name("grad"), jets.fresh_name("flow")
        self._flow: list[list] = []  # per probe chunk: [u + eps v, phi at the last flow jet]

    @cached_property
    def psi0(self) -> np.ndarray:
        """psi(u), solved on first read: no decision reads it."""
        return np.asarray(self.pair.psi(self.u, self.Fp0), dtype=float)

    # -- rows and values -------------------------------------------------------

    def J(self, k: int) -> float:
        if k not in self._J:
            self._J[k] = float(np.dot(self.row(k), self.phi0))
        return self._J[k]

    def row(self, k: int) -> np.ndarray:
        """I_k(u) as a length-n row vector (gradient of J_{k-1}); rows
        I_1 .. I_k are computed in order."""
        if k > self.model.d - 1:
            raise OrderExceedsSmoothness(f"row {k} undefined for smoothness {self.model.d}")
        while len(self._rows) < k:
            self._next_row()
        return self._rows[k]

    def _next_row(self) -> None:
        """Row k = len(rows) + 1 from the flow jet x_k = u + eps v + int_0^s
        phi(x_{k-1}), exact through s^(k-1); keeps phi(x_k) for row k+1."""
        n, k = self.model.n, len(self._rows) + 1
        if k == 1:  # eps alone: a point that stops at I_1 pays for no s axis
            deepest = min(self.model.d - 1, n + 1)  # row k + 1 follows k <= n independent rows
            eps = jets.unit((self._eps,), (1,), self._eps)
            # F'(x) floats per probe and coefficient: n for a jac's operator, n^2 otherwise
            per_probe = n if self.model.jac is not None else n * n
            chunk = max(1, _ROW_BATCH_BUDGET // (per_probe * 2 * deepest))
            self._flow = [[eps * np.eye(n)[start : start + chunk] + self.u, None]
                          for start in range(0, n, chunk)]
        grads = []
        for rec in self._flow:
            x, phi = rec
            if phi is not None:
                x = jets.constant(x, (self._s,), (k - 1,)) + jets.integrate(phi, self._s, k - 1)
            rec[1], j0 = self.pair.phi_j0(x, jets.jacobian(self.model, x))
            grads.append(j0.extract({self._eps: 1, self._s: k - 1}) * math.factorial(k - 1))
        self._rows[k] = np.concatenate(grads)


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
