"""Constructive local scalar reduction at a simple singularity.

Near a point where F'(u0) has a one-dimensional kernel, the change of
coordinates

    alpha(u) = (c.(u - u0), Q^T (F(u) - F(u0)))

(with c the unit kernel vector of F'(u0) and Q^T rows 1.. of the reflector
H w = -+e_0 of its unit cokernel vector w, so Q is an orthonormal basis of
the range; c, w and Q are read off F'(u0)'s ``linalg.Linearization``) is a
diffeomorphism, and in the new coordinates the map takes the form
(t, z) |-> (f(t, z), z) with f(0,0) = 0 and vanishing first derivatives.
All classification data can then be read off the partial derivatives of the
single scalar f, which this module exposes as a jet oracle: jets of
alpha^{-1} are obtained by degree-by-degree back-substitution against the
one factored linearization alpha'(u0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import lu_factor

from . import jets, linalg
from .errors import IllConditioned, NotSimple, OrderExceedsSmoothness
from .jets import Jet
from .model import MapModel


@dataclass
class LSModel:
    lin: linalg.Linearization     # F'(u0) at u0 = lin.u, with (w, c) = lin.last_pair
    F_u0: np.ndarray
    z_rows: np.ndarray            # [0; Q^T] = [0; lin.range_rows(I)], dense
    alpha_lu: object
    cond_alpha: float
    model: MapModel
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return self.model.n

    # -- alpha and its jet inverse -------------------------------------------

    def alpha(self, x):
        """Coordinates (t, z) of a (jet) point x."""
        t = jets.dot(self.lin.last_pair[1], x - self.lin.u)
        z = jets.matvec(self.z_rows, self.model.eval(x) - self.F_u0)
        return jets.stack([t]) * np.eye(1, self.n)[0] + z

    def alpha_inverse_jet(self, y: Jet) -> Jet:
        """x with alpha(x) = y, for a jet y whose constant term is 0.

        One pass per total degree: the residual of the current iterate has no
        terms below the degree being corrected, so sum(orders) passes give the
        exact truncated inverse using only the factored alpha'(u0).
        """
        x = jets.constant(self.lin.u, y.vars, y.orders)
        for _ in range(sum(y.orders)):
            r = y - self.alpha(x)
            x = x + linalg.lu_solve_jet(self.alpha_lu, r)
        return x

    def f_value(self, x):
        return jets.dot(self.lin.last_pair[0], self.model.eval(x) - self.F_u0)

    # -- the reduced scalar's jets ---------------------------------------------

    def f_jet(self, t_order: int, z_dirs: Sequence[int] = ()) -> Jet:
        """Jet of f(t, z) at (0, 0): order ``t_order`` in t, order 1 along each
        requested z coordinate direction (directions are batched)."""
        if t_order + (1 if z_dirs else 0) > self.model.d:
            raise OrderExceedsSmoothness("requested jet order exceeds declared smoothness")
        return self._inverse(t_order, tuple(z_dirs))[1]

    def _inverse(self, t_order: int, z_dirs: tuple[int, ...] = ()) -> tuple[Jet, Jet]:
        """x = alpha^{-1}(y) and f(x) for y = t e_0 + z e_{1+j}, batched over
        the j in ``z_dirs``; cached, so J and row share the t-only inverse."""
        key = (t_order, z_dirs)
        if key in self._cache:
            return self._cache[key]
        names = (jets.fresh_name("t"),) + ((jets.fresh_name("z"),) if z_dirs else ())
        orders = (t_order, 1)[: len(names)]
        y = jets.unit(names, orders, names[0]) * np.eye(1, self.n)[0]
        if z_dirs:
            y = y + jets.unit(names, orders, names[1]) * np.eye(self.n)[[1 + j for j in z_dirs]]
        x = self.alpha_inverse_jet(y)
        self._cache[key] = (x, self.f_value(x))
        return self._cache[key]

    def f_partial_t(self, order: int) -> float:
        """d^order f / dt^order at (0,0)."""
        j = self.f_jet(max(order, 1))
        tname = j.vars[0]
        return float(j.extract({tname: order})) * math.factorial(order)

    # -- the route functionals, read by the decision loop ---------------------

    def J(self, k: int) -> float:
        """J_k = d^{k+1} f / dt^{k+1} at (0, 0)."""
        return self.f_partial_t(k + 1)

    def row(self, k: int) -> np.ndarray:
        """I_k = (d^{k+1} f / dt^{k+1}, d^{k+1} f / dt^k dz) at (0, 0).

        The z-part is one adjoint solve along x(t) = alpha^{-1}(t e_0): the
        gradient lam(t) of f in y = alpha(x) solves alpha'(x)^T lam = F'(x)^T w,
        with alpha'(x)^T lam = c lam_0 + F'(x)^T z_rows^T lam (z_rows = [0; Q^T], kept
        dense so each pass is one mat-vec), and z_j = y_{1+j}.
        """
        out = np.zeros(self.n)
        out[0] = self.J(k)
        if self.n > 1:
            x = self._inverse(k)[0]
            Fp = jets.jacobian(self.model, x)
            rhs = jets.matvec(jets.transpose_mat(Fp), self.lin.last_pair[0])
            N, Z = jets.transpose_mat(Fp.nilpotent()), self.z_rows.T
            lam = linalg.solve_passes(
                self.alpha_lu, rhs, lambda L: jets.matvec(N, jets.matvec(Z, L)), trans=1)
            out[1:] = lam.extract({x.vars[0]: k})[1:] * math.factorial(k)
        return out


def local_representation(model: MapModel, u0, tol: float = linalg.DEFAULT_RANK_TOL) -> LSModel:
    """Build the local reduction at u0; fails unless u0 is a simple singularity.

    ``u0`` is a plain point or its ``linalg.Linearization``, which the model keeps
    and reads c, w and Q^T (``range_rows``) off: alpha'(u0) = [c^T; Q^T F'(u0)] has
    the singular values sigma_1 .. sigma_{n-1} and 1, so its condition needs no SVD.
    """
    lin = linalg.linearize(model, u0, tol)
    if lin.kdim != 1:
        raise NotSimple(f"kernel dimension is {lin.kdim}, expected 1")
    c = lin.last_pair[1]
    kept = lin.singular_values[: lin.rank]
    cond = float(np.max(kept, initial=1.0) / np.min(kept, initial=1.0))
    if cond > 1e8:
        raise IllConditioned(f"linearized coordinate change has condition {cond:.3e}")
    return LSModel(
        lin=lin,
        F_u0=np.asarray(model(lin.u), dtype=float),
        z_rows=np.vstack([np.zeros(len(c)), lin.range_rows(np.eye(len(c)))]),
        alpha_lu=lu_factor(np.vstack([c, lin.range_rows(lin.A)])),
        cond_alpha=cond,
        model=model,
    )
