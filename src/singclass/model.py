"""Map abstraction consumed by every analysis: evaluation at jet points,
dimension and declared smoothness, plus affine changes of coordinates."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import jets, linalg
from .errors import SingularAffine

SMOOTH = 64  # sentinel smoothness order for C-infinity models


@dataclass(frozen=True)
class MapModel:
    """A smooth map F: R^n -> R^n evaluable at plain and jet-valued points.

    ``jac``, when given, evaluates the Jacobian F'(x) with value shape
    ``(..., n, n)``: a plain array at a plain point and a
    ``jets.MatrixPlusDiag`` at a jet point.  It must equal the probe Jacobian
    of ``eval`` (see ``jets.jacobian``); ``conjugate`` keeps it an operator.
    """

    n: int
    d: int
    eval: Callable
    label: str
    jac: Callable | None = field(default=None, repr=False, compare=False)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(self.eval(np.asarray(u, dtype=float)), dtype=float)


@dataclass(frozen=True)
class AffinePair:
    """Affine diffeomorphisms (gamma, delta) of source and target space."""

    gamma_mat: np.ndarray
    gamma_shift: np.ndarray
    delta_mat: np.ndarray
    delta_shift: np.ndarray

    def __post_init__(self):
        for name, M in (("gamma", self.gamma_mat), ("delta", self.delta_mat)):
            if linalg.rank_decision(M, 1e-10).rank < len(M):
                raise SingularAffine(f"{name} matrix is singular at tolerance 1e-10")

    def apply_gamma(self, u):
        return jets.matvec(self.gamma_mat, u) + self.gamma_shift


def random_affine_pair(n: int, rng: np.random.Generator, spread: float = 2.0) -> AffinePair:
    """Well-conditioned random affine pair (singular values in [1/spread, spread])."""

    def well_conditioned():
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        s = rng.uniform(1.0 / spread, spread, size=n)
        return q1 @ np.diag(s) @ q2

    return AffinePair(
        well_conditioned(),
        rng.uniform(-0.5, 0.5, size=n),
        well_conditioned(),
        rng.uniform(-0.5, 0.5, size=n),
    )


def conjugate(model: MapModel, pair: AffinePair) -> MapModel:
    """The conjugated map delta o F o gamma^{-1} as a new MapModel."""
    g_inv = np.linalg.inv(pair.gamma_mat)
    g_shift = np.asarray(pair.gamma_shift, dtype=float)
    d_mat = np.asarray(pair.delta_mat, dtype=float)
    d_shift = np.asarray(pair.delta_shift, dtype=float)

    def ev(x):
        u = jets.matvec(g_inv, x - g_shift)
        return jets.matvec(d_mat, model.eval(u)) + d_shift

    jac = None
    if model.jac is not None:
        def jac(x):
            # delta . F'(gamma^{-1} x) . gamma^{-1}: an array at a plain point; at a
            # jet point the operator takes delta and gamma^{-1} as its L and R
            return d_mat @ model.jac(jets.matvec(g_inv, x - g_shift)) @ g_inv

    return MapModel(model.n, model.d, ev, label=f"{model.label}~affine", jac=jac)

