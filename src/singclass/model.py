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

    ``jac``, when given, evaluates the Jacobian F'(x) at plain and jet points
    with value shape ``(..., n, n)``; it must equal the probe Jacobian of
    ``eval`` (see ``jets.jacobian``).
    """

    n: int
    d: int
    eval: Callable
    label: str
    meta: dict = field(default_factory=dict, repr=False, compare=False)
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
            sv = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)
            if sv[-1] <= 1e-10 * max(1.0, sv[0]):
                raise SingularAffine(f"{name} matrix is singular at tolerance 1e-10")

    def apply_gamma(self, u):
        return jets.matvec(self.gamma_mat, u) + self.gamma_shift

    def apply_gamma_inv(self, x):
        return jets.matvec(np.linalg.inv(self.gamma_mat), x - self.gamma_shift)

    def apply_delta(self, y):
        return jets.matvec(self.delta_mat, y) + self.delta_shift

    def inverse(self) -> "AffinePair":
        gi = np.linalg.inv(self.gamma_mat)
        di = np.linalg.inv(self.delta_mat)
        return AffinePair(gi, -gi @ self.gamma_shift, di, -di @ self.delta_shift)


def identity_pair(n: int) -> AffinePair:
    z = np.zeros(n)
    return AffinePair(np.eye(n), z, np.eye(n), z)


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
        g_inv_t = g_inv.T

        def jac(x):
            # delta . J(gamma^{-1} x) . gamma^{-1}; matvec acts on the last axis
            J = model.jac(jets.matvec(g_inv, x - g_shift))
            right = jets.transpose_mat(jets.matvec(g_inv_t, J))
            return jets.transpose_mat(jets.matvec(d_mat, right))

    return MapModel(model.n, model.d, ev, label=f"{model.label}~affine", meta=dict(model.meta),
                    jac=jac)


def is_simple_singularity(model: MapModel, u, tol: float = linalg.DEFAULT_RANK_TOL):
    """Kernel dimension of F'(u) and the verdict regular/simple/non_simple."""
    A = jets.jacobian(model, np.asarray(u, dtype=float))
    kdim, _, _ = linalg.kernel_cokernel(A, tol)
    if kdim == 0:
        verdict = "regular"
    elif kdim == 1:
        verdict = "simple"
    else:
        verdict = "non_simple"
    return kdim, verdict
