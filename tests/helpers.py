"""Shared test utilities: independent oracles (finite differences, nested
Lie derivatives, transformed pairs) and map builders."""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

import numpy as np

from singclass import jets
from singclass.fibering import PairBase, PointFunctionals
from singclass.jets import Jet
from singclass.model import AffinePair, MapModel, conjugate

NESTED_DEPTH_CAP = 8  # a nested Lie derivative of depth k carries 2^k coefficients per jet
PROBE_BUDGET = 1 << 20  # floats of one probe chunk's F'(x) jet at the deepest row


def fd_directional(model: MapModel, u, v, order: int, step: float = 1e-4) -> np.ndarray:
    """Central finite-difference directional derivative (independent of jets)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    f = lambda s: model(u + s * v)
    if order == 1:
        return (f(step) - f(-step)) / (2 * step)
    if order == 2:
        return (f(step) - 2 * f(0.0) + f(-step)) / step**2
    if order == 3:
        return (f(2 * step) - 2 * f(step) + 2 * f(-step) - f(-2 * step)) / (2 * step**3)
    raise ValueError("finite differences implemented up to order 3")


def reference_truncated_convolution(a: np.ndarray, b: np.ndarray, orders) -> np.ndarray:
    """Direct multi-index convolution; the independent oracle for jet products."""
    out = np.zeros_like(a)
    for idx in np.ndindex(*[o + 1 for o in orders]):
        total = 0.0
        for sub in np.ndindex(*[i + 1 for i in idx]):
            rest = tuple(i - s for i, s in zip(idx, sub))
            total += a[sub] * b[rest]
        out[idx] = total
    return out


def reference_differentiation_matrix(N: int, scheme: str = "spectral") -> np.ndarray:
    """Entry-by-entry construction of ``bvp.differentiation_matrix``; the
    oracle for its vectorized fill."""
    D = np.zeros((N, N))
    if scheme == "spectral":
        for i in range(N):
            for j in range(N):
                if i == j:
                    continue
                off = i - j
                if N % 2 == 0:
                    D[i, j] = np.pi * (-1.0) ** off / np.tan(np.pi * off / N)
                else:
                    D[i, j] = np.pi * (-1.0) ** off / np.sin(np.pi * off / N)
        nyquist_scale = np.pi * N
    elif scheme == "periodic_finite_difference":
        h = 1.0 / N
        for i in range(N):
            D[i, (i + 1) % N] = 1.0 / (2 * h)
            D[i, (i - 1) % N] = -1.0 / (2 * h)
        nyquist_scale = float(N)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    if N % 2 == 0:
        s = (-1.0) ** np.arange(N)
        D = D + (nyquist_scale / N) * np.outer(s, s)
    return D


def dense_jacobian(op: jets.MatrixPlusDiag) -> Jet:
    """The operator L (A + diag d) R filled into one dense (..., n, n) jet
    matrix: A, L and R act on the constant term and every coefficient alike
    (a None L or R is skipped, a None A is zero), d sits on the diagonal.
    The oracle for the operator's ``matvec``, ``transpose_mat`` and
    ``nilpotent``; it reads the parts that only ``jets`` reads in ``src``."""
    d = op._diag
    c, nj, vnd = d.coeffs, d.njet, d.value_ndim
    out = np.zeros(c.shape[:vnd] + c.shape[vnd - 1:])  # a second component axis
    if op._mat is not None:
        out[(Ellipsis, slice(None), slice(None)) + (0,) * nj] = op._mat
    idx = np.arange(c.shape[vnd - 1])
    out[(Ellipsis, idx, idx) + (slice(None),) * nj] += c
    m = np.moveaxis(out, (vnd - 1, vnd), (-2, -1))  # jet axes before the matrix axes
    m = m if op._left is None else op._left @ m
    m = m if op._right is None else m @ op._right
    return Jet(d.vars, d.orders, np.moveaxis(m, (-2, -1), (vnd - 1, vnd)))


def record_jet_jacobians(monkeypatch) -> list:
    """Patch ``jets.jacobian`` to record the type of each Jacobian it returns
    at a jet point; returns the list it appends to."""
    kinds, jacobian = [], jets.jacobian

    def recording(model, x):
        J = jacobian(model, x)
        if isinstance(x, Jet):
            kinds.append(type(J))
        return J

    monkeypatch.setattr(jets, "jacobian", recording)
    return kinds


def identity_affine(n: int) -> AffinePair:
    z = np.zeros(n)
    return AffinePair(np.eye(n), z, np.eye(n), z)


def inverse_affine(pair: AffinePair) -> AffinePair:
    """The affine pair (gamma^-1, delta^-1) that undoes ``pair``."""
    gi = np.linalg.inv(pair.gamma_mat)
    di = np.linalg.inv(pair.delta_mat)
    return AffinePair(gi, -gi @ pair.gamma_shift, di, -di @ pair.delta_shift)


def gallery_points(model: MapModel, rng: np.random.Generator, count: int, radius: float = 0.5):
    return [radius * rng.standard_normal(model.n) for _ in range(count)]


def lie_value(scalar_field: Callable, vector_field: Callable, x0, depth: int):
    """Iterated Lie derivative of ``scalar_field`` along ``vector_field``.

    ``x0`` may be a plain point or a jet point; the vector field is
    re-evaluated at the jet-valued point of every layer, so it may depend on
    position.  Returns the value in the residual context of ``x0``.
    """
    if depth > NESTED_DEPTH_CAP:
        raise ValueError(f"nested depth {depth} exceeds cap {NESTED_DEPTH_CAP}")
    if depth == 0:
        return scalar_field(x0)
    names = [jets.fresh_name("lie") for _ in range(depth)]
    x = jets.constant(x0, names, (1,) * depth)  # a jet x0 keeps its own variables first
    variables, orders = x.vars, x.orders
    for name in names:
        x = x + jets.unit(variables, orders, name) * vector_field(x)
    g = scalar_field(x)
    return g.extract({name: 1 for name in names})


def nested_lie_derivative(scalar_field: Callable, vector_field: Callable, u, depth: int) -> float:
    """(L_xi)^depth g at the plain point ``u``."""
    return float(lie_value(scalar_field, vector_field, np.asarray(u, dtype=float), depth))


def contraction(psi, Fp, phi):
    """psi F' phi at a plain or jet point, the generic J_0 of any pair."""
    y = psi * jets.matvec(Fp, phi)
    return y.vsum() if isinstance(y, Jet) else float(np.sum(y))


def j0_at(pf: PointFunctionals, x):
    """J_0 of ``pf``'s pair at a plain or jet point."""
    return pf.pair.phi_j0(x, jets.jacobian(pf.model, x))[1]


def phi_field(pf: PointFunctionals, x):
    """The kernel field of ``pf``'s pair at a plain or jet point."""
    return pf.pair.phi_j0(x, jets.jacobian(pf.model, x))[0]


def lie_J(pf: PointFunctionals, k: int) -> float:
    """J_k of ``pf`` recomputed as a depth-k nested Lie derivative of J_0
    along the pair's kernel field (the cross-check of ``pf.J``)."""
    return float(lie_value(partial(j0_at, pf), partial(phi_field, pf), pf.u, k))


def nested_row(pf: PointFunctionals, k: int) -> np.ndarray:
    """I_k of ``pf`` as the gradient of the depth-(k-1) nested Lie derivative
    of J_0, all n probe directions in one batch (the oracle of ``pf.row``)."""
    n = pf.model.n
    g = jets.fresh_name("grad")
    x0 = jets.constant(np.broadcast_to(pf.u, (n, n)).copy(), (g,), (1,))
    x0 = x0 + jets.unit((g,), (1,), g) * np.eye(n)
    val = lie_value(partial(j0_at, pf), partial(phi_field, pf), x0, k - 1)
    return np.asarray(val.extract({g: 1}), dtype=float)


def probe_rows(model: MapModel, pair: PairBase, u, k_max: int) -> list[np.ndarray]:
    """Rows I_1 .. I_k_max of ``pair`` at u by pushing probe directions through
    the flow (the oracle of the adjoint sweep in ``PointFunctionals``): I_k is
    (k-1)! times the eps s^(k-1) coefficient of J0(x(s)) on the flow from
    u + eps v, a jet in eps (order 1, batched over the n directions v, in chunks
    of ``PROBE_BUDGET`` floats) and s, moved on one degree per row."""
    n, u = model.n, np.asarray(u, dtype=float)
    bound = PointFunctionals(model, pair, u).pair
    g, s = jets.fresh_name("grad"), jets.fresh_name("flow")
    per_probe = n if model.jac is not None else n * n  # F'(x) floats per probe and coefficient
    chunk = max(1, PROBE_BUDGET // (per_probe * 2 * k_max))
    eps = jets.unit((g,), (1,), g)
    flows = [[eps * np.eye(n)[start:start + chunk] + u, None] for start in range(0, n, chunk)]
    rows = []
    for k in range(1, k_max + 1):
        grads = []
        for rec in flows:  # [u + eps v, phi at the last flow jet]
            x, phi = rec
            if phi is not None:
                x = jets.constant(x, (s,), (k - 1,)) + jets.integrate(phi, s, k - 1)
            rec[1], j0 = bound.phi_j0(x, jets.jacobian(model, x))
            grads.append(j0.extract({g: 1, s: k - 1}) * math.factorial(k - 1))
        rows.append(np.concatenate(grads))
    return rows


class TransformedPair(PairBase):
    """Push-forward of a pair under an affine change of coordinates.

    For gamma(u) = A u + a and delta(y) = B y + b the transformed fields are
    phi~(x) = A phi(gamma^{-1} x) and psi~(x) = B^{-T} psi(gamma^{-1} x); the
    scalar functionals of the transformed pair at gamma(u) then reproduce the
    originals at u exactly.  J_0 is the contraction psi~ F~' phi~ on the moved
    model, not the inner pair's J_0, so it reads the conjugated Jacobian.
    """

    def __init__(self, inner: PairBase, affine: AffinePair, inner_model: MapModel):
        self.inner = inner
        self.affine = affine
        self.inner_model = inner_model
        self._binv_t = np.linalg.inv(affine.delta_mat).T
        self._ainv = np.linalg.inv(affine.gamma_mat)

    @property
    def pair_id(self) -> str:
        return f"transformed<-{self.inner.pair_id}"

    def _gamma_inv(self, x):
        return jets.matvec(self._ainv, x - self.affine.gamma_shift)

    def at(self, u, Fp0, tol):
        """The pair with its inner pair bound at gamma^{-1}(u)."""
        u_in = self._gamma_inv(u)
        inner = self.inner.at(u_in, jets.jacobian(self.inner_model, u_in), tol)
        return TransformedPair(inner, self.affine, self.inner_model)

    def phi_j0(self, x, Fp):
        u_in = self._gamma_inv(x)
        Fp_in = jets.jacobian(self.inner_model, u_in)
        phi = jets.matvec(self.affine.gamma_mat, self.inner.phi_j0(u_in, Fp_in)[0])
        return phi, contraction(self.psi(x, Fp), Fp, phi)

    def psi(self, x, Fp):
        u_in = self._gamma_inv(x)
        ps = self.inner.psi(u_in, jets.jacobian(self.inner_model, u_in))
        return jets.matvec(self._binv_t, ps)


def pair_transform(pair: PairBase, affine: AffinePair, model: MapModel,
                   transformed_model: MapModel | None = None) -> TransformedPair:
    if transformed_model is None:
        transformed_model = conjugate(model, affine)
    if transformed_model.n != model.n:
        raise ValueError("dimension mismatch between models")
    return TransformedPair(pair, affine, model)
