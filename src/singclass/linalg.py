"""Dense small-matrix numerics: ranks with explicit tolerances, the
linearization of a map at a point (kernel, cokernel and range from one SVD),
and bordered solves (plain and in jet arithmetic)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from . import jets
from .errors import SingularBorder
from .jets import Jet

DEFAULT_RANK_TOL = 1e-8


@dataclass(frozen=True)
class RankDecision:
    rank: int
    singular_values: tuple[float, ...]


def _numerical_rank(sv: np.ndarray, tol: float) -> int:
    """Count of singular values above ``tol * max(1, sigma_max)``; the
    ``max(1, .)`` floor keeps all-zero and tiny-noise matrices at rank zero
    without a separate absolute threshold."""
    return int(np.sum(sv > tol * max(1.0, float(sv[0]) if sv.size else 0.0)))


def rank_decision(rows: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> RankDecision:
    """Numerical rank of a stack of rows."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    sv = np.linalg.svd(rows, compute_uv=False)
    return RankDecision(_numerical_rank(sv, tol), tuple(float(s) for s in sv))


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive.

    SVD leaves the sign of each singular vector free; fixing it makes kernel
    bases (and everything derived from them) reproducible across runs.
    """
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    return vecs * np.where(lead < 0, -1.0, 1.0)


@dataclass(frozen=True)
class Linearization:
    """F'(u) at one point and what both routes read off it, all from one SVD
    ``A = U diag(sigma) V^T``: the rank, the sign-fixed kernel basis (columns
    of V) and cokernel basis (columns of U) past the rank, and the range
    basis ``U[:, :rank]``."""

    u: np.ndarray | None
    A: np.ndarray
    singular_values: np.ndarray
    rank: int
    kernel: np.ndarray        # n x kdim
    cokernel: np.ndarray      # n x kdim, left null vectors
    range_basis: np.ndarray   # n x rank

    @property
    def kdim(self) -> int:
        return self.A.shape[0] - self.rank

    @classmethod
    def of_matrix(cls, A, tol: float = DEFAULT_RANK_TOL, u=None) -> "Linearization":
        A = np.asarray(A, dtype=float)
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError("a linearization needs a square matrix")
        U, sv, Vt = np.linalg.svd(A)
        rank = _numerical_rank(sv, tol)
        return cls(u, A, sv, rank, _fix_signs(Vt[rank:].T), _fix_signs(U[:, rank:]), U[:, :rank])


def linearize(model, u, tol: float = DEFAULT_RANK_TOL) -> Linearization:
    """Linearization of a MapModel at the plain point ``u``: one Jacobian and
    one SVD.  A Linearization passed as ``u`` is returned unchanged."""
    if isinstance(u, Linearization):
        return u
    u = np.asarray(u, dtype=float)
    return Linearization.of_matrix(jets.jacobian(model, u), tol, u)


def _border_matrix(A: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = A
    M[:n, n] = b
    M[n, :n] = c
    return M


def _border_jet(A: Jet, b: np.ndarray, c: np.ndarray) -> Jet:
    vnd = A.value_ndim
    nj = A.njet
    n = A.coeffs.shape[vnd - 1]
    shape = A.value_shape[:-2] + (n + 1, n + 1) + A.jet_shape
    M = np.zeros(shape)
    M[(Ellipsis, slice(0, n), slice(0, n)) + (slice(None),) * nj] = A.coeffs
    M[(Ellipsis, slice(0, n), n) + (0,) * nj] = b
    M[(Ellipsis, n, slice(0, n)) + (0,) * nj] = c
    return Jet(A.vars, A.orders, M)


def lu_solve_jet(lu_piv, r: Jet, trans: int = 0) -> Jet:
    """Apply a factored constant matrix inverse coefficient-wise."""
    vnd = r.value_ndim
    m = r.coeffs.shape[vnd - 1]
    moved = np.moveaxis(r.coeffs, vnd - 1, 0).reshape(m, -1)
    sol = lu_solve(lu_piv, moved, trans=trans)
    sol = np.moveaxis(sol.reshape((m,) + r.coeffs.shape[:vnd - 1] + r.jet_shape), 0, vnd - 1)
    return Jet(r.vars, r.orders, sol)


def _matvec_jet_mat(M: Jet, x: Jet) -> Jet:
    """Product of a jet-valued matrix with a jet-valued vector."""
    vndm = M.value_ndim
    orders = M.orders
    vs = np.broadcast_shapes(M.value_shape[:-2], x.value_shape[:-1])
    m = M.coeffs.shape[vndm - 2]
    out = np.zeros(vs + (m,) + M.jet_shape)
    xc = x.coeffs
    for mu in np.ndindex(*M.jet_shape):
        Mmu = M.coeffs[(Ellipsis, *mu)]
        if not Mmu.any():
            continue
        xs = xc[(Ellipsis,) + tuple(slice(0, o + 1 - k) for k, o in zip(mu, orders))]
        sub_shape = xs.shape[x.value_ndim:]
        flat = xs.reshape(xs.shape[: x.value_ndim] + (int(np.prod(sub_shape, dtype=int)),))
        prod = np.matmul(Mmu, flat)
        prod = prod.reshape(prod.shape[:-1] + sub_shape)
        out_sl = (Ellipsis, slice(None)) + tuple(slice(k, o + 1) for k, o in zip(mu, orders))
        out[out_sl] += prod
    return Jet(M.vars, M.orders, out)


def _jet_border_solve(M: Jet, rhs: Jet, lu_piv, trans: int = 0) -> Jet:
    """Solve M X = rhs where M's constant coefficient is the factored matrix.

    Fixed-point iteration X <- M0^{-1}(rhs - N X) with N the nilpotent part
    of M; each pass fixes one more total degree, so ``sum(orders)`` passes
    give the exact truncated solution (back-substitution in disguise).
    """
    nil_c = M.coeffs.copy()
    nil_c[(Ellipsis, *(0,) * M.njet)] = 0.0
    N = Jet(M.vars, M.orders, nil_c)
    X = lu_solve_jet(lu_piv, rhs, trans=trans)
    for _ in range(sum(M.orders)):
        resid = rhs - _matvec_jet_mat(N, X)
        X = lu_solve_jet(lu_piv, resid, trans=trans)
    return X


def border_factor(A: np.ndarray, b: np.ndarray, c: np.ndarray, tol: float = DEFAULT_RANK_TOL):
    """Factor the bordered matrix [[A, b], [c^T, 0]], checking regularity."""
    M0 = _border_matrix(np.asarray(A, dtype=float), b, c)
    sv = np.linalg.svd(M0, compute_uv=False)
    if _numerical_rank(sv, tol) < sv.size:
        raise SingularBorder(
            f"bordered matrix rank-deficient: sigma_min/sigma_max = {sv[-1] / sv[0]:.3e}"
        )
    return lu_factor(M0)


def bordered_solve(A, b, c, rhs, tol: float = DEFAULT_RANK_TOL, lu_piv=None, trans: int = 0):
    """Solution (x, s) of the bordered system [[A, b], [c^T, 0]] (x, s) = rhs.

    ``A`` and ``rhs[0]`` may be jet-valued; the system is then solved
    coefficient-by-coefficient against the factored constant-term matrix
    (pass ``lu_piv`` to reuse a factorization across many solves).
    """
    r1, r2 = rhs
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    n = b.shape[0]
    if isinstance(A, Jet) or isinstance(r1, Jet):
        if not isinstance(A, Jet):
            raise ValueError("jet-valued rhs requires a jet-valued matrix")
        if lu_piv is None:
            lu_piv = border_factor(A.const if A.value_ndim == 2 else A.const[(0,) * (A.value_ndim - 2)], b, c, tol)
        M = _border_jet(A, b, c)
        if isinstance(r1, Jet):
            R = jets.stack([r1[i] for i in range(n)] + [r2])
        else:
            rr = np.zeros(np.asarray(r1).shape[:-1] + (n + 1,))
            rr[..., :n] = r1
            rr[..., n] = r2
            R = jets.constant(rr, A.vars, A.orders)
        X = _jet_border_solve(M, R, lu_piv, trans=trans)
        xs = Jet(X.vars, X.orders, X.coeffs[(Ellipsis, slice(0, n)) + (slice(None),) * X.njet])
        s = X[n]
        return xs, s
    A = np.asarray(A, dtype=float)
    if lu_piv is None:
        lu_piv = border_factor(A, b, c, tol)
    rr = np.zeros(n + 1)
    rr[:n] = r1
    rr[n] = r2
    sol = lu_solve(lu_piv, rr, trans=trans)
    return sol[:n], float(sol[n])
