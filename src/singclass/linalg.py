"""Dense small-matrix numerics, and every SVD the package takes: the one
decision rule ``negligible``, ranks, null spaces, a map's linearization at a
point (rank from a values-only SVD, null pair from one LU), and bordered
solves against one factored constant-term matrix (a jet matrix adds its nilpotent part)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from . import jets
from .errors import NonFiniteMatrix, SingularBorder
from .jets import Jet

DEFAULT_RANK_TOL = 1e-8
_GETRF, _GETRS, _TRTRS = get_lapack_funcs(("getrf", "getrs", "trtrs"), dtype=np.float64)
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class RankDecision:
    rank: int
    singular_values: tuple[float, ...]


def negligible(x, ref, tol: float):
    """The one decision rule, elementwise in x: |x| <= tol * max(1, |ref|); the
    floor keeps all-zero and tiny-noise inputs negligible."""
    return np.abs(x) <= tol * max(1.0, abs(float(ref)))


def _finite(M: np.ndarray, name: str) -> np.ndarray:
    """M itself, once every entry is checked finite: LAPACK's SVD can loop
    without end on an infinite entry."""
    if not np.isfinite(M).all():
        raise NonFiniteMatrix(f"{name} has an infinite or NaN entry; no SVD is taken")
    return M


def _numerical_rank(sv: np.ndarray, tol: float) -> int:
    """Count of singular values not negligible against sigma_max."""
    return int(np.count_nonzero(~negligible(sv, sv[0] if sv.size else 0.0, tol)))


def rank_decision(rows: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> RankDecision:
    """Numerical rank of a stack of rows."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    sv = np.linalg.svd(_finite(rows, "the row stack"), compute_uv=False)
    return RankDecision(_numerical_rank(sv, tol), tuple(float(s) for s in sv))


def null_space(rows: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> tuple[int, np.ndarray]:
    """Numerical rank of a stack of rows and a sign-fixed orthonormal basis
    (columns) of its numerical null space, both from one SVD."""
    _, sv, Vt = np.linalg.svd(_finite(rows, "the row stack"))
    rank = _numerical_rank(sv, tol)
    return rank, _fix_signs(Vt[rank:].T)


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive: the sign an SVD
    or an inverse iteration leaves free, fixed so kernel and cokernel vectors are reproducible."""
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    return vecs * np.where(lead < 0, -1.0, 1.0)


@dataclass(frozen=True)
class Linearization:
    """F'(u) at one point and what both routes read off it: sigma and the rank
    from one values-only SVD.  At kdim = 1 the sign-fixed (w, c) come from one LU
    (pivots floored at eps * sigma_1 as in LAPACK xLAEIN, a U-only start against
    ones, two-solve steps that take c to eps at (sigma_n / sigma_{n-1})^2 each, then
    w = A^{-T} c) and the range basis from the reflector H w = -+e_0.  For n = 1, a
    gap needing over four steps, or kdim != 1, both come from the full SVD on first read."""

    u: np.ndarray | None
    A: np.ndarray
    singular_values: np.ndarray
    rank: int
    _lu_pair: tuple | None

    @property
    def kdim(self) -> int:
        return self.A.shape[0] - self.rank

    @classmethod
    def of_matrix(cls, A, tol: float = DEFAULT_RANK_TOL, u=None) -> "Linearization":
        A = np.asarray(A, dtype=float)
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError("a linearization needs a square matrix")
        sv = np.linalg.svd(_finite(A, "F'(u)"), compute_uv=False)
        rank = _numerical_rank(sv, tol)
        if rank != n - 1 or n == 1 or sv[-1] > sv[-2] * _EPS ** 0.125:  # over four steps
            return cls(u, A, sv, rank, None)
        lu, piv, _ = _GETRF(A)
        lu.flat[:: n + 1] = np.where(abs(lu.diagonal()) < _EPS * sv[0], _EPS * sv[0], lu.diagonal())
        unit = lambda x: x / np.sqrt(x @ x)
        c = unit(_TRTRS(lu, np.ones(n))[0])
        for _ in range(math.ceil(math.log(_EPS) / (2 * math.log(sv[-1] / sv[-2]))) if sv[-1] else 1):
            c = unit(_GETRS(lu, piv, unit(_GETRS(lu, piv, c, trans=1)[0]))[0])
        w = unit(_GETRS(lu, piv, c, trans=1)[0])
        return cls(u, A, sv, rank, tuple(_fix_signs(np.column_stack([w, c])).T.copy()))

    @cached_property
    def _full_svd(self) -> tuple:  # (last pair, range basis) off A = U diag(sigma) V^T
        U, _, Vt = np.linalg.svd(self.A)
        return (_fix_signs(U[:, -1:])[:, 0], _fix_signs(Vt[-1:].T)[:, 0]), U[:, : self.rank]

    @property
    def last_pair(self) -> tuple:
        """(w, c): the sign-fixed last left and right singular vectors."""
        return self._lu_pair or self._full_svd[0]

    @property
    def range_basis(self) -> np.ndarray:
        """n x rank orthonormal basis Q of the range: H[:, 1:] with the LU pair."""
        return self.range_rows(np.eye(len(self.A))).T

    def range_rows(self, M: np.ndarray) -> np.ndarray:
        """Q^T M; with the LU pair the rank-one update (H M)[1:], no matrix product."""
        if self._lu_pair is None:
            return self._full_svd[1].T @ M
        w = self._lu_pair[0]
        v = w + np.copysign(np.eye(1, len(w))[0], w[0])  # H = I - 2 v v^T / (v^T v)
        return (M - (2 / (v @ v) * v)[:, None] * (v @ M))[1:]


def linearize(model, u, tol: float = DEFAULT_RANK_TOL) -> Linearization:
    """Linearization of a MapModel at the plain point ``u``: one Jacobian and
    one values-only SVD.  A Linearization passed as ``u`` is returned unchanged."""
    if isinstance(u, Linearization):
        return u
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # of_matrix rejects what overflowed
        return Linearization.of_matrix(jets.jacobian(model, u), tol, u)


def lu_solve_jet(lu_piv, r: Jet, trans: int = 0) -> Jet:
    """Apply a factored constant matrix inverse coefficient-wise."""
    return r.map_components(lambda cols: lu_solve(lu_piv, cols, trans=trans))


def border_factor(A: np.ndarray, b: np.ndarray, c: np.ndarray, tol: float = DEFAULT_RANK_TOL):
    """Factor the bordered matrix [[A, b], [c^T, 0]], checking regularity."""
    n = len(b)
    M0 = np.zeros((n + 1, n + 1))
    M0[:n, :n] = A
    M0[:n, n] = b
    M0[n, :n] = c
    sv = np.linalg.svd(_finite(M0, "the bordered matrix"), compute_uv=False)
    if _numerical_rank(sv, tol) < sv.size:
        raise SingularBorder(
            f"bordered matrix rank-deficient: sigma_min/sigma_max = {sv[-1] / sv[0]:.3e}"
        )
    return lu_factor(M0)


def solve_passes(lu_piv, R: Jet, nil_apply, trans: int = 0) -> Jet:
    """Solution X of (M0 + N) X = R, or with ``trans=1`` of the transposed
    system, for a jet R: ``lu_piv`` factors the constant matrix M0 and
    ``nil_apply(X)`` is the jet N X (N^T X with ``trans=1``) for a nilpotent
    N.  Each pass X <- M0^{-1} (R - N X) fixes one more total degree, so
    ``sum(orders)`` passes give the exact truncated solution."""
    X = lu_solve_jet(lu_piv, R, trans=trans)
    for _ in range(sum(R.orders)):
        X = lu_solve_jet(lu_piv, R - nil_apply(X), trans=trans)
    return X


def extend_inverse(lu_piv, A, W: list) -> None:
    """Append W_K to W = [W_0 .. W_{K-1}], the Taylor coefficients in s of M(s)^{-1},
    M(s) = [[A(s), b], [c^T, 0]] with M_0 factored in ``lu_piv`` and A exact through s^K:
    one solve with n + 1 columns, W_K = -M_0^{-1} sum_{i>=1} [[A_i, 0], [0, 0]] W_{K-i}."""
    n, rhs = len(lu_piv[0]) - 1, np.eye(len(lu_piv[0]))
    if W:  # [s^K] of (A(s) - A_0) W(s) reads W_0 .. W_{K-1} alone
        s, K = A.vars[0], len(W)
        cols = jets.transpose_mat(jets.series(W + [0 * W[0]] * (A.orders[0] + 1 - K), s))[:n]
        rhs = np.vstack([-jets.matvec(A.nilpotent(), cols).extract({s: K}).T, np.zeros(n + 1)])
    W.append(lu_solve(lu_piv, rhs))


def bordered_solve(A, lu_piv, trans: int = 0):
    """Solution (x, s) of [[A, b], [c^T, 0]] (x, s) = (0, .., 0, 1), or with
    ``trans=1`` of the transposed system [[A^T, c], [b^T, 0]] (x, s) = (0, .., 0, 1),
    against ``lu_piv``, the ``border_factor`` of A's constant term and the border b, c.

    A jet or ``jets.MatrixPlusDiag`` A (batch axes allowed) gives jet
    solutions by ``solve_passes``: only A carries jet terms, so the nilpotent
    part acts as (N x, 0) on top of the constant-term bordered matrix.
    """
    n = len(lu_piv[0]) - 1
    R = np.eye(1, n + 1, n)[0]  # (0, .., 0, 1)
    if isinstance(A, np.ndarray):
        sol = lu_solve(lu_piv, R, trans=trans)
        return sol[:n], float(sol[n])
    N = jets.transpose_mat(A.nilpotent()) if trans else A.nilpotent()
    R = jets.constant(R, A.vars, A.orders)
    X = solve_passes(lu_piv, R, lambda X: jets.matvec(N, X[:n]).append_zero(), trans)
    return X[:n], X[n]
