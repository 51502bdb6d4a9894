"""Periodic first-order problems u' + g(t, u) = h on [0, 1), discretized to
MapModels, plus closed-form quadrature rows used as an independent oracle.

The spectral differentiation matrix is exact on trigonometric polynomials
below the grid bandlimit.  For even grid sizes the plain matrix annihilates
the sawtooth mode (whose true derivative is not representable on the grid),
which would fake a second kernel direction at u = 0; that mode is therefore
assigned the spectral-scale eigenvalue pi*N through a rank-one correction.
The correction leaves the action on every resolved mode untouched and keeps
constants in the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets, linalg
from .errors import AliasedCoefficients, ParamOutOfRange
from .fibering import PointFunctionals, ScaleSpec, make_fibering_pair, rescale_pair
from .model import SMOOTH, MapModel

TrigTerms = tuple[tuple[int, float, float], ...]  # (frequency, cos amp, sin amp)


def trig_samples(terms, t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    for freq, ca, sa in terms:
        if freq == 0:
            out = out + ca
        else:
            out = out + ca * np.cos(2 * np.pi * freq * t) + sa * np.sin(2 * np.pi * freq * t)
    return out


def trig_mean(terms) -> float:
    return float(sum(ca for freq, ca, _ in terms if freq == 0))


def trig_max_freq(terms) -> int:
    return max((freq for freq, _, _ in terms), default=0)


def running_integral_samples(terms, t: np.ndarray) -> np.ndarray:
    """A(t) = integral_0^t 2 a(tau) dtau for a mean-free trigonometric a."""
    out = np.zeros_like(t)
    for freq, ca, sa in terms:
        if freq == 0:
            out = out + 2.0 * ca * t
        else:
            w = np.pi * freq
            out = out + ca * np.sin(2 * np.pi * freq * t) / w
            out = out + sa * (1.0 - np.cos(2 * np.pi * freq * t)) / w
    return out


def differentiation_matrix(N: int, scheme: str = "spectral") -> np.ndarray:
    """Periodic differentiation matrix on the grid t_i = i/N of [0, 1)."""
    idx = np.arange(N)
    if scheme == "spectral":  # D[i, j] = f[i - j + N - 1], one entry of f per offset
        off, trig = np.arange(1 - N, N), (np.tan if N % 2 == 0 else np.sin)
        sign = 1.0 - 2.0 * (off % 2)
        f = np.divide(np.pi * sign, trig(np.pi * off / N), out=np.zeros(2 * N - 1), where=off != 0)
        D = f[idx[:, None] - idx + N - 1]
        nyquist_scale = np.pi * N
    elif scheme == "periodic_finite_difference":
        D, h = np.zeros((N, N)), 1.0 / N
        D[idx, (idx + 1) % N] = 1.0 / (2 * h)
        D[idx, (idx - 1) % N] = -1.0 / (2 * h)
        nyquist_scale = float(N)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    if N % 2 == 0:
        s = (-1.0) ** np.arange(N)
        D = D + (nyquist_scale / N) * np.outer(s, s)
    return D


@dataclass(frozen=True)
class PeriodicProblem:
    """u' + g(t, u) with trigonometric coefficient data.

    ``g_kind``: "quartic" gives g = a(t) u^2 + p(t) u^4; "poly" gives
    g = a(t) * sum_m c_m u^m with ``g_coeffs[m] = c_m``; "exp" gives
    g = a(t) (exp(beta u) - 1).
    """

    N: int
    a_terms: TrigTerms
    p_terms: TrigTerms = ()
    g_kind: str = "quartic"
    g_coeffs: tuple[float, ...] = ()
    g_beta: float = 1.0
    scheme: str = "spectral"


def make_periodic_bvp(problem: PeriodicProblem) -> MapModel:
    N = problem.N
    if N < 16:
        raise ParamOutOfRange("grid size must be at least 16")
    if problem.scheme == "spectral":
        maxf = max(trig_max_freq(problem.a_terms), trig_max_freq(problem.p_terms))
        if maxf >= N // 2:
            raise AliasedCoefficients(
                f"coefficient frequency {maxf} not below the bandlimit {N // 2}"
            )
    t = np.arange(N) / N
    D = differentiation_matrix(N, problem.scheme)
    a = trig_samples(problem.a_terms, t)
    p = trig_samples(problem.p_terms, t)
    kind = problem.g_kind
    coeffs = problem.g_coeffs
    beta = problem.g_beta

    if kind == "quartic":
        def g_of(x):
            x2 = x * x
            return x2 * a + (x2 * x2) * p
    elif kind == "poly":
        def g_of(x):
            acc = x * 0.0
            for m, cm in enumerate(coeffs):
                if cm:
                    acc = acc + jets.powi(x, m) * cm
            return acc * a
    elif kind == "exp":
        def g_of(x):
            return (jets.exp(x * beta) - 1.0) * a
    else:
        raise ValueError(f"unknown nonlinearity kind {kind!r}")

    def ev(x):
        return jets.matvec(D, x) + g_of(x)

    def jac(x):
        # g acts on each component alone, so g'(x) is the first-order
        # coefficient of g(x + s*1) in one new variable s
        s = jets.fresh_name("diag")
        xs = jets.constant(x, (s,), (1,))
        d = g_of(xs + jets.unit(xs.vars, xs.orders, s)).extract({s: 1})
        return jets.add_diag(D, d)

    label = f"bvp({kind},N={N},{problem.scheme})"
    return MapModel(N, SMOOTH, ev, label, jac=jac)


def oracle_applies(a_terms, g_kind: str = "quartic", u=0.0) -> bool:
    """Whether the closed forms of ``quartic_analytic_oracle`` hold: g quartic,
    at u = 0, and a(t) of zero mean (a mean-carrying a makes u = 0 a fold)."""
    return g_kind == "quartic" and not np.any(u) and abs(trig_mean(a_terms)) <= 1e-12


@dataclass(frozen=True)
class QuarticOracle:
    I1_row: np.ndarray
    I2_row: np.ndarray
    J3_value: float


def quartic_analytic_oracle(a_terms, p_terms, quadN: int = 256) -> QuarticOracle:
    """Quadrature rows of the closed-form functionals of the quartic problem
    at u = 0: I1 v = int 2 a v, I2 v = -int (int_0^t 2a) 2a v (valid modulo
    the I1 direction), and J3 = int 24 p.  The quadN-point rule is exact for
    trigonometric integrands of frequency below quadN, which covers these
    whenever the coefficient frequencies are below the bandlimit quadN / 2."""
    if quadN < 16:
        raise ParamOutOfRange("quadrature grid must have at least 16 points")
    if not oracle_applies(a_terms):
        raise ParamOutOfRange("a(t) must have zero mean")
    t = np.arange(quadN) / quadN
    a = trig_samples(a_terms, t)
    A = running_integral_samples(a_terms, t)
    w = 1.0 / quadN
    I1 = w * 2.0 * a
    I2 = -w * A * 2.0 * a
    J3 = float(np.sum(24.0 * trig_samples(p_terms, t)) * w)
    return QuarticOracle(I1, I2, J3)


def normalized_quartic_pair(model: MapModel, tol: float = linalg.DEFAULT_RANK_TOL):
    """Bordered pair at u = 0 rescaled so phi(0) is the all-ones vector and
    psi(0) is the quadrature row of the constant-one function; u = 0 is linearized once."""
    N = model.n
    lin = linalg.linearize(model, np.zeros(N), tol)
    base = make_fibering_pair(model, lin, tol)
    pf = PointFunctionals(model, base, lin, tol)
    phi_scale = 1.0 / float(np.mean(pf.phi0))
    psi_scale = 1.0 / (N * float(np.mean(pf.psi0)))
    return rescale_pair(base, ScaleSpec(phi_scale), ScaleSpec(psi_scale))


def _aligned_cosine(num: np.ndarray, ana: np.ndarray) -> tuple[float, float]:
    """(cosine after scalar alignment, fitted scalar)."""
    denom = float(np.dot(ana, ana))
    lam = float(np.dot(num, ana)) / denom
    nn = float(np.linalg.norm(num))
    na = float(np.linalg.norm(ana))
    cos = abs(float(np.dot(num, ana))) / (nn * na)
    return cos, lam


def quartic_cross_check(a_terms, p_terms, N: int = 64, scheme: str = "spectral",
                   tol: float = linalg.DEFAULT_RANK_TOL) -> dict:
    """Compare the pair-functional rows of the discretized quartic problem at
    u = 0 against the analytic quadrature oracle.

    The oracle's reduced second row is only defined modulo the first row, so
    second rows are compared after projecting the first-row direction out;
    the pair-freedom scalar between routes may be negative, so cosines are
    reported after scalar alignment.
    """
    problem = PeriodicProblem(N=N, a_terms=tuple(a_terms), p_terms=tuple(p_terms), scheme=scheme)
    model = make_periodic_bvp(problem)
    oracle = quartic_analytic_oracle(a_terms, p_terms, quadN=N)
    pair = normalized_quartic_pair(model, tol)
    pf = PointFunctionals(model, pair, np.zeros(N), tol)
    I1n, I2n, I3n = pf.row(1), pf.row(2), pf.row(3)
    J = [pf.J(k) for k in range(4)]
    cos1, lam1 = _aligned_cosine(I1n, oracle.I1_row)
    r1hat = oracle.I1_row / np.linalg.norm(oracle.I1_row)
    proj = lambda v: v - np.dot(v, r1hat) * r1hat
    cos2, lam2 = _aligned_cosine(proj(I2n), proj(oracle.I2_row))
    stack_sv = linalg.rank_decision(np.vstack([I1n, I2n, I3n]), tol).singular_values
    return {
        "J": J,
        "I1_cosine": cos1,
        "I1_scalar": lam1,
        "I2_cosine": cos2,
        "I2_scalar": lam2,
        "J3_numeric": J[3],
        "J3_oracle": oracle.J3_value,
        "stack_singular_values": list(stack_sv),
        "sigma3_over_sigma1": float(stack_sv[2] / stack_sv[0]),
    }
