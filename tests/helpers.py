"""Shared test utilities: independent finite-difference oracles and map builders."""

from __future__ import annotations

import numpy as np

from singclass.model import MapModel


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


def gallery_points(model: MapModel, rng: np.random.Generator, count: int, radius: float = 0.5):
    return [radius * rng.standard_normal(model.n) for _ in range(count)]
