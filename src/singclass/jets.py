"""Truncated Taylor (jet) arithmetic in named nilpotent variables.

A :class:`Jet` carries the Taylor coefficients of a scalar or array quantity
with respect to an ordered tuple of formal variables, each truncated at its
own order.  ``coeffs`` is a dense array whose *trailing* ``len(vars)`` axes
index the multi-degree (axis ``i`` has length ``orders[i] + 1``); any leading
axes are value axes, so a vector in R^n is a jet with value shape ``(n,)``
and extra leading axes act as broadcastable batch dimensions.

Arithmetic is exact truncated-polynomial arithmetic: products are truncated
convolutions, and analytic functions (exp, log, sin, cos) are evaluated by
composing the function's Taylor series with the nilpotent part of the
argument, which terminates after ``sum(orders)`` terms.  A jet with all
orders zero degenerates to plain float arithmetic bit for bit.

The helpers at the bottom (``exp``, ``comp``, ``stack``, ``matvec``, ...)
dispatch on the argument type so the same map code runs on plain numpy
arrays and on jets.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DepthCapExceeded,
    DivisionByZeroJet,
    DomainError,
    OrderExceedsSmoothness,
)

NESTING_CAP = 8

_counter = itertools.count()


def fresh_name(prefix: str = "v") -> str:
    return f"{prefix}{next(_counter)}"


class Jet:
    __slots__ = ("vars", "orders", "coeffs")

    def __init__(self, variables: Sequence[str], orders: Sequence[int], coeffs):
        self.vars = tuple(variables)
        self.orders = tuple(int(o) for o in orders)
        if len(self.vars) != len(self.orders):
            raise ValueError("variables and orders must have equal length")
        if any(o < 0 for o in self.orders):
            raise ValueError("orders must be non-negative")
        arr = np.asarray(coeffs, dtype=float)
        expect = tuple(o + 1 for o in self.orders)
        if expect and arr.shape[arr.ndim - len(expect):] != expect:
            raise ValueError(f"coefficient shape {arr.shape} incompatible with orders {self.orders}")
        self.coeffs = arr

    # -- structure ---------------------------------------------------------

    @property
    def njet(self) -> int:
        return len(self.vars)

    @property
    def jet_shape(self) -> tuple[int, ...]:
        return tuple(o + 1 for o in self.orders)

    @property
    def value_ndim(self) -> int:
        return self.coeffs.ndim - self.njet

    @property
    def value_shape(self) -> tuple[int, ...]:
        return self.coeffs.shape[: self.value_ndim]

    @property
    def const(self) -> np.ndarray:
        """Constant (degree-zero) coefficient, shaped like the value."""
        return self.coeffs[(Ellipsis, *(0,) * self.njet)]

    def ctx(self) -> tuple[tuple[str, ...], tuple[int, ...]]:
        return self.vars, self.orders

    def __repr__(self) -> str:  # pragma: no cover
        return f"Jet(vars={self.vars}, orders={self.orders}, value_shape={self.value_shape})"

    def _require_ctx(self, other: "Jet") -> None:
        if self.vars != other.vars or self.orders != other.orders:
            raise ValueError(
                f"jet contexts differ: {self.vars}/{self.orders} vs {other.vars}/{other.orders}"
            )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            self._require_ctx(other)
            return Jet(self.vars, self.orders, self.coeffs + other.coeffs)
        arr = np.asarray(other, dtype=float)
        vs = np.broadcast_shapes(self.value_shape, arr.shape)
        out = np.zeros(vs + self.jet_shape)
        out += self.coeffs
        out[(Ellipsis, *(0,) * self.njet)] += arr
        return Jet(self.vars, self.orders, out)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.vars, self.orders, -self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other, dtype=float))

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, arr: np.ndarray) -> "Jet":
        arr = np.asarray(arr, dtype=float)
        return Jet(self.vars, self.orders, self.coeffs * arr[(Ellipsis, *(None,) * self.njet)])

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self._scale(np.asarray(other, dtype=float))
        self._require_ctx(other)
        nv = self.njet
        if nv == 0:
            return Jet(self.vars, self.orders, self.coeffs * other.coeffs)
        vs = np.broadcast_shapes(self.value_shape, other.value_shape)
        out = np.zeros(vs + self.jet_shape)
        a, b = self.coeffs, other.coeffs
        for mu in np.ndindex(*self.jet_shape):
            bmu = b[(Ellipsis, *mu)]
            if not bmu.any():
                continue
            out_sl = (Ellipsis, *(slice(m, o + 1) for m, o in zip(mu, self.orders)))
            a_sl = (Ellipsis, *(slice(0, o + 1 - m) for m, o in zip(mu, self.orders)))
            out[out_sl] += a[a_sl] * bmu[(Ellipsis, *(None,) * nv)]
        return Jet(self.vars, self.orders, out)

    def __rmul__(self, other):
        return self._scale(np.asarray(other, dtype=float))

    def __truediv__(self, other):
        if isinstance(other, Jet):
            self._require_ctx(other)
            if np.any(np.asarray(other.const) == 0.0):
                raise DivisionByZeroJet("jet divisor has zero constant term")
            if sum(self.orders) == 0:
                return Jet(self.vars, self.orders, self.coeffs / other.coeffs)
            return self * other.reciprocal()
        return self._scale(1.0 / np.asarray(other, dtype=float))

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, n):
        return self.powi(n)

    # -- analytic functions ------------------------------------------------

    def _compose_series(self, derivs: list[np.ndarray]) -> "Jet":
        """Evaluate sum_i derivs[i] * (self - const)^i by Horner's rule.

        ``derivs[i]`` must be f^(i)(const)/i!; the nilpotent part has zero
        constant term, so the series terminates at i = sum(orders).
        """
        if len(derivs) == 1:
            out = np.zeros(self.value_shape + self.jet_shape)
            out[(Ellipsis, *(0,) * self.njet)] = derivs[0]
            return Jet(self.vars, self.orders, out)
        nil_c = self.coeffs.copy()
        nil_c[(Ellipsis, *(0,) * self.njet)] = 0.0
        nil = Jet(self.vars, self.orders, nil_c)
        acc = nil * derivs[-1] + derivs[-2]
        for d in derivs[-3::-1]:
            acc = acc * nil + d
        return acc

    def _series_order(self) -> int:
        return sum(self.orders)

    def exp(self) -> "Jet":
        c0 = self.const
        m = self._series_order()
        e = np.exp(c0)
        return self._compose_series([e / math.factorial(i) for i in range(m + 1)])

    def log(self) -> "Jet":
        c0 = np.asarray(self.const)
        if np.any(c0 <= 0.0):
            raise DomainError("log of jet with non-positive constant term")
        m = self._series_order()
        derivs = [np.log(c0)]
        for i in range(1, m + 1):
            derivs.append(((-1.0) ** (i + 1)) / (i * c0**i))
        return self._compose_series(derivs)

    def sin(self) -> "Jet":
        c0 = self.const
        m = self._series_order()
        cycle = [np.sin(c0), np.cos(c0), -np.sin(c0), -np.cos(c0)]
        return self._compose_series([cycle[i % 4] / math.factorial(i) for i in range(m + 1)])

    def cos(self) -> "Jet":
        c0 = self.const
        m = self._series_order()
        cycle = [np.cos(c0), -np.sin(c0), -np.cos(c0), np.sin(c0)]
        return self._compose_series([cycle[i % 4] / math.factorial(i) for i in range(m + 1)])

    def reciprocal(self) -> "Jet":
        c0 = np.asarray(self.const)
        if np.any(c0 == 0.0):
            raise DivisionByZeroJet("jet divisor has zero constant term")
        m = self._series_order()
        return self._compose_series([((-1.0) ** i) / c0 ** (i + 1) for i in range(m + 1)])

    def powi(self, n: int) -> "Jet":
        if n != int(n):
            raise ValueError("powi requires an integer exponent")
        n = int(n)
        if n < 0:
            return self.reciprocal().powi(-n)
        result = None
        base = self
        while n > 0:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        if result is None:
            return constant(np.ones(self.value_shape), self.vars, self.orders)
        return result

    # -- value-axis helpers --------------------------------------------------

    def component(self, i: int) -> "Jet":
        """Index the last value axis (the vector-component axis)."""
        if self.value_ndim == 0:
            raise IndexError("scalar jet has no components")
        return Jet(self.vars, self.orders, np.take(self.coeffs, i, axis=self.value_ndim - 1))

    __getitem__ = component

    def vsum(self) -> "Jet":
        """Sum over the last value axis."""
        return Jet(self.vars, self.orders, self.coeffs.sum(axis=self.value_ndim - 1))

    # -- context manipulation ------------------------------------------------

    def extract(self, fixings: dict[str, int]) -> "Jet | np.ndarray | float":
        """Coefficient at the given variable powers, as a jet in the rest.

        Returns a plain array (or float) when all variables are fixed.
        """
        idx: list[object] = []
        keep_vars, keep_orders = [], []
        for v, o in zip(self.vars, self.orders):
            if v in fixings:
                p = fixings[v]
                if not 0 <= p <= o:
                    raise ValueError(f"power {p} out of range for variable {v}")
                idx.append(p)
            else:
                idx.append(slice(None))
                keep_vars.append(v)
                keep_orders.append(o)
        arr = self.coeffs[(Ellipsis, *idx)]
        if not keep_vars:
            return arr if arr.shape else float(arr)
        return Jet(keep_vars, keep_orders, arr)

    def truncate(self, new_orders: Sequence[int]) -> "Jet":
        new_orders = tuple(int(o) for o in new_orders)
        if len(new_orders) != self.njet or any(
            n > o for n, o in zip(new_orders, self.orders)
        ):
            raise ValueError("truncation orders must be <= current orders")
        sl = (Ellipsis, *(slice(0, n + 1) for n in new_orders))
        return Jet(self.vars, new_orders, self.coeffs[sl].copy())

    def extend(self, variables: Sequence[str], orders: Sequence[int]) -> "Jet":
        """Embed into a larger context (the new one must contain the old)."""
        variables = tuple(variables)
        orders = tuple(int(o) for o in orders)
        pos = {v: i for i, v in enumerate(variables)}
        for v, o in zip(self.vars, self.orders):
            if v not in pos or orders[pos[v]] != o:
                raise ValueError("target context does not contain the current one")
        vnd = self.value_ndim
        arr = self.coeffs
        # bring existing jet axes into target order, inserting size-1 axes
        src_axes = {v: vnd + i for i, v in enumerate(self.vars)}
        perm = list(range(vnd))
        inserted = []
        work = arr
        for v in variables:
            if v not in src_axes:
                work = np.expand_dims(work, axis=-1)
                inserted.append(v)
        # after expand_dims the new axes sit at the end; build permutation
        cur = list(self.vars) + inserted
        order_axes = [vnd + cur.index(v) for v in variables]
        work = np.transpose(work, perm + order_axes)
        pads = [(0, 0)] * vnd + [
            (0, (orders[i] + 1) - work.shape[vnd + i]) for i in range(len(variables))
        ]
        work = np.pad(work, pads)
        return Jet(variables, orders, work)


# -- constructors -----------------------------------------------------------


def constant(value, variables: Sequence[str] = (), orders: Sequence[int] = ()) -> Jet:
    variables = tuple(variables)
    orders = tuple(int(o) for o in orders)
    arr = np.asarray(value, dtype=float)
    out = np.zeros(arr.shape + tuple(o + 1 for o in orders))
    out[(Ellipsis, *(0,) * len(orders))] = arr
    return Jet(variables, orders, out)


def variable(name: str, order: int = 1) -> Jet:
    """The scalar jet of the variable itself (in its own one-variable context)."""
    c = np.zeros(order + 1)
    if order >= 1:
        c[1] = 1.0
    return Jet((name,), (order,), c)


def unit(variables: Sequence[str], orders: Sequence[int], name: str) -> Jet:
    """The scalar jet of one variable inside a larger context."""
    variables = tuple(variables)
    orders = tuple(orders)
    i = variables.index(name)
    c = np.zeros(tuple(o + 1 for o in orders))
    pos = [0] * len(variables)
    pos[i] = 1
    c[tuple(pos)] = 1.0
    return Jet(variables, orders, c)


# -- dispatch helpers (work on Jet and on plain arrays) ----------------------


def exp(x):
    return x.exp() if isinstance(x, Jet) else np.exp(x)


def log(x):
    if isinstance(x, Jet):
        return x.log()
    if np.any(np.asarray(x) <= 0.0):
        raise DomainError("log of non-positive value")
    return np.log(x)


def sin(x):
    return x.sin() if isinstance(x, Jet) else np.sin(x)


def cos(x):
    return x.cos() if isinstance(x, Jet) else np.cos(x)


def powi(x, n: int):
    if isinstance(x, Jet):
        return x.powi(n)
    return np.asarray(x, dtype=float) ** int(n)


def comp(x, i: int):
    """Component ``i`` along the last value axis."""
    if isinstance(x, Jet):
        return x.component(i)
    return np.asarray(x, dtype=float)[..., i]


def stack(parts: Sequence) -> "Jet | np.ndarray":
    """Stack scalar quantities into a vector along a new last value axis."""
    jet = next((p for p in parts if isinstance(p, Jet)), None)
    if jet is None:
        return np.stack([np.asarray(p, dtype=float) for p in parts], axis=-1)
    promoted = []
    for p in parts:
        if isinstance(p, Jet):
            jet._require_ctx(p)
            promoted.append(p)
        else:
            promoted.append(constant(np.asarray(p, dtype=float), jet.vars, jet.orders))
    vs = np.broadcast_shapes(*(p.value_shape for p in promoted))
    arrs = [np.broadcast_to(p.coeffs, vs + jet.jet_shape) for p in promoted]
    return Jet(jet.vars, jet.orders, np.stack(arrs, axis=len(vs)))


def matvec(A: np.ndarray, x):
    """Product of a plain matrix with a (jet) vector along the component axis."""
    A = np.asarray(A, dtype=float)
    if not isinstance(x, Jet):
        return np.einsum("ij,...j->...i", A, np.asarray(x, dtype=float))
    vnd = x.value_ndim
    jshape = x.jet_shape
    c = x.coeffs.reshape(x.value_shape + (int(np.prod(jshape, dtype=int)),))
    out = np.matmul(A, c)
    return Jet(x.vars, x.orders, out.reshape(out.shape[:vnd] + jshape))


def dot(v: np.ndarray, x):
    """Plain covector applied to a (jet) vector."""
    if not isinstance(x, Jet):
        return np.einsum("j,...j->...", np.asarray(v, dtype=float), np.asarray(x, dtype=float))
    return (x * np.asarray(v, dtype=float)).vsum()


def transpose_mat(M: "Jet | np.ndarray"):
    """Transpose the two trailing value axes of a (jet) matrix."""
    if not isinstance(M, Jet):
        return np.swapaxes(M, -2, -1)
    vnd = M.value_ndim
    return Jet(M.vars, M.orders, np.swapaxes(M.coeffs, vnd - 2, vnd - 1))


# -- derivatives of maps ------------------------------------------------------


def jacobian(model, x) -> "Jet | np.ndarray":
    """Jacobian F'(x) of a MapModel-like object, at a plain or jet point.

    Returns ``J[..., i, j] = dF_i/dx_j`` in the same representation as ``x``
    (plain array for a plain point, jet for a jet point).  Uses the model's
    own ``jac`` when it has one; otherwise costs one model evaluation batched
    over the n probe directions.
    """
    if not isinstance(x, Jet):
        x = np.asarray(x, dtype=float)
    jac = getattr(model, "jac", None)
    if jac is not None:
        return jac(x)
    pv = fresh_name("jac")
    n = model.n
    if isinstance(x, Jet):
        base = x.extend(x.vars + (pv,), x.orders + (1,))
        vnd = base.value_ndim
        base = Jet(base.vars, base.orders, np.expand_dims(base.coeffs, axis=vnd - 1))
    else:
        base = constant(x[..., None, :], (pv,), (1,))
    probe = unit(base.vars, base.orders, pv)
    X = base + probe * np.eye(n)
    Y = model.eval(X)
    jac = Y.extract({pv: 1})
    if isinstance(jac, Jet):
        return transpose_mat(jac)
    return np.swapaxes(jac, -2, -1)


def directional_derivatives(model, u, v, m: int) -> list[np.ndarray]:
    """Derivatives d^i/ds^i F(u + s v) at s = 0 for i = 0..m."""
    if m > model.d:
        raise OrderExceedsSmoothness(f"order {m} exceeds declared smoothness {model.d}")
    name = fresh_name("dir")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    x = constant(u, (name,), (m,)) + unit((name,), (m,), name) * v
    y = model.eval(x)
    return [math.factorial(i) * y.extract({name: i}) for i in range(m + 1)]


def lie_value(scalar_field: Callable, vector_field: Callable, x0, depth: int):
    """Iterated Lie derivative of ``scalar_field`` along ``vector_field``.

    ``x0`` may be a plain point or a jet point; the vector field is
    re-evaluated at the jet-valued point of every layer, so it may depend on
    position.  Returns the value in the residual context of ``x0``.
    """
    if depth > NESTING_CAP:
        raise DepthCapExceeded(f"nested depth {depth} exceeds cap {NESTING_CAP}")
    if depth == 0:
        return scalar_field(x0)
    names = [fresh_name("lie") for _ in range(depth)]
    if isinstance(x0, Jet):
        variables = x0.vars + tuple(names)
        orders = x0.orders + (1,) * depth
        x = x0.extend(variables, orders)
    else:
        variables = tuple(names)
        orders = (1,) * depth
        x = constant(np.asarray(x0, dtype=float), variables, orders)
    for name in names:
        x = x + unit(variables, orders, name) * vector_field(x)
    g = scalar_field(x)
    return g.extract({name: 1 for name in names})


def nested_lie_derivative(scalar_field: Callable, vector_field: Callable, u, depth: int) -> float:
    """(L_xi)^depth g at the plain point ``u``."""
    out = lie_value(scalar_field, vector_field, np.asarray(u, dtype=float), depth)
    return float(out)
