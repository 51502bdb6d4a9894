"""Truncated Taylor (jet) arithmetic in named nilpotent variables.

A :class:`Jet` carries the Taylor coefficients of a scalar or array quantity
with respect to an ordered tuple of formal variables, each truncated at its
own order.  ``coeffs`` is a dense array whose *trailing* ``len(vars)`` axes
index the multi-degree (axis ``i`` has length ``orders[i] + 1``); any leading
axes are value axes, so a vector in R^n is a jet with value shape ``(n,)``
and extra leading axes act as broadcastable batch dimensions.

Arithmetic is exact truncated-polynomial arithmetic: products are truncated
convolutions, and exp is evaluated by composing its Taylor series with the
nilpotent part of the argument, which terminates after ``sum(orders)``
terms.  A jet with all orders zero degenerates to plain float arithmetic bit
for bit.  A product reads a table cached per context (``_product_table``):
one gather of each operand's coefficients, one multiply and one sum per
output degree.  Results derived here from checked jets are built by the
unchecked ``_like``; ``Jet(...)`` checks every other construction.

The helpers at the bottom (``exp``, ``comp``, ``stack``, ``matvec``, ...)
dispatch on the argument type so the same map code runs on plain numpy
arrays and on jets.  A model's own Jacobian at a jet point is the operator
``MatrixPlusDiag``, which they apply without forming a dense jet matrix.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence

import numpy as np

from .errors import OrderExceedsSmoothness

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
            return _like(self, self.coeffs + other.coeffs)
        arr = np.asarray(other, dtype=float)
        vs = np.broadcast_shapes(self.value_shape, arr.shape)
        out = np.zeros(vs + self.jet_shape)
        out += self.coeffs
        out[(Ellipsis, *(0,) * self.njet)] += arr
        return _like(self, out)

    __radd__ = __add__

    def __neg__(self):
        return _like(self, -self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other, dtype=float))

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, arr: np.ndarray) -> "Jet":
        arr = np.asarray(arr, dtype=float)
        return _like(self, self.coeffs * arr[(Ellipsis, *(None,) * self.njet)])

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self._scale(other)
        x, y, starts = _pairs(other, self)
        # in place unless the value shapes broadcast: two pair-sized temporaries at most
        return _sum_pairs(self, np.multiply(x, y, out=x if x.shape == y.shape else None), starts)

    __rmul__ = _scale

    # -- analytic functions ------------------------------------------------

    def _compose_series(self, derivs: list[np.ndarray]) -> "Jet":
        """Evaluate sum_i derivs[i] * (self - const)^i by Horner's rule.

        ``derivs[i]`` must be f^(i)(const)/i!; the nilpotent part has zero
        constant term, so the series terminates at i = sum(orders).
        """
        if len(derivs) == 1:
            return constant(derivs[0], self.vars, self.orders)
        nil = self.nilpotent()
        acc = nil * derivs[-1] + derivs[-2]
        for d in derivs[-3::-1]:
            acc = acc * nil + d
        return acc

    def nilpotent(self) -> "Jet":
        """The jet minus its constant term."""
        nil = self.coeffs.copy()
        nil[(Ellipsis, *(0,) * self.njet)] = 0.0
        return _like(self, nil)

    def exp(self) -> "Jet":
        e = np.exp(self.const)
        return self._compose_series([e / math.factorial(i) for i in range(sum(self.orders) + 1)])

    def powi(self, n: int) -> "Jet":
        n = _exponent(n)
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

    def component(self, i: "int | slice") -> "Jet":
        """Index or slice the last value axis (the vector-component axis)."""
        if self.value_ndim == 0:
            raise IndexError("scalar jet has no components")
        return _like(self, self.coeffs[(Ellipsis, i) + (slice(None),) * self.njet])

    __getitem__ = component

    def append_zero(self) -> "Jet":
        """The jet with one zero component appended to the last value axis."""
        m = self.value_shape[-1]
        out = np.zeros(self.value_shape[:-1] + (m + 1,) + self.jet_shape)
        out[(Ellipsis, slice(0, m)) + (slice(None),) * self.njet] = self.coeffs
        return _like(self, out)

    def map_components(self, fn) -> "Jet":
        """Apply a linear map along the component axis: ``fn`` maps the (m, K)
        coefficients, one row per component, to the (m', K) image."""
        moved = np.moveaxis(self.coeffs, self.value_ndim - 1, 0)
        out = fn(moved.reshape(moved.shape[0], -1))
        out = out.reshape(out.shape[:1] + moved.shape[1:])
        return _like(self, np.moveaxis(out, 0, self.value_ndim - 1))

    def vsum(self) -> "Jet":
        """Sum over the last value axis."""
        return _like(self, self.coeffs.sum(axis=self.value_ndim - 1))

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


def _like(jet: Jet, coeffs: np.ndarray) -> Jet:
    """A jet in the context of ``jet`` with the float array ``coeffs``, built
    without the checks of ``Jet.__init__``: for results derived from checked jets.
    A jet without variables gets a numpy scalar from a 0-d result; asarray
    keeps its coefficients an array."""
    out = object.__new__(Jet)
    out.vars, out.orders, out.coeffs = jet.vars, jet.orders, np.asarray(coeffs)
    return out


# -- constructors -----------------------------------------------------------


def constant(value, variables: Sequence[str] = (), orders: Sequence[int] = ()) -> Jet:
    """``value`` as a jet constant in ``variables``, after a jet value's own."""
    own = (value.vars, value.orders) if isinstance(value, Jet) else ((), ())
    arr = value.coeffs if isinstance(value, Jet) else np.asarray(value, dtype=float)
    out = np.zeros(arr.shape + tuple(int(o) + 1 for o in orders))
    out[(Ellipsis, *(0,) * len(orders))] = arr
    return Jet(own[0] + tuple(variables), own[1] + tuple(orders), out)


def add_diag(A, d) -> "MatrixPlusDiag | np.ndarray":
    """A + diag(d) for a plain square A: a plain matrix at a plain vector d
    (batch axes allowed), and the operator ``MatrixPlusDiag(A, d)`` at a jet d."""
    if isinstance(d, Jet):
        return MatrixPlusDiag(A, d)
    return A + d[..., None] * np.eye(d.shape[-1])


class MatrixPlusDiag:
    """The jet matrix L (A + diag(d)) R of plain square matrices L, A and R
    (None for the identity, or for zero as A) and a jet vector d (batch axes
    allowed), kept apart: no dense (..., n, n) jet is formed.  ``@`` composes
    a plain matrix into L or R.  Only this module reads the parts."""

    __slots__ = ("_left", "_mat", "_diag", "_right")
    __array_ufunc__ = None  # numpy defers ``ndarray @ op`` to ``__rmatmul__``

    def __init__(self, mat, diag: Jet, left=None, right=None):
        self._left, self._mat, self._diag, self._right = left, mat, diag, right

    @property
    def vars(self) -> tuple[str, ...]:
        return self._diag.vars

    @property
    def orders(self) -> tuple[int, ...]:
        return self._diag.orders

    def nilpotent(self) -> "MatrixPlusDiag":
        return MatrixPlusDiag(None, self._diag.nilpotent(), self._left, self._right)

    def __matmul__(self, R: np.ndarray) -> "MatrixPlusDiag":
        right = R if self._right is None else self._right @ R
        return MatrixPlusDiag(self._mat, self._diag, self._left, right)

    def __rmatmul__(self, L: np.ndarray) -> "MatrixPlusDiag":
        left = L if self._left is None else L @ self._left
        return MatrixPlusDiag(self._mat, self._diag, left, self._right)


def integrate(x: Jet, name: str, order: int) -> Jet:
    """Antiderivative of ``x`` in ``name`` that vanishes at name = 0, truncated
    at ``order`` in it: c_j name^j becomes c_j name^(j+1) / (j+1).  A variable
    outside the context is appended (``x`` is constant in it)."""
    if name not in x.vars:
        x = constant(x, (name,), (0,))
    i = x.vars.index(name)
    coeffs = np.moveaxis(x.coeffs, x.value_ndim + i, -1)
    m = min(order, x.orders[i] + 1)  # coefficients that stay inside the truncation
    out = np.zeros(coeffs.shape[:-1] + (order + 1,))
    out[..., 1 : m + 1] = coeffs[..., :m] / np.arange(1, m + 1)
    orders = x.orders[:i] + (order,) + x.orders[i + 1 :]
    return Jet(x.vars, orders, np.moveaxis(out, -1, x.value_ndim + i))


def derivative(x: "Jet | MatrixPlusDiag") -> "Jet | MatrixPlusDiag":
    """d/ds of a jet or ``MatrixPlusDiag`` in one variable s, one order lower."""
    if isinstance(x, MatrixPlusDiag):  # the constant A drops out
        return MatrixPlusDiag(None, derivative(x._diag), x._left, x._right)
    return Jet(x.vars, (x.orders[0] - 1,), x.coeffs[..., 1:] * np.arange(1, x.orders[0] + 1))


def series(coeffs: Sequence[np.ndarray], name: str) -> Jet:
    """The jet sum_j coeffs[j] name^j of same-shaped plain arrays (``extract`` reads one)."""
    return Jet((name,), (len(coeffs) - 1,), np.stack(coeffs, axis=-1))


def unit(variables: Sequence[str], orders: Sequence[int], name: str) -> Jet:
    """The scalar jet of one variable inside a larger context."""
    pos = [0] * len(orders)
    pos[tuple(variables).index(name)] = 1
    c = np.zeros(tuple(o + 1 for o in orders))
    c[tuple(pos)] = 1.0
    return Jet(variables, orders, c)


# -- dispatch helpers (work on Jet and on plain arrays) ----------------------


def exp(x):
    return x.exp() if isinstance(x, Jet) else np.exp(x)


def _exponent(n) -> int:
    if n != int(n) or n < 0:
        raise ValueError("powi requires a non-negative integer exponent")
    return int(n)


def powi(x, n: int):
    if isinstance(x, Jet):
        return x.powi(n)
    return np.asarray(x, dtype=float) ** _exponent(n)


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
    promoted = [p if isinstance(p, Jet) else constant(p, jet.vars, jet.orders) for p in parts]
    for p in promoted:
        jet._require_ctx(p)
    vs = np.broadcast_shapes(*(p.value_shape for p in promoted))
    arrs = [np.broadcast_to(p.coeffs, vs + jet.jet_shape) for p in promoted]
    return _like(jet, np.stack(arrs, axis=len(vs)))


@functools.lru_cache(maxsize=None)
def _product_table(orders: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The truncated product as a table: the flat degrees (a, b) of every pair
    of coefficients whose product stays inside the truncation, grouped by the
    flat degree of a + b (a lexicographic within a group), and the start of
    each group.  Every group holds its degree-zero pair, so none is empty."""
    k, shape = len(orders), tuple(o + 1 for o in orders)
    flat = lambda idx: int(np.ravel_multi_index(idx, shape))
    pairs = sorted((flat(tuple(i + j for i, j in zip(ab[:k], ab[k:]))), flat(ab[:k]), flat(ab[k:]))
                   for ab in np.ndindex(*shape, *shape)
                   if all(i + j < s for i, j, s in zip(ab[:k], ab[k:], shape)))
    out, a, b = np.array(pairs, dtype=np.intp).T
    return a, b, np.flatnonzero(np.diff(out, prepend=-1))


def _pairs(lead: Jet, rest: Jet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coefficients of two jets of one context gathered along one last
    axis, pair by pair of ``_product_table``, and the start of each group."""
    lead._require_ctx(rest)
    a, b, starts = _product_table(lead.orders)
    flat = lambda x, index: x.coeffs.reshape(x.value_shape + (starts.size,)).take(index, axis=-1)
    return flat(lead, a), flat(rest, b), starts


def _sum_pairs(ctx: Jet, prod: np.ndarray, starts: np.ndarray) -> Jet:
    """The jet in ctx's context whose coefficient at each degree sums that
    degree's group of pair products (the last axis of ``prod``)."""
    out = np.add.reduceat(prod, starts, axis=-1)
    return _like(ctx, out.reshape(out.shape[:-1] + ctx.jet_shape))


def matvec(A, x):
    """Product of a plain matrix with a (jet) vector, or of a jet matrix or a
    ``MatrixPlusDiag`` with a jet vector or a plain vector without batch axes,
    along the component axis."""
    if isinstance(A, MatrixPlusDiag):  # R, then A and d, then L
        x = x if A._right is None else matvec(A._right, x)
        y = A._diag * x if A._mat is None else A._diag * x + matvec(A._mat, x)
        return y if A._left is None else matvec(A._left, y)
    if isinstance(A, Jet):
        if not isinstance(x, Jet):  # one product per coefficient of A
            x = np.asarray(x, dtype=float)
            return _like(A, np.tensordot(x, A.coeffs, axes=(0, A.value_ndim - 1)))
        gA, gx, starts = _pairs(A, x)
        return _sum_pairs(A, np.einsum("...ijp,...jp->...ip", gA, gx), starts)
    A = np.asarray(A, dtype=float)
    if not isinstance(x, Jet):
        return np.einsum("ij,...j->...i", A, np.asarray(x, dtype=float))
    out = np.matmul(A, x.coeffs.reshape(x.value_shape + (math.prod(x.jet_shape),)))
    return _like(x, out.reshape(out.shape[:-1] + x.jet_shape))


def dot(v, x):
    """Contraction along the component axis of two (jet) vectors; a plain v
    has no batch axes when x is plain too.  A jet operand leads the product:
    ``ndarray * Jet`` would build an object array."""
    if isinstance(v, Jet):
        return (v * x).vsum()
    if isinstance(x, Jet):
        return (x * np.asarray(v, dtype=float)).vsum()
    return np.dot(np.asarray(x, dtype=float), np.asarray(v, dtype=float))


def transpose_mat(M: "Jet | MatrixPlusDiag | np.ndarray"):
    """Transpose the two trailing value axes of a (jet) matrix."""
    if isinstance(M, MatrixPlusDiag):
        mat, left, right = (None if P is None else P.T for P in (M._mat, M._left, M._right))
        return MatrixPlusDiag(mat, M._diag, right, left)
    if not isinstance(M, Jet):
        return np.swapaxes(M, -2, -1)
    return _like(M, np.swapaxes(M.coeffs, M.value_ndim - 2, M.value_ndim - 1))


# -- derivatives of maps ------------------------------------------------------


def jacobian(model, x) -> "Jet | MatrixPlusDiag | np.ndarray":
    """Jacobian F'(x) of a MapModel-like object, at a plain or jet point.

    Returns ``J[..., i, j] = dF_i/dx_j``: a plain array at a plain point, and
    at a jet point the ``MatrixPlusDiag`` of a model's ``jac`` (anything else
    raises TypeError) or, for a model without one, the dense probe Jacobian
    jet, which costs one model evaluation batched over the n probe directions.
    """
    jac = getattr(model, "jac", None)
    if jac is not None:
        J = jac(x)
        if isinstance(x, Jet) and not isinstance(J, MatrixPlusDiag):
            raise TypeError(f"jac at a jet point returned {type(J).__name__}, not a MatrixPlusDiag")
        return J
    pv = fresh_name("jac")
    n = model.n
    base = constant(x, (pv,), (1,))
    base = _like(base, np.expand_dims(base.coeffs, axis=base.value_ndim - 1))  # a probe axis
    probe = unit(base.vars, base.orders, pv)
    X = base + probe * np.eye(n)
    Y = model.eval(X)
    return transpose_mat(Y.extract({pv: 1}))


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
