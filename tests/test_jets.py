import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (NESTED_DEPTH_CAP, dense_jacobian, fd_directional, nested_lie_derivative,
                     reference_truncated_convolution)
from singclass import jets
from singclass.errors import OrderExceedsSmoothness
from singclass.gallery import gallery_map
from singclass.jets import Jet, constant, unit

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


def jet1(coeffs):
    return Jet(("s",), (len(coeffs) - 1,), np.asarray(coeffs, dtype=float))


class TestArithmetic:
    def test_square_of_one_plus_s(self):
        one_plus_s = jet1([1.0, 1.0, 0.0])
        np.testing.assert_allclose((one_plus_s * one_plus_s).coeffs, [1.0, 2.0, 1.0])

    def test_exp_series(self):
        s = jet1([0.0, 1.0, 0.0, 0.0])
        np.testing.assert_allclose(s.exp().coeffs, [1.0, 1.0, 0.5, 1.0 / 6.0], atol=1e-15)

    def test_powi_matches_repeated_multiplication(self):
        x = jet1([1.2, -0.3, 0.4, 0.1])
        np.testing.assert_allclose((x.powi(5)).coeffs, (x * x * x * x * x).coeffs, atol=1e-12)

    def test_negative_power_raises(self):
        with pytest.raises(ValueError):
            jet1([2.0, 1.0]).powi(-1)

    @pytest.mark.parametrize("n", [-1, 1.5])
    @pytest.mark.parametrize("x", [np.array([2.0]), jet1([2.0, 1.0])], ids=["plain", "jet"])
    def test_dispatcher_rejects_bad_exponents(self, x, n):
        with pytest.raises(ValueError):
            jets.powi(x, n)

    def test_dispatcher_takes_integral_floats(self):
        np.testing.assert_array_equal(jets.powi(np.array([2.0]), 3.0), [8.0])
        np.testing.assert_array_equal(jets.powi(np.array([2.0]), 0), [1.0])

    @given(
        a=st.lists(finite, min_size=3, max_size=3),
        b=st.lists(finite, min_size=3, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_truncated_convolution_identity(self, a, b):
        ja, jb = jet1(a), jet1(b)
        ref = reference_truncated_convolution(ja.coeffs, jb.coeffs, (2,))
        np.testing.assert_allclose((ja * jb).coeffs, ref, atol=1e-13)

    @given(
        a=st.lists(finite, min_size=4, max_size=4),
        b=st.lists(finite, min_size=4, max_size=4),
        c=st.lists(finite, min_size=4, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_mul_associative(self, a, b, c):
        ja, jb, jc = jet1(a), jet1(b), jet1(c)
        lhs = ((ja * jb) * jc).coeffs
        rhs = (ja * (jb * jc)).coeffs
        np.testing.assert_allclose(lhs, rhs, atol=1e-9 * (1 + np.max(np.abs(lhs))))

    def test_bivariate_product(self):
        # (x + y)^2 with x order 2, y order 1
        x = Jet(("x", "y"), (2, 1), np.zeros((3, 2)))
        xc = x.coeffs.copy()
        xc[1, 0] = 1.0
        xc[0, 1] = 1.0
        z = Jet(("x", "y"), (2, 1), xc)
        sq = z * z
        assert sq.coeffs[2, 0] == pytest.approx(1.0)
        assert sq.coeffs[1, 1] == pytest.approx(2.0)
        assert sq.coeffs[0, 1] == pytest.approx(0.0)



class TestJetLayout:
    """The truncated product and the component-axis helpers."""

    ORDERS = (2, 1, 3)

    def random_jet(self, rng, value_shape, zero_blocks=()):
        c = rng.standard_normal(tuple(value_shape) + tuple(o + 1 for o in self.ORDERS))
        for mu in zero_blocks:
            c[(Ellipsis, *mu)] = 0.0
        return Jet(("a", "b", "c"), self.ORDERS, c)

    def test_jet_matrix_matvec_matches_reference_convolution(self):
        rng = np.random.default_rng(5)
        # batch axes (2,) against (1,); all-zero blocks at the constant term,
        # a mixed degree and the top degree
        M = self.random_jet(rng, (2, 3, 4), zero_blocks=[(0, 0, 0), (1, 0, 2), (2, 1, 3)])
        x = self.random_jet(rng, (1, 4), zero_blocks=[(0, 1, 0)])
        got = jets.matvec(M, x).coeffs
        assert got.shape == (2, 3) + M.coeffs.shape[3:]
        for b in range(2):
            for i in range(3):
                want = sum(reference_truncated_convolution(M.coeffs[b, i, j], x.coeffs[0, j],
                                                           self.ORDERS) for j in range(4))
                np.testing.assert_allclose(got[b, i], want, rtol=1e-13, atol=1e-13)

    def test_jet_matrix_times_plain_vector(self):
        rng = np.random.default_rng(6)
        M = self.random_jet(rng, (2, 3, 4))
        w = rng.standard_normal(4)
        want = jets.matvec(M, constant(w, M.vars, M.orders)).coeffs
        np.testing.assert_allclose(jets.matvec(M, w).coeffs, want, rtol=1e-13, atol=1e-13)

    def test_product_matches_reference_convolution(self):
        rng = np.random.default_rng(7)
        a = self.random_jet(rng, (), zero_blocks=[(1, 1, 0)])
        b = self.random_jet(rng, (), zero_blocks=[(0, 0, 0), (2, 0, 1)])
        want = reference_truncated_convolution(a.coeffs, b.coeffs, self.ORDERS)
        np.testing.assert_allclose((a * b).coeffs, want, rtol=1e-13, atol=1e-13)

    def test_nilpotent_zeroes_exactly_the_constant_term(self):
        x = self.random_jet(np.random.default_rng(8), (2, 3))
        before = x.coeffs.copy()
        nil = x.nilpotent()
        assert np.all(nil.const == 0.0) and np.all(x.const != 0.0)
        rest = np.ones(x.coeffs.shape, dtype=bool)
        rest[..., 0, 0, 0] = False
        np.testing.assert_array_equal(nil.coeffs[rest], x.coeffs[rest])
        np.testing.assert_array_equal(x.coeffs, before)

    def test_component_slice_and_append_zero_round_trip(self):
        x = self.random_jet(np.random.default_rng(9), (2, 3))
        padded = x.append_zero()
        assert padded.value_shape == (2, 4)
        np.testing.assert_array_equal(padded[:3].coeffs, x.coeffs)
        np.testing.assert_array_equal(padded[3].coeffs, np.zeros((2, 3, 2, 4)))
        np.testing.assert_array_equal(x[1:].coeffs, x.coeffs[:, 1:])
        np.testing.assert_array_equal(x[2].coeffs, x.coeffs[:, 2])

    def test_map_components_applies_a_matrix_along_the_component_axis(self):
        rng = np.random.default_rng(10)
        x = self.random_jet(rng, (2, 3))
        A = rng.standard_normal((5, 3))
        got = x.map_components(lambda cols: A @ cols)
        assert got.value_shape == (2, 5)
        np.testing.assert_allclose(got.coeffs, jets.matvec(A, x).coeffs, rtol=1e-13, atol=1e-13)

    def test_add_diag_fills_constant_matrix_and_diagonal(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((3, 3))
        d = self.random_jet(rng, (2, 3))
        got = jets.add_diag(A, d)
        assert isinstance(got, jets.MatrixPlusDiag) and (got._left, got._right) == (None, None)
        want = np.zeros((2, 3) + d.coeffs.shape[1:])
        want[..., 0, 0, 0] = A
        for i in range(3):
            want[:, i, i] += d.coeffs[:, i]
        np.testing.assert_array_equal(dense_jacobian(got).coeffs, want)
        plain = rng.standard_normal(3)
        np.testing.assert_array_equal(jets.add_diag(A, plain), A + np.diag(plain))
        batch = rng.standard_normal((2, 3))
        np.testing.assert_array_equal(jets.add_diag(A, batch), [A + np.diag(row) for row in batch])


class TestTableProduct:
    """The table-driven product (one gather per operand, one multiply, one
    sum per output degree) against the direct multi-index convolution, over
    orders with zeros, broadcast value shapes and all-zero blocks."""

    VALUE_SHAPES = [((), ()), ((), (3,)), ((2, 3), ()), ((2, 3), (3,)), ((2, 1), (1, 4)), ((3,), (3,))]

    @staticmethod
    def draw_jet(data, rng, orders, value_shape):
        """A random jet of the given context, with its degree-zero block, a
        drawn higher block or no block set to zero."""
        c = rng.standard_normal(tuple(value_shape) + tuple(o + 1 for o in orders))
        zero = data.draw(st.sampled_from(["none", "constant", "higher"]))
        if zero != "none":
            mu = (0,) * len(orders) if zero == "constant" else tuple(
                data.draw(st.integers(0, o)) for o in orders)
            c[(Ellipsis, *mu)] = 0.0
        return Jet(tuple("abc"[: len(orders)]), orders, c)

    @staticmethod
    def draw_context(data):
        orders = tuple(data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
        return orders, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_product_matches_reference_convolution(self, data):
        orders, rng = self.draw_context(data)
        shape_a, shape_b = data.draw(st.sampled_from(self.VALUE_SHAPES))
        a = self.draw_jet(data, rng, orders, shape_a)
        b = self.draw_jet(data, rng, orders, shape_b)
        ca, cb = np.broadcast_arrays(a.coeffs, b.coeffs)
        want = np.empty(ca.shape)
        for v in np.ndindex(*ca.shape[: ca.ndim - len(orders)]):
            want[v] = reference_truncated_convolution(ca[v], cb[v], orders)
        for got in (a * b, b * a):
            assert got.coeffs.shape == want.shape
            np.testing.assert_allclose(got.coeffs, want, rtol=1e-13, atol=1e-13)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matvec_matches_per_coefficient_oracle(self, data):
        """(M x)[..., i] at degree nu is the sum over j and over a + b = nu of
        M[..., i, j] at degree a times x[..., j] at degree b."""
        orders, rng = self.draw_context(data)
        batch_m, batch_x = data.draw(st.sampled_from(self.VALUE_SHAPES))
        M = self.draw_jet(data, rng, orders, batch_m + (2, 3))
        x = self.draw_jet(data, rng, orders, batch_x + (3,))
        got = jets.matvec(M, x).coeffs
        batch = np.broadcast_shapes(batch_m, batch_x)
        Mb = np.broadcast_to(M.coeffs, batch + M.coeffs.shape[len(batch_m):])
        xb = np.broadcast_to(x.coeffs, batch + x.coeffs.shape[len(batch_x):])
        assert got.shape == batch + (2,) + M.jet_shape
        want = np.zeros(got.shape)
        for v in np.ndindex(*batch):
            for i in range(2):
                for nu in np.ndindex(*M.jet_shape):
                    for mu in np.ndindex(*(d + 1 for d in nu)):
                        rest = tuple(d - m for d, m in zip(nu, mu))
                        want[v + (i,) + nu] += Mb[v + (i, slice(None)) + mu] @ xb[v + (slice(None),) + rest]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


class TestMatrixPlusDiag:
    """The operator L (A + diag(d)) R acts as its dense fill (``helpers``)
    does: as built by ``add_diag``, and composed with plain matrices on both
    sides once and twice, as nested ``conjugate`` calls compose it."""

    def test_operations_match_dense(self):
        rng = np.random.default_rng(12)
        names, orders = ("a", "b"), (2, 1)
        op = jets.add_diag(rng.standard_normal((3, 3)),
                           Jet(names, orders, rng.standard_normal((2, 3, 3, 2))))
        x = Jet(names, orders, rng.standard_normal((3, 3, 2)))
        w = rng.standard_normal(3)
        for depth in range(3):
            if depth:
                op = rng.standard_normal((3, 3)) @ op @ rng.standard_normal((3, 3))
            assert isinstance(op, jets.MatrixPlusDiag)
            assert (op._left is None, op._right is None) == (depth == 0, depth == 0)
            dense = dense_jacobian(op)
            assert dense.value_shape == (2, 3, 3)
            assert (op.vars, op.orders) == (dense.vars, dense.orders)
            nil = op.nilpotent()
            assert nil._mat is None and nil._left is op._left and nil._right is op._right
            cases = [(op, dense), (jets.transpose_mat(op), jets.transpose_mat(dense)),
                     (nil, dense.nilpotent()),
                     (jets.transpose_mat(nil), jets.transpose_mat(dense_jacobian(nil)))]
            for got, want in cases:
                if depth == 0:  # no L or R: the fill is exact
                    np.testing.assert_array_equal(dense_jacobian(got).coeffs, want.coeffs)
                else:  # a transposed L or R associates the products differently
                    np.testing.assert_allclose(dense_jacobian(got).coeffs, want.coeffs,
                                               rtol=1e-13, atol=1e-13)
                for v in (x, w):
                    np.testing.assert_allclose(jets.matvec(got, v).coeffs,
                                               jets.matvec(want, v).coeffs, rtol=1e-13, atol=1e-13)

    def test_jacobian_rejects_a_dense_jac_at_jet_points(self):
        """A ``jac`` must return the operator at a jet point; the probe
        Jacobian returned as a dense jet raises TypeError, and is still
        accepted at a plain point."""
        probe = gallery_map("whitney", {"k": 2}).model
        model = dataclasses.replace(probe, jac=lambda x: jets.jacobian(probe, x))
        u = 0.1 * np.arange(model.n)
        np.testing.assert_array_equal(jets.jacobian(model, u), jets.jacobian(probe, u))
        x = constant(u, ("a",), (1,)) + unit(("a",), (1,), "a") * np.ones(model.n)
        with pytest.raises(TypeError, match="MatrixPlusDiag"):
            jets.jacobian(model, x)


class TestOrderZeroDegeneration:
    """All orders zero must reproduce plain float arithmetic bit for bit."""

    @given(x=finite, y=finite)
    @settings(max_examples=60, deadline=None)
    def test_ring_ops_bitwise(self, x, y):
        jx = constant(x, ("s",), (0,))
        jy = constant(y, ("s",), (0,))
        assert float((jx + jy).const) == x + y
        assert float((jx - jy).const) == x - y
        assert float((jx * jy).const) == x * y

    @given(x=finite)
    @settings(max_examples=30, deadline=None)
    def test_analytic_ops_bitwise(self, x):
        jx = constant(x, ("s",), (0,))
        assert float(jx.exp().const) == math.exp(x) or float(jx.exp().const) == np.exp(x)


def test_jets_without_variables_keep_array_coefficients():
    """Sums and reductions of a jet with no variables give 0-d results;
    every operation must still see an array."""
    x = constant([1.0, 2.0])
    assert float(x.vsum().nilpotent().const) == 0.0
    s = -(x.component(0) + x.component(1)) * 2.0
    assert float(s.exp().const) == math.exp(-6.0)
    assert float((s * s).nilpotent().const) == 0.0


class TestDirectionalDerivatives:
    def test_fold_second_derivative(self):
        fold = gallery_map("fold_t2").model
        ders = jets.directional_derivatives(fold, [0.0, 0.0], [1.0, 0.0], 2)
        np.testing.assert_allclose(ders[0], [0.0, 0.0])
        np.testing.assert_allclose(ders[1], [0.0, 0.0])
        np.testing.assert_allclose(ders[2], [2.0, 0.0])

    def test_linear_map(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        from singclass.model import MapModel, SMOOTH

        lin = MapModel(2, SMOOTH, lambda x: jets.matvec(A, x), "linear")
        u, v = np.array([0.3, -0.7]), np.array([1.0, 0.5])
        ders = jets.directional_derivatives(lin, u, v, 2)
        np.testing.assert_allclose(ders[0], A @ u)
        np.testing.assert_allclose(ders[1], A @ v)
        np.testing.assert_allclose(ders[2], [0.0, 0.0], atol=1e-15)

    def test_whitney2_third_derivative_vs_finite_differences(self):
        w2 = gallery_map("whitney", {"k": 2, "dimZ": 1}).model
        ders = jets.directional_derivatives(w2, np.zeros(3), np.array([1.0, 0.0, 0.0]), 3)
        fd = fd_directional(w2, np.zeros(3), np.array([1.0, 0.0, 0.0]), 3, step=1e-3)
        scale = np.linalg.norm(ders[3])
        assert np.linalg.norm(ders[3] - fd) / scale < 1e-6

    def test_order_exceeds_smoothness(self):
        from singclass.model import MapModel

        lowreg = MapModel(2, 2, gallery_map("fold_t2").model.eval, "lowreg")
        with pytest.raises(OrderExceedsSmoothness):
            jets.directional_derivatives(lowreg, [0.0, 0.0], [1.0, 0.0], 3)


class TestNestedLie:
    @staticmethod
    def _const_field(vec):
        def field(u):
            if isinstance(u, Jet):
                return constant(np.asarray(vec, dtype=float), u.vars, u.orders)
            return np.asarray(vec, dtype=float)

        return field

    def test_linear_scalar_higher_derivatives_vanish(self):
        g = lambda u: jets.comp(u, 0)
        assert nested_lie_derivative(g, self._const_field([1.0, 0.0]), [0.4, 0.2], 3) == 0.0

    def test_quadratic_depth_one(self):
        g = lambda u: jets.comp(u, 0) * jets.comp(u, 0)
        out = nested_lie_derivative(g, self._const_field([1.0, 0.0]), [1.0, 0.0], 1)
        assert out == pytest.approx(2.0)

    def test_position_dependent_field(self):
        # g(u) = u0, xi(u) = (u0, 0): (L_xi)^k g = u0 for every k >= 1
        g = lambda u: jets.comp(u, 0)

        def field(u):
            return jets.stack([jets.comp(u, 0), jets.comp(u, 1) * 0.0])

        for depth in (1, 2, 3):
            out = nested_lie_derivative(g, field, [1.7, 0.0], depth)
            assert out == pytest.approx(1.7)

    def test_depth_cap(self):
        g = lambda u: jets.comp(u, 0)
        with pytest.raises(ValueError):
            nested_lie_derivative(g, self._const_field([1.0, 0.0]), [0.0, 0.0], NESTED_DEPTH_CAP + 1)


class TestPolynomialExactness:
    def test_univariate_polynomial_taylor(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            coeffs = rng.standard_normal(7)  # degree 6
            poly = np.polynomial.Polynomial(coeffs)
            u, v = rng.standard_normal(), rng.standard_normal()
            name = jets.fresh_name("t")
            x = constant(u, (name,), (6,)) + unit((name,), (6,), name) * v
            acc = constant(0.0, (name,), (6,))
            for m, cm in enumerate(coeffs):
                acc = acc + jets.powi(x, m) * cm
            # oracle: numpy polynomial composition p(u + v s)
            comp = poly(np.polynomial.Polynomial([u, v]))
            expect = np.zeros(7)
            expect[: len(comp.coef)] = comp.coef
            scale = max(1.0, np.max(np.abs(expect)))
            np.testing.assert_allclose(acc.coeffs, expect, rtol=0, atol=1e-12 * scale)

    def test_gallery_maps_finite_difference_consistency(self):
        rng = np.random.default_rng(42)
        entries = [
            gallery_map("fold_t2"),
            gallery_map("cusp_source_t3"),
            gallery_map("whitney", {"k": 3, "dimZ": 1}),
            gallery_map("family_kn", {"k": 2, "n": 3}),
            gallery_map("eps_perturbed", {"eps": 0.1}),
        ]
        for entry in entries:
            model = entry.model
            for _ in range(20):
                u = 0.5 * rng.standard_normal(model.n)
                v = rng.standard_normal(model.n)
                ders = jets.directional_derivatives(model, u, v, 2)
                for order in (1, 2):
                    fd = fd_directional(model, u, v, order)
                    scale = max(1.0, np.linalg.norm(ders[order]))
                    assert np.linalg.norm(ders[order] - fd) / scale < 1e-5


class TestDerivativeAndSeries:
    """``jets.derivative`` in one variable, of a jet and of the Jacobian
    operator, and ``jets.series``, which builds a jet from its coefficients."""

    def test_derivative_of_a_polynomial_is_exact(self):
        got = jets.derivative(jet1([5.0, 3.0, -2.0, 7.0]) * np.array([1.0, 2.0]))
        assert (got.vars, got.orders, got.value_shape) == (("s",), (2,), (2,))
        np.testing.assert_array_equal(got.coeffs, np.outer([1.0, 2.0], [3.0, -4.0, 21.0]))

    def test_derivative_of_the_operator_matches_its_dense_fill(self):
        rng = np.random.default_rng(31)
        op = rng.standard_normal((3, 3)) @ jets.add_diag(
            rng.standard_normal((3, 3)), Jet(("s",), (3,), rng.standard_normal((3, 4))))
        got, want = jets.derivative(op), jets.derivative(dense_jacobian(op))
        assert isinstance(got, jets.MatrixPlusDiag) and got.orders == (2,)
        np.testing.assert_allclose(dense_jacobian(got).coeffs, want.coeffs, rtol=1e-13, atol=1e-13)

    def test_series_round_trips_through_extract(self):
        coeffs = [np.arange(6.0).reshape(2, 3) * j for j in range(4)]
        x = jets.series(coeffs, "s")
        assert (x.vars, x.orders, x.value_shape) == (("s",), (3,), (2, 3))
        for j, c in enumerate(coeffs):
            np.testing.assert_array_equal(x.extract({"s": j}), c)


class TestExtend:
    """A jet's context is extended by ``jets.constant`` of the jet: the new
    variables follow its own, and its coefficients sit at their degree zero."""

    def test_appended_variables_are_zero_padded(self):
        x = Jet(("s",), (2,), np.arange(1.0, 7.0).reshape(2, 3))
        y = jets.constant(x, ("a", "b"), (1, 2))
        assert (y.vars, y.orders, y.coeffs.shape) == (("s", "a", "b"), (2, 1, 2), (2, 3, 2, 3))
        np.testing.assert_array_equal(y.coeffs[..., 0, 0], x.coeffs)
        rest = y.coeffs.copy()
        rest[..., 0, 0] = 0.0
        assert not rest.any()


class TestIntegrate:
    """``jets.integrate``: the antiderivative in one variable, vanishing at 0."""

    def test_antiderivative_of_a_polynomial_is_exact(self):
        # P(s) = sum_j (j + 1) c_j s^j with integer c_j integrates to
        # sum_j c_j s^(j+1), so every coefficient is exact
        c = np.array([3.0, -2.0, 5.0, 7.0])
        s4 = unit(("s",), (4,), "s")
        poly = sum((jets.powi(unit(("s",), (3,), "s"), j) * ((j + 1) * cj) for j, cj in enumerate(c)),
                   constant(0.0, ("s",), (3,)))
        want = sum((jets.powi(s4, j + 1) * cj for j, cj in enumerate(c)), constant(0.0, ("s",), (4,)))
        got = jets.integrate(poly, "s", 4)
        assert (got.vars, got.orders) == (("s",), (4,))
        np.testing.assert_array_equal(got.coeffs, want.coeffs)

    def test_integral_of_exp_is_exp_minus_one(self):
        e = unit(("s",), (5,), "s").exp()
        want = unit(("s",), (6,), "s").exp() - 1.0
        np.testing.assert_allclose(jets.integrate(e, "s", 6).coeffs, want.coeffs, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("order", [3, 2, 0])
    def test_degrees_past_the_truncation_order_are_dropped(self, order):
        x = jet1([1.0, 2.0, 3.0, 4.0])
        got = jets.integrate(x, "s", order)
        want = np.array([0.0, 1.0, 1.0, 1.0, 1.0])[: order + 1]  # c_j / (j + 1) at degree j + 1
        assert got.orders == (order,)
        np.testing.assert_array_equal(got.coeffs, want)

    def test_other_variables_and_value_axes_are_untouched(self):
        rng = np.random.default_rng(12)
        x = Jet(("a", "s", "b"), (2, 3, 1), rng.standard_normal((2, 3, 3, 4, 2)))
        got = jets.integrate(x, "s", 4)
        assert (got.vars, got.orders, got.value_shape) == (("a", "s", "b"), (2, 4, 1), (2, 3))
        np.testing.assert_array_equal(got.extract({"s": 0}).coeffs, np.zeros((2, 3, 3, 2)))
        for j in range(4):
            np.testing.assert_array_equal(got.extract({"s": j + 1}).coeffs,
                                          x.extract({"s": j}).coeffs / (j + 1))

    def test_a_variable_outside_the_context_is_appended(self):
        x = jet1([1.0, 2.0, 3.0]) * np.array([1.0, -1.0])
        got = jets.integrate(x, "w", 2)
        assert (got.vars, got.orders) == (("s", "w"), (2, 2))
        np.testing.assert_array_equal(got.extract({"w": 1}).coeffs, x.coeffs)
        assert not got.extract({"w": 0}).coeffs.any() and not got.extract({"w": 2}).coeffs.any()


class TestAtOrder:
    """``jets.at_order``: the same series at another order in one variable."""

    def test_truncation_and_zero_padding_in_one_variable(self):
        rng = np.random.default_rng(13)
        x = Jet(("a", "s", "b"), (2, 3, 1), rng.standard_normal((2, 3, 3, 4, 2)))
        for order in (0, 2, 3, 6):
            got = jets.at_order(x, "s", order)
            assert (got.vars, got.orders, got.value_shape) == (("a", "s", "b"), (2, order, 1), (2, 3))
            for j in range(order + 1):
                want = x.extract({"s": j}).coeffs if j <= 3 else np.zeros((2, 3, 3, 2))
                np.testing.assert_array_equal(got.extract({"s": j}).coeffs, want)

    def test_padding_then_truncating_returns_the_series(self):
        x = jet1([1.0, -2.0, 3.0]) * np.array([1.0, 0.5])
        back = jets.at_order(jets.at_order(x, "s", 5), "s", 2)
        assert back.orders == (2,)
        np.testing.assert_array_equal(back.coeffs, x.coeffs)


class TestEvalCommutesWithTruncation:
    def test_truncate_after_eval(self):
        model = gallery_map("whitney", {"k": 2, "dimZ": 0}).model
        name = jets.fresh_name("t")
        u = np.array([0.2, -0.4])
        v = np.array([1.0, 0.7])
        x3 = constant(u, (name,), (3,)) + unit((name,), (3,), name) * v
        x1 = constant(u, (name,), (1,)) + unit((name,), (1,), name) * v
        hi = model.eval(x3)
        lo = model.eval(x1)
        np.testing.assert_allclose(hi.coeffs[..., :2], lo.coeffs, atol=1e-14)


class TestDocs:
    def test_readme_names_only_existing_helpers(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        names = set(re.findall(r"`jets\.(\w+)", readme))
        assert names and [n for n in sorted(names) if not hasattr(jets, n)] == []
