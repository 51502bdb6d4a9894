import dataclasses

import numpy as np
import pytest

from helpers import dense_jacobian, record_jet_jacobians, reference_differentiation_matrix
from singclass import jets
from singclass.bvp import (
    PeriodicProblem,
    differentiation_matrix,
    make_periodic_bvp,
    normalized_quartic_pair,
    quartic_analytic_oracle,
    quartic_cross_check,
    running_integral_samples,
)
from singclass.classify import classify_point
from singclass.errors import AliasedCoefficients, ParamOutOfRange
from singclass.fibering import PointFunctionals
from singclass.linalg import Linearization, linearize, rank_decision
from singclass.model import conjugate, random_affine_pair

A_SIN = ((1, 0.0, 1.0),)  # a(t) = sin(2 pi t)
P_ONE = ((0, 1.0, 0.0),)  # p(t) = 1


class TestDifferentiation:
    @pytest.mark.parametrize("N", [16, 31, 64])
    def test_exact_on_resolved_modes(self, N):
        D = differentiation_matrix(N)
        t = np.arange(N) / N
        for k in (1, 2, min(5, N // 2 - 1)):
            u = np.sin(2 * np.pi * k * t)
            du = 2 * np.pi * k * np.cos(2 * np.pi * k * t)
            assert np.max(np.abs(D @ u - du)) < 1e-10 * k * N

    @pytest.mark.parametrize("scheme", ["spectral", "periodic_finite_difference"])
    def test_annihilates_constants(self, scheme):
        D = differentiation_matrix(64, scheme)
        assert np.max(np.abs(D @ np.ones(64))) < 1e-10

    @pytest.mark.parametrize("scheme", ["spectral", "periodic_finite_difference"])
    @pytest.mark.parametrize("N", [32, 33])
    def test_kernel_is_one_dimensional(self, scheme, N):
        lin = Linearization.of_matrix(differentiation_matrix(N, scheme))
        assert lin.kdim == 1
        assert np.std(lin.last_pair[1]) < 1e-12  # the constants direction

    @pytest.mark.parametrize("scheme", ["spectral", "periodic_finite_difference"])
    @pytest.mark.parametrize("N", [16, 17, 32, 33, 64, 128, 256, 512, 1024])
    def test_matches_entrywise_reference(self, scheme, N):
        assert np.array_equal(differentiation_matrix(N, scheme),
                              reference_differentiation_matrix(N, scheme))

    def test_fd_first_order_accuracy(self):
        N = 128
        D = differentiation_matrix(N, "periodic_finite_difference")
        t = np.arange(N) / N
        u = np.sin(2 * np.pi * t)
        err = np.max(np.abs(D @ u - 2 * np.pi * np.cos(2 * np.pi * t)))
        assert err < 0.05  # second-order centered stencil at this resolution


class TestModelConstruction:
    def test_rejects_small_grid(self):
        with pytest.raises(ParamOutOfRange):
            make_periodic_bvp(PeriodicProblem(N=8, a_terms=A_SIN))

    def test_rejects_aliased_coefficients(self):
        with pytest.raises(AliasedCoefficients):
            make_periodic_bvp(PeriodicProblem(N=16, a_terms=((8, 1.0, 0.0),)))

    def test_zero_is_a_root_and_simple(self):
        model = make_periodic_bvp(PeriodicProblem(N=64, a_terms=A_SIN, p_terms=P_ONE))
        np.testing.assert_allclose(model(np.zeros(64)), 0.0, atol=1e-13)
        assert linearize(model, np.zeros(64)).kdim == 1

    def test_kernel_is_constants_direction(self):
        model = make_periodic_bvp(PeriodicProblem(N=64, a_terms=A_SIN))
        lin = linearize(model, np.zeros(64))
        assert lin.kdim == 1 and np.std(lin.last_pair[1]) < 1e-12

    def test_pure_derivative_model(self):
        # zero coefficient function: F(u) = u', kernel the constants everywhere
        model = make_periodic_bvp(
            PeriodicProblem(N=32, a_terms=((0, 0.0, 0.0),), g_kind="poly", g_coeffs=(0.0, 1.0))
        )
        for u in (np.zeros(32), 0.3 * np.sin(2 * np.pi * np.arange(32) / 32)):
            assert linearize(model, u).kdim == 1

    def test_exp_nonlinearity_evaluates(self):
        model = make_periodic_bvp(
            PeriodicProblem(N=32, a_terms=A_SIN, g_kind="exp", g_beta=0.5)
        )
        t = np.arange(32) / 32
        u = 0.1 * np.cos(2 * np.pi * t)
        expect = differentiation_matrix(32) @ u + np.sin(2 * np.pi * t) * (np.exp(0.5 * u) - 1)
        np.testing.assert_allclose(model(u), expect, atol=1e-12)


G_KINDS = {
    "quartic": {"p_terms": ((0, 1.0, 0.0), (2, 0.3, -0.4))},
    "poly": {"g_coeffs": (0.2, -1.0, 0.5, 2.0, -0.7)},
    "exp": {"g_beta": 0.8},
}


def _max_rel_diff(got, want) -> float:
    if isinstance(want, jets.Jet):
        assert isinstance(got, jets.Jet) and (got.vars, got.orders) == (want.vars, want.orders)
        got, want = got.coeffs, want.coeffs
    assert got.shape == want.shape
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestStructuredJacobian:
    """The periodic problem's own Jacobian, plain, conjugated or conjugated
    twice, against the probe Jacobian of the same map; at a jet point it is a
    ``MatrixPlusDiag``, compared through the dense fill of ``helpers``."""

    @staticmethod
    def points(N, rng):
        names = (jets.fresh_name("a"), jets.fresh_name("b"))
        orders = (2, 1)
        x = jets.constant(0.3 * rng.standard_normal((3, N)), names, orders)
        x = x + jets.unit(names, orders, names[0]) * rng.standard_normal((3, N))
        x = x + jets.unit(names, orders, names[1]) * rng.standard_normal(N)
        return 0.3 * rng.standard_normal(N), x

    @pytest.mark.parametrize("scheme", ["spectral", "periodic_finite_difference"])
    @pytest.mark.parametrize("N", [16, 21])
    @pytest.mark.parametrize("kind", sorted(G_KINDS))
    def test_matches_probe_jacobian(self, kind, N, scheme):
        rng = np.random.default_rng(N)
        problem = PeriodicProblem(N=N, a_terms=((0, 0.4, 0.0),) + A_SIN, g_kind=kind,
                                  scheme=scheme, **G_KINDS[kind])
        model = make_periodic_bvp(problem)
        assert model.jac is not None
        once = conjugate(model, random_affine_pair(N, rng))
        for m in (model, once, conjugate(once, random_affine_pair(N, rng))):
            probe = dataclasses.replace(m, jac=None)
            for x in self.points(N, rng):
                got = jets.jacobian(m, x)
                if isinstance(x, jets.Jet):
                    assert isinstance(got, jets.MatrixPlusDiag)
                    got = dense_jacobian(got)
                want = jets.jacobian(probe, x)
                assert _max_rel_diff(got, want) <= 1e-13

    def test_conjugate_keeps_probe_fallback(self):
        model = make_periodic_bvp(PeriodicProblem(N=16, a_terms=A_SIN))
        probe = dataclasses.replace(model, jac=None)
        moved = conjugate(probe, random_affine_pair(16, np.random.default_rng(0)))
        assert moved.jac is None

    @pytest.mark.parametrize("p", [0.0, 1.0])
    @pytest.mark.parametrize("N", [32, 48])
    def test_classification_unchanged_without_jac(self, N, p):
        model = make_periodic_bvp(PeriodicProblem(N=N, a_terms=A_SIN, p_terms=((0, p, 0.0),)))
        fast = classify_point(model, np.zeros(N), route="both")
        slow = classify_point(dataclasses.replace(model, jac=None), np.zeros(N), route="both")
        assert fast.describe() == slow.describe()
        assert fast.evidence.route_agreement and slow.evidence.route_agreement
        for a, b in zip(fast.evidence.routes, slow.evidence.routes):
            assert a.route == b.route and len(a.J_values) == len(b.J_values)
            for ja, jb in zip(a.J_values, b.J_values):
                assert ja == pytest.approx(jb, rel=1e-12, abs=1e-12)
            if p:
                assert a.J_values[3] == pytest.approx(24.0 * N**-1.5, rel=1e-9)


    def test_jet_points_form_no_dense_jacobian(self, monkeypatch):
        """Every jet-point Jacobian of the plain and of a conjugated problem,
        on both routes, is the operator."""
        kinds = record_jet_jacobians(monkeypatch)
        model = make_periodic_bvp(PeriodicProblem(N=64, a_terms=A_SIN, p_terms=P_ONE))
        affine = random_affine_pair(64, np.random.default_rng(5))
        for m, u in ((model, np.zeros(64)), (conjugate(model, affine), affine.gamma_shift)):
            kinds.clear()
            c = classify_point(m, u, route="both")
            assert c.describe() == "KSingularity(3)" and c.evidence.route_agreement
            assert kinds and set(kinds) == {jets.MatrixPlusDiag}


class TestAnalyticOracle:
    def test_j3_values(self):
        assert quartic_analytic_oracle(A_SIN, P_ONE, 64).J3_value == pytest.approx(24.0, abs=1e-12)
        assert quartic_analytic_oracle(A_SIN, (), 64).J3_value == pytest.approx(0.0, abs=1e-12)

    def test_rows_match_symbolic_antiderivative(self):
        quadN = 128
        t = np.arange(quadN) / quadN
        oracle = quartic_analytic_oracle(A_SIN, (), quadN)
        A = (1.0 - np.cos(2 * np.pi * t)) / np.pi
        np.testing.assert_allclose(oracle.I2_row, -A * 2 * np.sin(2 * np.pi * t) / quadN, atol=1e-14)
        assert rank_decision(np.vstack([oracle.I1_row, oracle.I2_row])).rank == 2

    def test_running_integral_formula(self):
        t = np.linspace(0, 1, 9)
        got = running_integral_samples(A_SIN, t)
        np.testing.assert_allclose(got, (1 - np.cos(2 * np.pi * t)) / np.pi, atol=1e-14)

    def test_requires_zero_mean(self):
        with pytest.raises(ParamOutOfRange):
            quartic_analytic_oracle(((0, 1.0, 0.0),), (), 64)


class TestQuarticProblem:
    def test_normalized_pair_is_constant_one(self):
        model = make_periodic_bvp(PeriodicProblem(N=64, a_terms=A_SIN))
        pair = normalized_quartic_pair(model)
        pf = PointFunctionals(model, pair, np.zeros(64))
        np.testing.assert_allclose(pf.phi0, np.ones(64), atol=1e-10)
        np.testing.assert_allclose(pf.psi0, np.ones(64) / 64, atol=1e-12)

    def test_degenerate_case_is_maximal_two_transverse(self):
        model = make_periodic_bvp(PeriodicProblem(N=64, a_terms=A_SIN))
        c = classify_point(model, np.zeros(64), route="both")
        assert (c.kind, c.k) == ("MaximalKTransverse", 2)
        assert c.evidence.route_agreement

    def test_quartic_term_gives_order_three_singularity(self):
        model = make_periodic_bvp(PeriodicProblem(N=64, a_terms=A_SIN, p_terms=P_ONE))
        c = classify_point(model, np.zeros(64), route="both")
        assert (c.kind, c.k) == ("KSingularity", 3)
        assert c.evidence.route_agreement

    def test_cross_check_against_oracle(self):
        res = quartic_cross_check(A_SIN, P_ONE, N=64)
        assert res["I1_cosine"] >= 1 - 1e-6
        assert res["I2_cosine"] >= 1 - 1e-6
        assert res["J3_numeric"] == pytest.approx(24.0, abs=1e-4)

    def test_cross_check_follows_scheme(self):
        fd = "periodic_finite_difference"
        model = make_periodic_bvp(PeriodicProblem(N=32, a_terms=A_SIN, p_terms=P_ONE, scheme=fd))
        pf = PointFunctionals(model, normalized_quartic_pair(model), np.zeros(32))
        rows = np.vstack([pf.row(1), pf.row(2), pf.row(3)])
        res = quartic_cross_check(A_SIN, P_ONE, N=32, scheme=fd)
        assert res["J"] == [pf.J(k) for k in range(4)]
        assert res["stack_singular_values"] == list(rank_decision(rows).singular_values)
        spectral = quartic_cross_check(A_SIN, P_ONE, N=32)
        assert res["I2_scalar"] != pytest.approx(spectral["I2_scalar"], rel=1e-3)
        assert res["stack_singular_values"] != spectral["stack_singular_values"]

    def test_cross_check_takes_two_plain_jacobians(self, monkeypatch):
        """``normalized_quartic_pair`` linearizes u = 0 once for the pair and its
        scale; the cross check's own functionals take the second Jacobian."""
        plain, jacobian = [], jets.jacobian

        def counting_jacobian(m, x):
            if not isinstance(x, jets.Jet):
                plain.append(x)
            return jacobian(m, x)

        monkeypatch.setattr(jets, "jacobian", counting_jacobian)
        quartic_cross_check(A_SIN, P_ONE, N=32)
        assert len(plain) == 2

    def test_row_dependence_in_degenerate_case(self):
        res = quartic_cross_check(A_SIN, (), N=64)
        assert res["sigma3_over_sigma1"] < 1e-6
        assert abs(res["J3_numeric"]) < 1e-10

    def test_rank_two_of_first_rows_on_grid(self):
        # discrete counterpart of the independence of the first two rows
        model = make_periodic_bvp(PeriodicProblem(N=64, a_terms=A_SIN))
        pair = normalized_quartic_pair(model)
        pf = PointFunctionals(model, pair, np.zeros(64))
        stack = np.vstack([pf.row(1), pf.row(2), pf.row(3)])
        assert rank_decision(stack).rank == 2


class TestLargeGridLsRoute:
    """The ls route at N = 1024, where each row is one adjoint solve."""

    N = 1024

    def classify(self, p):
        model = make_periodic_bvp(PeriodicProblem(N=self.N, a_terms=A_SIN, p_terms=((0, p, 0.0),)))
        return classify_point(model, np.zeros(self.N), route="ls")

    def test_degenerate_case_is_maximal_two_transverse(self):
        c = self.classify(0.0)
        assert (c.kind, c.k) == ("MaximalKTransverse", 2)

    def test_j3_matches_closed_form(self):
        ev = self.classify(1.0).evidence.routes[0]
        assert ev.J_values[3] == pytest.approx(24.0 * self.N**-1.5, rel=1e-9)


@pytest.mark.parametrize("N, p, route, verdict", [
    (64, 0.05, "ls", "KSingularity(3)"),
    (128, 0.05, "ls", "KSingularity(3)"),
    (256, 0.05, "ls", "KSingularity(3)"),
    (512, 1.0, "ls", "KSingularity(3)"),
    (1024, 1.0, "ls", "KSingularity(3)"),
    (1024, 0.0, "ls", "MaximalKTransverse(2)"),
    (128, 0.05, "both", "KSingularity(3)"),
])
def test_verdict_does_not_move_with_the_grid(N, p, route, verdict):
    """With the unit-norm pair J_3 = 24 mean(p) N^-1.5, which falls between
    tol_zero and tol_nonzero at several N; judged as a cosine of its row, it
    gives the same verdict at every N."""
    model = make_periodic_bvp(PeriodicProblem(N=N, a_terms=A_SIN, p_terms=((0, p, 0.0),)))
    c = classify_point(model, np.zeros(N), k_cap=4, route=route)
    assert c.describe() == verdict
    if p:
        for ev in c.evidence.routes:
            assert ev.J_values[3] == pytest.approx(24.0 * p * N**-1.5, rel=1e-9)


class TestLargeGridFiberingRoute:
    """Both routes at N = 256, where the fibering route batches all N probe
    directions against the diagonal jet of F'(x)."""

    N = 256

    def test_j3_matches_closed_form(self):
        model = make_periodic_bvp(PeriodicProblem(N=self.N, a_terms=A_SIN, p_terms=P_ONE))
        c = classify_point(model, np.zeros(self.N), route="both")
        assert c.describe() == "KSingularity(3)" and c.evidence.route_agreement
        assert [ev.route for ev in c.evidence.routes] == ["fibering", "ls"]
        for ev in c.evidence.routes:
            assert ev.J_values[3] == pytest.approx(24.0 * self.N**-1.5, rel=1e-9)
