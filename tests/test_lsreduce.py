import math

import numpy as np
import pytest

from singclass import jets, linalg
from singclass.bvp import PeriodicProblem, make_periodic_bvp
from singclass.classify import classify_point
from singclass.errors import NotSimple, OrderExceedsSmoothness
from singclass.gallery import gallery_map
from singclass.lsreduce import LSModel, local_representation
from singclass.model import MapModel, conjugate, random_affine_pair


def gradient_norm(ls):
    gt = ls.f_partial_t(1)
    if ls.n == 1:
        return abs(gt)
    mixed = ls.f_jet(1, tuple(range(ls.n - 1)))
    tname, zname = mixed.vars
    gz = np.asarray(mixed.extract({tname: 0, zname: 1}))
    return float(np.hypot(abs(gt), np.linalg.norm(gz)))


class TestConstruction:
    def test_regular_point_rejected(self):
        fold = gallery_map("fold_t2").model
        with pytest.raises(NotSimple):
            local_representation(fold, [1.0, 0.0])

    def test_projectors_idempotent(self):
        model = gallery_map("whitney", {"k": 2, "dimZ": 1}).model
        ls = local_representation(model, np.zeros(3))
        (w, c), Q = ls.lin.last_pair, ls.z_rows[1:].T
        p, pi = np.outer(c, c), Q @ Q.T
        np.testing.assert_allclose(p @ p, p, atol=1e-10)
        np.testing.assert_allclose(pi @ pi, pi, atol=1e-10)
        # Q spans the complement of the cokernel line w
        np.testing.assert_allclose(pi, np.eye(3) - np.outer(w, w), atol=1e-12)

    def test_condition_read_off_jacobian_singular_values(self):
        for name, params, n in [
            ("fold_t2", {}, 2),
            ("whitney", {"k": 3, "dimZ": 1}, 4),
            ("eps_perturbed", {"eps": 0.1}, 2),
        ]:
            model = gallery_map(name, params).model
            ls = local_representation(model, np.zeros(n))
            A = jets.jacobian(model, np.zeros(n))
            alpha_prime = np.vstack([ls.lin.last_pair[1], ls.z_rows[1:] @ A])
            assert ls.cond_alpha == pytest.approx(np.linalg.cond(alpha_prime), rel=1e-12)

    def test_base_value_and_gradient_vanish(self):
        for name, params, n in [
            ("fold_t2", {}, 2),
            ("whitney", {"k": 3, "dimZ": 1}, 4),
            ("family_kn", {"k": 2, "n": 0}, 4),
            ("eps_perturbed", {"eps": 0.1}, 2),
        ]:
            model = gallery_map(name, params).model
            ls = local_representation(model, np.zeros(n))
            assert abs(ls.f_partial_t(0)) < 1e-9
            assert gradient_norm(ls) < 1e-9

    def test_alpha_inverse_consistency(self):
        """alpha(alpha^{-1}(y)) = y through third order."""
        from singclass import jets

        model = gallery_map("whitney", {"k": 2, "dimZ": 0}).model
        ls = local_representation(model, np.zeros(2))
        j = ls.f_jet(3, (0,))
        # re-evaluate alpha on the cached inverse by rebuilding y and x
        tname = jets.fresh_name("t")
        zname = jets.fresh_name("z")
        names, orders = (tname, zname), (3, 1)
        y = jets.constant(np.zeros(2), names, orders)
        y = y + jets.unit(names, orders, tname) * np.array([1.0, 0.0])
        y = y + jets.unit(names, orders, zname) * np.array([0.0, 1.0])
        x = ls.alpha_inverse_jet(y)
        back = ls.alpha(x)
        np.testing.assert_allclose(back.coeffs, y.coeffs, atol=1e-10)


class TestReducedScalar:
    def test_fold_second_t_derivative(self):
        fold = gallery_map("fold_t2").model
        ls = local_representation(fold, np.zeros(2))
        assert abs(ls.f_partial_t(2)) == pytest.approx(2.0, rel=1e-9)
        np.testing.assert_allclose(ls.row(1)[1:], 0.0, atol=1e-10)

    def test_whitney3_derivative_pattern(self):
        model = gallery_map("whitney", {"k": 3, "dimZ": 0}).model
        ls = local_representation(model, np.zeros(3))
        for order in (1, 2, 3):
            assert abs(ls.f_partial_t(order)) < 1e-9
        assert abs(ls.f_partial_t(4)) > 1.0

    def test_reduction_of_reduced_map_reproduces_pattern(self):
        """Reducing a map already in reduced shape changes coefficients only
        by fixed unit-size sign factors; the zero/nonzero pattern is exact."""
        model = gallery_map("whitney", {"k": 3, "dimZ": 0}).model
        ls = local_representation(model, np.zeros(3))
        j = ls.f_jet(4, (0, 1))
        tname, zname = j.vars
        # direct expansion of the head t^4 + z0 t + z1 t^2
        cases = {
            (4, None): 24.0,   # d^4 f / dt^4
            (1, 0): 1.0,       # d^2 f / dt dz0
            (2, 1): 2.0,       # d^3 f / dt^2 dz1   (value 2! = 2)
            (2, 0): 0.0,
            (1, 1): 0.0,
            (3, 0): 0.0,
            (3, 1): 0.0,
        }
        import math

        for (torder, zdir), expect in cases.items():
            if zdir is None:
                got = ls.f_partial_t(torder)
            else:
                arr = np.asarray(j.extract({tname: torder, zname: 1}))
                got = float(arr[zdir]) * math.factorial(torder)
            assert abs(abs(got) - abs(expect)) < 1e-8
        # sign consistency: one scalar per coordinate relates all coefficients
        s_tau, s_t = (np.sign(v[0]) for v in ls.lin.last_pair)
        got = ls.f_partial_t(4)
        assert np.sign(got) == np.sign(24.0 * s_t**4 * s_tau)


class TestCanonicalFunctionals:
    def test_fold_canonical_values(self):
        fold = gallery_map("fold_t2").model
        ls = local_representation(fold, np.zeros(2))
        assert ls.J(0) == pytest.approx(0.0, abs=1e-10)
        assert abs(ls.J(1)) == pytest.approx(2.0, rel=1e-9)

    def test_unfolding_rows_are_scaled_basis_vectors(self):
        import math

        # head t^5 + z1 t + z2 t^2: mixed block rows are eta! * e_eta
        model = gallery_map("family_kn", {"k": 2, "n": 5, "dimZ": 0}).model
        ls = local_representation(model, np.zeros(3))
        assert max(abs(ls.J(k)) for k in range(4)) < 1e-9
        for eta in (1, 2):
            target = np.zeros(3)
            target[eta] = math.factorial(eta)
            np.testing.assert_allclose(np.abs(ls.row(eta)), target, atol=1e-9)

    def test_simple_unfolding_first_row(self):
        model = gallery_map("transverse_k", {"k": 1}).model
        ls = local_representation(model, np.zeros(2))
        np.testing.assert_allclose(np.abs(ls.row(1)), [0.0, 1.0], atol=1e-10)


def _conjugated_gallery_map():
    model = gallery_map("family_kn", {"k": 2, "n": 3}).model
    pair = random_affine_pair(model.n, np.random.default_rng(11))
    return conjugate(model, pair), pair.apply_gamma(np.zeros(model.n))


def _quartic_bvp():
    problem = PeriodicProblem(N=64, a_terms=((1, 0.0, 1.0),), p_terms=((0, 1.0, 0.0),))
    return make_periodic_bvp(problem), np.zeros(64)


ADJOINT_ROW_MAPS = {
    "whitney": lambda: (gallery_map("whitney", {"k": 3, "dimZ": 2}).model, np.zeros(5)),
    "family_kn": lambda: (gallery_map("family_kn", {"k": 2, "n": 5}).model, np.zeros(4)),
    "l2_truncated": lambda: (gallery_map("l2_truncated", {"N": 4}).model, np.zeros(5)),
    "conjugated": _conjugated_gallery_map,
    "quartic_bvp": _quartic_bvp,
}


@pytest.mark.parametrize("name", sorted(ADJOINT_ROW_MAPS))
def test_adjoint_rows_match_batched_z_directions(name):
    """row(k)'s z-part comes from one adjoint solve; the oracle pushes every
    z direction through the inverse jet of alpha at once."""
    model, u0 = ADJOINT_ROW_MAPS[name]()
    ls = local_representation(model, u0)
    for k in (1, 2, 3):
        row = ls.row(k)
        batched = ls.f_jet(k, tuple(range(ls.n - 1)))
        tname, zname = batched.vars
        want = np.asarray(batched.extract({tname: k, zname: 1})) * math.factorial(k)
        assert np.max(np.abs(row[1:] - want)) <= 1e-12 * np.max(np.abs(row))


class TestConditions:
    """Order-k conditions of the reduced scalar, decided on the ls route alone."""

    def test_maximal_two_transverse(self):
        model = gallery_map("family_kn", {"k": 2, "n": 0, "dimZ": 0}).model
        c = classify_point(model, np.zeros(3), route="ls")
        assert (c.kind, c.k, c.transversality_order) == ("MaximalKTransverse", 2, 2)
        ev = c.evidence.routes[0]
        assert ev.singular_values[2][-1] > 0.5  # I_1, I_2 independent
        assert ev.singular_values[3][-1] < 1e-9  # I_3 dependent

    def test_fold_is_order_one_singularity(self):
        model = gallery_map("family_kn", {"k": 0, "n": 2, "dimZ": 1}).model
        c = classify_point(model, np.zeros(2), route="ls")
        assert (c.kind, c.k) == ("KSingularity", 1)

    def test_cubic_head_fails_transversality(self):
        model = gallery_map("family_kn", {"k": 0, "n": 3, "dimZ": 1}).model
        c = classify_point(model, np.zeros(2), route="ls")
        assert c.kind == "NotOneTransverse" and c.transversality_order == 0


class TestRouteAgreement:
    def test_reduced_and_pair_routes_agree_on_sample(self):
        from singclass.classify import classify_point

        cases = [
            ("fold_t2", {}, 2),
            ("cusp_source_t3", {}, 2),
            ("whitney", {"k": 4, "dimZ": 0}, 4),
            ("family_kn", {"k": 3, "n": 0}, 5),
            ("l2_truncated", {"N": 2}, 3),
        ]
        for name, params, n in cases:
            model = gallery_map(name, params).model
            c = classify_point(model, np.zeros(n), route="both")
            assert c.evidence.route_agreement in (True, None)
            assert c.kind != "Indeterminate"


def test_ill_conditioned_linearization_rejected():
    # tiny-but-countable second singular value: the kernel is unambiguous at
    # the loosened rank tolerance, yet the coordinate change is unusable
    from singclass import jets
    from singclass.errors import IllConditioned
    from singclass.model import SMOOTH, MapModel

    def ev(x):
        t = jets.comp(x, 0)
        return jets.stack([jets.powi(t, 2), jets.comp(x, 1) * 1e-10, jets.comp(x, 2)])

    squeezed = MapModel(3, SMOOTH, ev, "squeezed")
    with pytest.raises(IllConditioned):
        local_representation(squeezed, np.zeros(3), tol=1e-12)


def _whitney(k: int, dimz: int):
    return gallery_map("whitney", {"k": k, "dimZ": dimz}).model, np.zeros(k + dimz)


def _conjugated_whitney():
    model = gallery_map("whitney", {"k": 3, "dimZ": 0}).model
    pair = random_affine_pair(model.n, np.random.default_rng(5))
    return conjugate(model, pair), pair.apply_gamma(np.zeros(model.n))


def _quartic(p: float):
    problem = PeriodicProblem(N=32, a_terms=((1, 0.0, 1.0),), p_terms=((0, p, 0.0),))
    return make_periodic_bvp(problem), np.zeros(32)


SERIES_MAPS = {
    **{f"whitney_k{k}_dimZ{d}": (lambda k=k, d=d: _whitney(k, d)) for k in range(1, 6) for d in (0, 2)},
    "whitney_k3_conjugated": _conjugated_whitney,
    "quartic_p0": lambda: _quartic(0.0),
    "quartic_p1": lambda: _quartic(1.0),
}


def _inverse_from_scratch(ls, order: int):
    """x(t) = alpha^{-1}(t e_0) by ``sum(orders)`` passes from the constant u0."""
    t = jets.fresh_name("t")
    return ls.alpha_inverse_jet(jets.unit((t,), (order,), t) * np.eye(1, ls.n)[0])


def _adjoint_from_scratch(ls, x):
    """row's adjoint lam(t) along x(t), solved without a start."""
    Fp = jets.jacobian(ls.model, x)
    rhs = jets.matvec(jets.transpose_mat(Fp), ls.lin.last_pair[0])
    N, Z = jets.transpose_mat(Fp.nilpotent()), ls.z_rows.T
    return linalg.solve_passes(ls.alpha_lu, rhs, lambda L: jets.matvec(N, jets.matvec(Z, L)), trans=1)


def _assert_same_series(grown, oracle, order: int, per_degree: bool = True):
    """Every coefficient agrees to 1e-13 of its degree's largest coefficient
    or, for f(x(t)), whose low degrees vanish in exact arithmetic and carry
    rounding noise, to 1e-13 of max(1, the series' largest coefficient)."""
    (g,), (o,) = grown.vars, oracle.vars
    assert grown.orders == oracle.orders == (order,)
    got = [np.atleast_1d(grown.extract({g: deg})) for deg in range(order + 1)]
    want = [np.atleast_1d(oracle.extract({o: deg})) for deg in range(order + 1)]
    top = max(1.0, *(np.max(np.abs(b)) for b in want))
    for deg, (a, b) in enumerate(zip(got, want)):
        ref = np.max(np.abs(b)) if per_degree else top
        assert np.max(np.abs(a - b)) <= 1e-13 * ref, (deg, a, b)


class TestSeriesGrowth:
    """The t-only series of ``LSModel`` grow one degree per pass from the
    previous order's solution; the oracle solves each order from scratch."""

    @pytest.mark.parametrize("name", sorted(SERIES_MAPS))
    def test_grown_series_equal_the_from_scratch_solves(self, name):
        model, u0 = SERIES_MAPS[name]()
        ls = local_representation(model, u0)
        for order in range(1, 7):
            x, f = ls._inverse(order)
            want = _inverse_from_scratch(ls, order)
            _assert_same_series(x, want, order)
            _assert_same_series(f, ls.f_value(want), order, per_degree=False)
            if ls.n > 1:
                ls.row(order)
                _assert_same_series(ls._lam, _adjoint_from_scratch(ls, want), order)

    @pytest.mark.parametrize("name", ["whitney_k1_dimZ0", "whitney_k2_dimZ2", "whitney_k3_conjugated",
                                      "quartic_p1"])
    def test_a_lower_order_read_late_equals_a_fresh_model(self, name):
        model, u0 = SERIES_MAPS[name]()
        ls = local_representation(model, u0)
        ls.J(3)
        late_j1 = ls.J(1)
        ls.f_partial_t(4)
        late_f2 = ls.f_partial_t(2)
        ls.row(4)
        late_row2 = ls.row(2)
        fresh = [local_representation(model, u0) for _ in range(3)]
        assert late_j1 == pytest.approx(fresh[0].J(1), rel=1e-12, abs=1e-13)
        assert late_f2 == pytest.approx(fresh[1].f_partial_t(2), rel=1e-12, abs=1e-13)
        np.testing.assert_allclose(late_row2, fresh[2].row(2), rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_passes_grow_linearly_with_the_order(self, k, monkeypatch):
        """Whitney k at 0 decides at J_k, order k+1 in t: one alpha pass per
        degree, and the adjoint solve of the rows one pass per new degree
        (the parent solved every order afresh: (k+1)(k+2)/2 alpha passes)."""
        counts = {"alpha": 0, "lu_solve_jet": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(LSModel, "alpha", counting("alpha", LSModel.alpha))
        monkeypatch.setattr(linalg, "lu_solve_jet", counting("lu_solve_jet", linalg.lu_solve_jet))
        model, u0 = _whitney(k, 0)
        c = classify_point(model, u0, route="ls")
        assert (c.kind, c.k) == ("KSingularity", k)
        assert counts["alpha"] <= k + 2
        assert counts["lu_solve_jet"] <= 2 * (k + 2)


def test_growth_evaluates_no_order_beyond_the_smoothness():
    """A model of smoothness 4 whose eval raises on any jet of higher total
    order still classifies as the map it wraps, whitney k=3, on route ls."""
    inner = gallery_map("whitney", {"k": 3, "dimZ": 0}).model
    seen = []

    def guarded(x):
        if isinstance(x, jets.Jet):
            seen.append(sum(x.orders))
            if seen[-1] > 4:
                raise AssertionError(f"evaluated a jet of order {seen[-1]}")
        return inner.eval(x)

    model = MapModel(inner.n, 4, guarded, "whitney-d4")
    c = classify_point(model, np.zeros(3), route="ls")
    assert (c.kind, c.k) == ("KSingularity", 3)
    assert max(seen) == 4
    ls = local_representation(model, np.zeros(3))
    ls.f_jet(4)
    with pytest.raises(OrderExceedsSmoothness):
        ls.f_jet(5)
    with pytest.raises(OrderExceedsSmoothness):
        ls.f_jet(4, (0,))
    assert max(seen) == 4
