import math

import numpy as np
import pytest

from singclass import jets
from singclass.bvp import PeriodicProblem, make_periodic_bvp
from singclass.classify import classify_point
from singclass.errors import NotSimple
from singclass.gallery import gallery_map
from singclass.lsreduce import local_representation
from singclass.model import conjugate, random_affine_pair


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
