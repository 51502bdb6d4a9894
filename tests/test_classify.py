import math

import numpy as np
import pytest

from singclass import jets
from singclass.classify import (
    INDETERMINATE,
    K_SINGULARITY,
    MAXIMAL_K_TRANSVERSE,
    NON_SIMPLE,
    NOT_ONE_TRANSVERSE,
    REGULAR,
    TRANSVERSE_UP_TO_CAP,
    Tolerances,
    classify_point,
)
from singclass.errors import OrderExceedsSmoothness
from singclass.fibering import ExplicitPair
from singclass.gallery import gallery_map
from singclass.model import SMOOTH, MapModel, conjugate, random_affine_pair


class TestKinds:
    def test_regular(self):
        c = classify_point(gallery_map("fold_t2").model, [1.0, 0.0])
        assert c.kind == REGULAR and c.transversality_order == 0
        assert c.describe() == "Regular"

    def test_non_simple_refused(self):
        def ev(x):
            return jets.stack([jets.powi(jets.comp(x, 0), 2), jets.powi(jets.comp(x, 1), 2)])

        dd = MapModel(2, SMOOTH, ev, "dd")
        c = classify_point(dd, [0.0, 0.0])
        assert c.kind == NON_SIMPLE and c.kdim == 2
        assert c.describe() == "NonSimpleKernel(2)"
        assert not c.evidence.routes  # no functional analysis attempted

    def test_whitney4_is_order_four(self):
        model = gallery_map("whitney", {"k": 4, "dimZ": 0}).model
        c = classify_point(model, np.zeros(4), k_cap=6)
        assert (c.kind, c.k) == (K_SINGULARITY, 4)
        assert c.transversality_order == 4
        assert c.describe() == "KSingularity(4)"

    def test_family_maximal_three(self):
        model = gallery_map("family_kn", {"k": 3, "n": 0, "dimZ": 0}).model
        c = classify_point(model, np.zeros(4))
        assert (c.kind, c.k) == (MAXIMAL_K_TRANSVERSE, 3)
        assert c.transversality_order == 3
        assert c.describe() == "MaximalKTransverse(3)"

    def test_cubic_head_not_one_transverse(self):
        c = classify_point(gallery_map("cusp_source_t3").model, np.zeros(2))
        assert c.kind == NOT_ONE_TRANSVERSE and c.transversality_order == 0
        assert c.describe() == "NotOneTransverse"

    def test_cap_reached(self):
        model = gallery_map("l2_truncated", {"N": 4}).model
        c = classify_point(model, np.zeros(5), k_cap=3)
        assert (c.kind, c.k) == (TRANSVERSE_UP_TO_CAP, 3)
        assert c.transversality_order == 3
        assert c.describe() == "TransverseUpToCap(3)"

    def test_k_cap_validation(self):
        with pytest.raises(ValueError):
            classify_point(gallery_map("fold_t2").model, [0.0, 0.0], k_cap=0)


ROW_NINE_FIXTURES = [  # the gallery points whose listed verdict reads row I_9
    *[("family_kn", {"k": 8, "n": n}) for n in (0, 10, 11, 12)],
    ("transverse_k", {"k": 8}),
    ("l2_truncated", {"N": 8}),
]


class TestRowsPastEight:
    """Only the map's smoothness bounds the rows and k_cap: a listed verdict
    at k = 8 reads I_9, and both routes reach it with k_cap = k + 1."""

    @pytest.mark.parametrize("dimz", [0, 1])
    @pytest.mark.parametrize("name, params", ROW_NINE_FIXTURES)
    def test_listed_verdict_is_reached(self, name, params, dimz):
        entry = gallery_map(name, {**params, "dimZ": dimz})
        for exp in entry.expected:
            for point in exp.points:
                c = classify_point(entry.model, point, k_cap=exp.k + 1, route="both")
                assert (c.kind, c.k) == (exp.kind, exp.k)
                assert c.evidence.route_agreement is True

    def test_j9_closed_form(self):
        # head t^10 + sum_{h<=8} x_h t^h: J_9 = d^10 f / dt^10 = 10! on both routes
        model = gallery_map("family_kn", {"k": 8, "n": 10}).model
        c = classify_point(model, np.zeros(model.n), k_cap=9, route="both")
        assert (c.kind, c.k) == (K_SINGULARITY, 9)
        assert [ev.route for ev in c.evidence.routes] == ["fibering", "ls"]
        for ev in c.evidence.routes:
            assert ev.J_values[9] == pytest.approx(math.factorial(10), rel=1e-9)


class TestHysteresis:
    def test_borderline_fold_is_flagged(self):
        """A barely-perturbed degenerate fold lands inside the zero/nonzero
        band and must be reported Indeterminate, not guessed."""
        model = gallery_map("eps_perturbed", {"eps": 5e-5}).model
        c = classify_point(model, [0.0, 0.0], route="fibering")
        assert c.kind == INDETERMINATE
        assert c.stage == "J_1"

    def test_band_boundaries_follow_tolerances(self):
        model = gallery_map("eps_perturbed", {"eps": 5e-5}).model
        wide = Tolerances(zero=1e-3, nonzero=1e-2)  # 5e-5 now counts as zero
        c = classify_point(model, [0.0, 0.0], tol=wide, route="fibering")
        assert c.kind == MAXIMAL_K_TRANSVERSE
        tight = Tolerances(zero=1e-8, nonzero=1e-6)  # now decisively nonzero
        c = classify_point(model, [0.0, 0.0], tol=tight, route="fibering")
        assert (c.kind, c.k) == (K_SINGULARITY, 1)

    def test_tolerances_validated(self):
        with pytest.raises(ValueError):
            Tolerances(zero=1e-3, nonzero=1e-3)

    @pytest.mark.parametrize("field, value", [("rank", 2.0), ("zero", 1.0), ("nonzero", 1.5),
                                              ("nonzero", float("inf"))])
    def test_tolerance_of_one_or_more_rejected(self, field, value):
        # under the max(1, .) floor such a tolerance makes every value negligible
        with pytest.raises(ValueError, match="below 1"):
            Tolerances(**{field: value})

    @pytest.mark.parametrize("field", ["rank", "zero", "nonzero"])
    def test_nan_tolerance_rejected(self, field):
        # NaN passes no comparison, so every value would be judged not negligible
        with pytest.raises(ValueError, match="must be positive"):
            Tolerances(**{field: float("nan")})

    def test_zero_states_judge_against_the_largest_value(self):
        tol = Tolerances(zero=1e-6, nonzero=1e-3)
        assert tol.zero_states([]) == []
        assert tol.zero_states([1e-7, 1e-5, 1e-2]) == ["zero", "band", "nonzero"]
        # against a largest |value| of 1e4 the threshold scales up
        assert tol.zero_states([1e-3, 1.0, 1e4]) == ["zero", "band", "nonzero"]


class TestTrichotomy:
    def test_exactly_one_kind_on_gallery(self):
        cases = [
            ("fold_t2", {}, 2),
            ("whitney", {"k": 2, "dimZ": 0}, 2),
            ("whitney", {"k": 5, "dimZ": 0}, 5),
            ("family_kn", {"k": 1, "n": 0, "dimZ": 0}, 2),
            ("family_kn", {"k": 2, "n": 4, "dimZ": 0}, 3),
            ("l2_truncated", {"N": 3}, 4),
        ]
        for name, params, n in cases:
            c = classify_point(gallery_map(name, params).model, np.zeros(n))
            assert c.transversality_order >= 1
            assert c.kind in (K_SINGULARITY, MAXIMAL_K_TRANSVERSE)

    def test_ordinary_singularity_is_transverse_to_its_order(self):
        for k in (1, 2, 3, 4):
            model = gallery_map("whitney", {"k": k, "dimZ": 0}).model
            c = classify_point(model, np.zeros(max(k, 1)))
            assert (c.kind, c.k) == (K_SINGULARITY, k)
            assert c.transversality_order == k
            fib = next(r for r in c.evidence.routes if r.route == "fibering")
            assert len(fib.singular_values[k]) == k if k in fib.singular_values else True

    def test_report_reproducible(self):
        model = gallery_map("whitney", {"k": 3, "dimZ": 1}).model
        a = classify_point(model, np.zeros(4))
        b = classify_point(model, np.zeros(4))
        assert a.describe() == b.describe()
        for ra, rb in zip(a.evidence.routes, b.evidence.routes):
            assert ra.J_values == rb.J_values
            assert ra.singular_values == rb.singular_values


class TestOneLinearizationPerPoint:
    @pytest.mark.parametrize("case", ["whitney", "quartic", "regular"])
    def test_one_jacobian_and_one_square_svd(self, case, monkeypatch):
        from singclass.bvp import PeriodicProblem, make_periodic_bvp

        if case == "whitney":  # n = 4, so no row stack is square
            model, u = gallery_map("whitney", {"k": 2, "dimZ": 2}).model, np.zeros(4)
        elif case == "quartic":
            problem = PeriodicProblem(N=32, a_terms=((1, 0.0, 1.0),), p_terms=((0, 1.0, 0.0),))
            model, u = make_periodic_bvp(problem), np.zeros(32)
        else:
            model, u = gallery_map("fold_t2").model, np.array([1.0, 0.0])
        jacobians, square_svds = [], []
        jacobian, svd = jets.jacobian, np.linalg.svd

        def counting_jacobian(m, x):
            if not isinstance(x, jets.Jet):
                jacobians.append(x)
            return jacobian(m, x)

        def counting_svd(a, *args, **kwargs):
            if np.shape(a) == (model.n, model.n):
                square_svds.append(kwargs.get("compute_uv", True))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(jets, "jacobian", counting_jacobian)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        c = classify_point(model, u, route="both")
        assert c.kind != INDETERMINATE
        assert len(jacobians) == 1 and len(square_svds) == 1
        if case != "regular":  # kdim = 1: the null pair and range basis need no singular vectors
            assert square_svds == [False]


class TestRoutes:
    def test_single_routes_match_both(self):
        model = gallery_map("family_kn", {"k": 2, "n": 3, "dimZ": 0}).model
        u = np.zeros(3)
        both = classify_point(model, u, route="both")
        fib = classify_point(model, u, route="fibering")
        ls = classify_point(model, u, route="ls")
        assert both.same_kind(fib) and both.same_kind(ls)

    def test_route_disagreement_is_indeterminate(self):
        """phi = psi = e_1 on fold_t2, whose kernel and cokernel at 0 are e_0,
        gives J_0 = 1 on the fibering route, where the ls route finds the
        fold: the verdict is Indeterminate and keeps both trails."""
        model = gallery_map("fold_t2").model
        e1 = np.array([0.0, 1.0])
        pair = ExplicitPair(np.zeros(2), lambda x: e1, lambda x: e1, "off-kernel")
        c = classify_point(model, np.zeros(2), route="both", pair=pair)
        assert (c.kind, c.stage, c.describe()) == (
            INDETERMINATE, "route-disagreement", "Indeterminate[route-disagreement]")
        assert c.evidence.route_agreement is False
        assert c.transversality_order == 0
        fib, ls = c.evidence.routes
        assert (fib.route, fib.kind, fib.stage) == ("fibering", INDETERMINATE, "J_0")
        assert fib.J_values == [1.0]
        assert (ls.route, ls.kind, ls.k, ls.transversality_order) == ("ls", K_SINGULARITY, 1, 1)
        alone = classify_point(model, np.zeros(2), route="fibering", pair=pair)
        assert alone.describe() == "Indeterminate[J_0]"

    def test_unknown_route(self):
        with pytest.raises(ValueError):
            classify_point(gallery_map("fold_t2").model, [0.0, 0.0], route="magic")

    @pytest.mark.parametrize("d", [0, 1])
    @pytest.mark.parametrize("route", ["fibering", "ls", "both"])
    def test_smoothness_below_two_is_refused_on_every_route(self, d, route):
        """A map of smoothness d < 2 has no F'' to classify by: every route
        refuses it with the same typed error, not a verdict on one route."""
        model = MapModel(2, d, gallery_map("fold_t2").model.eval, "lowreg")
        with pytest.raises(OrderExceedsSmoothness):
            classify_point(model, [0.0, 0.0], route=route)


class TestAffineInvarianceOfOrder:
    def test_whitney3_keeps_order_under_random_affine(self):
        from singclass.model import conjugate, random_affine_pair

        model = gallery_map("whitney", {"k": 3, "dimZ": 0}).model
        base = classify_point(model, np.zeros(3))
        rng = np.random.default_rng(21)
        for _ in range(5):
            affine = random_affine_pair(3, rng)
            moved = conjugate(model, affine)
            c = classify_point(moved, np.asarray(affine.apply_gamma(np.zeros(3))), route="fibering")
            assert c.same_kind(base) and (c.kind, c.k) == (K_SINGULARITY, 3)


def test_rounding_noise_row_counts_as_zero():
    """Off the origin on the cubic head's singular line t = 0, I_1 of the
    conjugated map is rounding noise (about 3e-17): rescaling rows to unit
    size would turn it into a full-rank row."""
    model = gallery_map("cusp_source_t3").model
    rng = np.random.default_rng(0)
    for _ in range(30):
        affine = random_affine_pair(2, rng, spread=2.0)
        c = classify_point(conjugate(model, affine), affine.apply_gamma([0.0, 0.37]), route="both")
        assert c.kind == NOT_ONE_TRANSVERSE
        assert c.evidence.route_agreement
