import dataclasses

import numpy as np
import pytest

from singclass import jets, linalg
from singclass.bvp import PeriodicProblem, make_periodic_bvp
from singclass.classify import Tolerances, classify_point
from singclass.errors import NotSimple, VanishingScale
from singclass.fibering import (
    ExplicitPair,
    PointFunctionals,
    ScaleSpec,
    bordered_pair,
    make_fibering_pair,
    rescale_pair,
)
from singclass.gallery import gallery_map
from singclass.linalg import linearize, rank_decision
from singclass.model import conjugate, random_affine_pair

from helpers import (contraction, dense_jacobian, identity_affine, lie_J, nested_row, pair_transform,
                     probe_rows)
from test_acceptance import INVARIANCE_FIXTURES, classification_table

TOL = Tolerances()


def functionals(model, pair, u, k_max):
    """(J_0 .. J_k_max, [I_1 .. I_k_max]) of one pair at one point."""
    pf = PointFunctionals(model, pair, u)
    return [pf.J(k) for k in range(k_max + 1)], [pf.row(k) for k in range(1, k_max + 1)]


def second_derivative_bilinear(model, u, v, w):
    """F''(u)[v, w] through a two-variable jet (independent of the pair code)."""
    na, nb = jets.fresh_name("a"), jets.fresh_name("b")
    x = jets.constant(np.asarray(u, dtype=float), (na, nb), (1, 1))
    x = x + jets.unit((na, nb), (1, 1), na) * np.asarray(v, dtype=float)
    x = x + jets.unit((na, nb), (1, 1), nb) * np.asarray(w, dtype=float)
    y = model.eval(x)
    return np.asarray(y.extract({na: 1, nb: 1}))


class TestPairConstruction:
    def test_fold_pair_directions(self):
        fold = gallery_map("fold_t2").model
        pair = make_fibering_pair(fold, [0.0, 0.0])
        pf = PointFunctionals(fold, pair, [0.0, 0.0])
        assert abs(pf.phi0[0]) > 0.9 and abs(pf.phi0[1]) < 1e-12
        assert abs(pf.psi0[0]) > 0.9 and abs(pf.psi0[1]) < 1e-12

    def test_whitney_kernel_direction(self):
        w2 = gallery_map("whitney", {"k": 2, "dimZ": 1}).model
        pair = make_fibering_pair(w2, np.zeros(3))
        pf = PointFunctionals(w2, pair, np.zeros(3))
        np.testing.assert_allclose(pf.phi0 / np.linalg.norm(pf.phi0), [1.0, 0.0, 0.0], atol=1e-12)

    def test_not_simple_at_regular_point(self):
        fold = gallery_map("fold_t2").model
        with pytest.raises(NotSimple):
            make_fibering_pair(fold, [1.0, 0.0])

    def test_pair_invariants_on_singular_points(self):
        model = gallery_map("whitney", {"k": 2, "dimZ": 1}).model
        pair = make_fibering_pair(model, np.zeros(3))
        for u in (np.zeros(3), np.array([0.0, 0.0, 0.4])):
            pf = PointFunctionals(model, pair, u)
            lin = linearize(model, u)
            Fp = lin.A
            norm = np.linalg.norm(Fp, 2)
            assert np.linalg.norm(pf.phi0) > 1e-12
            assert np.linalg.norm(pf.psi0) > 1e-12
            if lin.kdim == 1:
                assert np.linalg.norm(Fp @ pf.phi0) <= 1e-8 * norm * np.linalg.norm(pf.phi0)
                assert np.linalg.norm(pf.psi0 @ Fp) <= 1e-8 * norm * np.linalg.norm(pf.psi0)


class TestFunctionals:
    def test_fold_values(self):
        fold = gallery_map("fold_t2").model
        pair = make_fibering_pair(fold, [0.0, 0.2])
        J, _ = functionals(fold, pair, [0.0, 0.2], 1)
        assert J[0] == pytest.approx(0.0, abs=1e-12)
        assert J[1] == pytest.approx(2.0, abs=1e-10)

    def test_record_identity_J_equals_I_phi_and_lie_route(self):
        model = gallery_map("whitney", {"k": 3, "dimZ": 0}).model
        u = np.zeros(3)
        pair = make_fibering_pair(model, u)
        pf = PointFunctionals(model, pair, u)
        for k in (1, 2, 3):
            via_row = float(np.dot(pf.row(k), pf.phi0))
            assert pf.J(k) == pytest.approx(via_row, rel=1e-12, abs=1e-12)
            assert lie_J(pf, k) == pytest.approx(pf.J(k), rel=1e-8, abs=1e-8)

    def test_unfolding_map_rank_three(self):
        model = gallery_map("transverse_k", {"k": 3}).model
        u = np.zeros(4)
        pair = make_fibering_pair(model, u)
        J, rows = functionals(model, pair, u, 3)
        assert max(abs(v) for v in J) < 1e-10
        assert rank_decision(np.array(rows)).rank == 3

    def test_explicit_cubic_pair_annihilates_J0(self):
        """The closed-form pair ((1, t), (1, -3t)) of the cubic-head map keeps
        J0 identically zero although only the axis is singular."""
        model = gallery_map("cusp_source_t3").model

        def phi_fn(x):
            t = jets.comp(x, 0)
            return jets.stack([t * 0.0 + 1.0, t])

        def psi_fn(x):
            t = jets.comp(x, 0)
            return jets.stack([t * 0.0 + 1.0, t * (-3.0)])

        pair = ExplicitPair(np.zeros(2), phi_fn, psi_fn, "cubic-explicit")
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            u = rng.uniform(-2, 2, size=2)
            pf = PointFunctionals(model, pair, u)
            worst = max(worst, abs(pf.J(0)))
        assert worst < 1e-12
        base = classify_point(model, np.zeros(2), route="both")
        assert base.kind == "NotOneTransverse"

    def test_constant_explicit_pair_reads_rows_at_jet_points(self):
        """Plain fields phi = psi = e_0 meet a jet F'(x) phi on the rows:
        ``jets.dot`` puts the jet first, so the contraction stays a jet (an
        ndarray times a Jet would be an object array)."""
        model = gallery_map("fold_t2").model
        e0 = np.array([1.0, 0.0])
        pair = ExplicitPair(np.zeros(2), lambda x: e0, lambda x: e0, "constant")
        c = classify_point(model, np.zeros(2), route="fibering", pair=pair)
        assert (c.kind, c.k, c.evidence.routes[0].J_values) == ("KSingularity", 1, [0.0, 2.0])

    def test_zero_set_matches_singular_set_near_fold(self):
        model = gallery_map("fold_t2").model
        pair = make_fibering_pair(model, [0.0, 0.0])
        rng = np.random.default_rng(1)
        for _ in range(20):
            xi = rng.uniform(-0.5, 0.5)
            on = PointFunctionals(model, pair, [0.0, xi])
            off_t = rng.uniform(0.05, 0.3) * rng.choice([-1.0, 1.0])
            off = PointFunctionals(model, pair, [off_t, xi])
            assert abs(on.J(0)) <= 1e-10 and linearize(model, [0.0, xi]).kdim == 1
            assert abs(off.J(0)) > 1e-4 and linearize(model, [off_t, xi]).kdim == 0

    def test_I1_matches_second_derivative_contraction_on_singular_set(self):
        model = gallery_map("whitney", {"k": 2, "dimZ": 1}).model
        u = np.array([0.0, 0.0, -0.3])
        pair = make_fibering_pair(model, u)
        pf = PointFunctionals(model, pair, u)
        i1 = pf.row(1)
        rng = np.random.default_rng(4)
        for _ in range(5):
            v = rng.standard_normal(3)
            bil = second_derivative_bilinear(model, u, v, pf.phi0)
            expect = float(np.dot(pf.psi0, bil))
            got = float(np.dot(i1, v))
            assert got == pytest.approx(expect, rel=1e-6, abs=1e-9)


class TestRescaling:
    def test_identity_rescale(self):
        model = gallery_map("fold_t2").model
        pair = make_fibering_pair(model, [0.0, 0.0])
        scaled = rescale_pair(pair, ScaleSpec(1.0), ScaleSpec(1.0))
        a, _ = functionals(model, pair, [0.0, 0.0], 1)
        b, _ = functionals(model, scaled, [0.0, 0.0], 1)
        np.testing.assert_allclose(a, b, atol=1e-13)

    def test_constant_scaling_law_J1(self):
        model = gallery_map("fold_t2").model
        pair = make_fibering_pair(model, [0.0, 0.0])
        scaled = rescale_pair(pair, ScaleSpec(2.0), ScaleSpec(3.0))
        j1 = PointFunctionals(model, pair, [0.0, 0.0]).J(1)
        j1s = PointFunctionals(model, scaled, [0.0, 0.0]).J(1)
        assert j1s == pytest.approx(12.0 * j1, rel=1e-8)

    def test_constant_scaling_law_J2_on_second_stratum(self):
        # at a point with J0 = J1 = 0 the next value scales by alpha^3 beta
        model = gallery_map("family_kn", {"k": 1, "n": 3, "dimZ": 0}).model
        u = np.zeros(2)
        pair = make_fibering_pair(model, u)
        scaled = rescale_pair(pair, ScaleSpec(2.0), ScaleSpec(1.5))
        j2 = PointFunctionals(model, pair, u).J(2)
        j2s = PointFunctionals(model, scaled, u).J(2)
        assert abs(j2) > 1e-6
        assert j2s == pytest.approx(2.0**3 * 1.5 * j2, rel=1e-8)

    def test_quadratic_rescale_keeps_classification(self):
        model = gallery_map("whitney", {"k": 3, "dimZ": 0}).model
        u = np.zeros(3)
        base = classify_point(model, u, route="fibering")
        rng = np.random.default_rng(5)
        Q = 0.1 * rng.standard_normal((3, 3))
        pair = rescale_pair(
            make_fibering_pair(model, u),
            ScaleSpec(1.0, quad=(Q + Q.T) / 2, center=u),
            ScaleSpec(1.0),
        )
        c = classify_point(model, u, route="fibering", pair=pair)
        assert c.same_kind(base)

    def test_vanishing_scale_rejected(self):
        model = gallery_map("fold_t2").model
        pair = make_fibering_pair(model, [0.0, 0.0])
        with pytest.raises(VanishingScale):
            rescale_pair(pair, ScaleSpec(0.0), ScaleSpec(1.0))

    def test_vanishing_quadratic_rejected_on_construction(self):
        with pytest.raises(VanishingScale):
            ScaleSpec(1.0, quad=4.0 * np.eye(2), center=np.zeros(2))

    @pytest.mark.parametrize("value, quad, center", [
        (np.nan, None, None),
        (np.inf, None, None),
        (-np.inf, None, None),
        (1.0, 0.1 * np.eye(2), None),
        (1.0, None, np.zeros(2)),
        (1.0, np.full((2, 2), np.nan), np.zeros(2)),
        (1.0, 0.1 * np.eye(2), np.array([0.0, np.inf])),
        (1.0, 0.1 * np.eye(2), np.zeros(3)),
        (1.0, 0.1 * np.ones((2, 3)), np.zeros(2)),
    ], ids=["nan", "inf", "-inf", "quad-no-center", "center-no-quad", "nan-quad", "inf-center",
            "center-length", "quad-not-square"])
    def test_bad_scale_rejected_on_construction(self, value, quad, center):
        with pytest.raises(ValueError):
            ScaleSpec(value, quad=quad, center=center)


class TestPairTransform:
    def test_identity_transform_keeps_record(self):
        model = gallery_map("whitney", {"k": 2, "dimZ": 0}).model
        u = np.zeros(2)
        pair = make_fibering_pair(model, u)
        affine = identity_affine(2)
        tpair = pair_transform(pair, affine, model)
        J, _ = functionals(model, pair, u, 2)
        tJ, _ = functionals(conjugate(model, affine), tpair, u, 2)
        np.testing.assert_allclose(J, tJ, atol=1e-10)

    def test_functionals_invariant_under_affine_transform(self):
        model = gallery_map("whitney", {"k": 2, "dimZ": 0}).model
        u = np.zeros(2)
        pair = make_fibering_pair(model, u)
        rng = np.random.default_rng(6)
        for _ in range(5):
            affine = random_affine_pair(2, rng)
            moved = conjugate(model, affine)
            tpair = pair_transform(pair, affine, model, moved)
            J, _ = functionals(model, pair, u, 2)
            tJ, _ = functionals(moved, tpair, np.asarray(affine.apply_gamma(u)), 2)
            np.testing.assert_allclose(tJ, J, atol=1e-8)

    def test_classification_invariant_at_transformed_point(self):
        model = gallery_map("family_kn", {"k": 1, "n": 0, "dimZ": 0}).model
        u = np.zeros(2)
        base = classify_point(model, u, route="fibering")
        rng = np.random.default_rng(7)
        affine = random_affine_pair(2, rng)
        moved = conjugate(model, affine)
        c = classify_point(moved, np.asarray(affine.apply_gamma(u)), route="fibering")
        assert c.same_kind(base)


class TestCrossRouteLie:
    def test_nested_lie_along_pair_field_matches_reduced_route_pattern(self):
        """Depth-2 Lie derivative of J0 along the pair's kernel field versus
        the reduced scalar's second value: values differ by pair scalars but
        the zero/nonzero decision data must coincide."""
        from singclass.lsreduce import local_representation

        model = gallery_map("family_kn", {"k": 1, "n": 3, "dimZ": 0}).model
        u = np.zeros(2)
        pair = make_fibering_pair(model, u)
        pf = PointFunctionals(model, pair, u)
        lie_j2 = lie_J(pf, 2)
        ls_j2 = local_representation(model, u).J(2)
        assert abs(lie_j2) > 1e-6 and abs(ls_j2) > 1e-6  # both decisively nonzero
        # and on a fixture where J2 vanishes, both routes see zero
        model0 = gallery_map("family_kn", {"k": 2, "n": 0, "dimZ": 0}).model
        u0 = np.zeros(3)
        pf0 = PointFunctionals(model0, make_fibering_pair(model0, u0), u0)
        assert abs(lie_J(pf0, 2)) < 1e-10
        assert abs(local_representation(model0, u0).J(2)) < 1e-10


class TestDepthGuards:
    def test_row_respects_smoothness(self):
        from singclass.errors import OrderExceedsSmoothness
        from singclass.model import MapModel

        base = gallery_map("fold_t2").model
        lowreg = MapModel(2, 2, base.eval, "lowreg")
        pair = make_fibering_pair(lowreg, [0.0, 0.0])
        pf = PointFunctionals(lowreg, pair, [0.0, 0.0])
        pf.row(1)
        with pytest.raises(OrderExceedsSmoothness):
            pf.row(2)


def quartic_bvp(N, p=1.0):
    """u' + sin(2 pi t) u^2 + p u^4 on N points; simple singularity at u = 0."""
    return make_periodic_bvp(PeriodicProblem(N=N, a_terms=((1, 0.0, 1.0),),
                                             p_terms=((0, p, 0.0),)))


def j0_fixture(label):
    """(model, base point, nearby point): whitney off its base point, or the
    quartic problem, plain or conjugated (so it has ``jac``)."""
    rng = np.random.default_rng(12)
    if label == "whitney":
        model = gallery_map("whitney", {"k": 3, "dimZ": 2}).model
        return model, np.zeros(5), 0.05 * rng.standard_normal(5)
    model, base = quartic_bvp(32), np.zeros(32)
    if label == "bvp~affine":
        affine = random_affine_pair(32, rng)
        model, base = conjugate(model, affine), affine.gamma_shift
    return model, base, base + 0.01 * rng.standard_normal(32)


def j0_pairs(model, base):
    pair = make_fibering_pair(model, base)
    n = model.n
    Q = 0.1 * np.random.default_rng(13).standard_normal((n, n)) / np.sqrt(n)
    quad = ScaleSpec(1.5, quad=(Q + Q.T) / 2, center=base)
    return {
        "bordered": pair,
        "normalized": rescale_pair(pair, ScaleSpec(2.5), ScaleSpec(-0.4)),
        "rescaled-const": rescale_pair(pair, ScaleSpec(2.0), ScaleSpec(-0.7)),
        "rescaled-quad": rescale_pair(pair, quad, ScaleSpec(-0.8, quad=Q @ Q.T, center=base)),
    }


def coeffs(v) -> np.ndarray:
    v = dense_jacobian(v) if isinstance(v, jets.MatrixPlusDiag) else v
    return np.asarray(v.coeffs if isinstance(v, jets.Jet) else v)


class TestBorderedTestFunction:
    """The J0 that ``phi_j0`` returns with phi, for the bordered pair -s of
    the phi solve (scaled by any rescaling), equals psi F' phi at plain and
    jet points."""

    @pytest.mark.parametrize("label", ["whitney", "bvp", "bvp~affine"])
    def test_pair_j0_equals_generic_contraction(self, label):
        # near the singular set J0 is a cancellation among terms of size
        # |psi| |F'| |phi|, so the contraction is only accurate relative to that
        model, base, u = j0_fixture(label)
        rng = np.random.default_rng(14)
        names = (jets.fresh_name("a"), jets.fresh_name("b"))
        x = jets.constant(u, names, (2, 1))
        for name in names:
            x = x + jets.unit(names, (2, 1), name) * rng.standard_normal(model.n)
        for key, pair in j0_pairs(model, base).items():
            bound = PointFunctionals(model, pair, u).pair
            for point in (u, x):
                Fp = jets.jacobian(model, point)
                phi, got = bound.phi_j0(point, Fp)
                psi = bound.psi(point, Fp)
                got, want = coeffs(got), coeffs(contraction(psi, Fp, phi))
                terms = [np.linalg.norm(coeffs(v)) for v in (psi, Fp, phi)]
                assert np.max(np.abs(want)) > 1e-6 * np.prod(terms), (key, "J0 vanishes here")
                assert np.max(np.abs(got - want)) <= 1e-13 * np.prod(terms), key

    def test_zero_s_gives_positive_zero(self):
        model = gallery_map("fold_t2").model
        pair = make_fibering_pair(model, [0.0, 0.0])
        j0 = PointFunctionals(model, pair, [0.0, 0.0]).J(0)
        assert j0 == 0.0 and np.copysign(1.0, j0) == 1.0

    def test_psi0_is_solved_on_first_read_only(self, monkeypatch):
        calls = []
        solve = linalg.bordered_solve

        def recording(A, *args, trans=0, **kwargs):
            calls.append(trans)
            return solve(A, *args, trans=trans, **kwargs)

        monkeypatch.setattr(linalg, "bordered_solve", recording)
        model = gallery_map("whitney", {"k": 2, "dimZ": 0}).model
        pf = PointFunctionals(model, make_fibering_pair(model, np.zeros(2)), np.zeros(2))
        for k in range(3):
            pf.J(k)
        assert 0 in calls and 1 not in calls
        psi0 = pf.psi0
        assert pf.psi0 is psi0 and calls.count(1) == 1  # solved once, then cached
        assert abs(psi0[0]) > 0.9 and abs(psi0[1]) < 1e-12

    @pytest.mark.parametrize("model, u", [
        (gallery_map("whitney", {"k": 3, "dimZ": 0}).model, np.zeros(3)),
        (quartic_bvp(32), np.zeros(32)),
    ], ids=["whitney", "bvp"])
    def test_rows_make_no_bordered_solve(self, monkeypatch, model, u):
        """phi, psi and J0 along the flow come from the inverse series of the
        bordered matrix: once ``__init__`` solved for phi(u), rows solve nothing
        through ``bordered_solve``, plain or transposed."""
        pf = PointFunctionals(model, make_fibering_pair(model, u), u)
        calls = []
        monkeypatch.setattr(linalg, "bordered_solve", lambda *args, **kwargs: calls.append(args))
        rows = [pf.row(k) for k in (1, 2, 3)]
        assert calls == []
        assert rank_decision(np.array(rows)).rank == 3 and abs(pf.J(3)) > 1e-3


def gallery_table_points():
    """(name, params, point, deepest row the classifier reads) for every point
    of the gallery table."""
    return [(name, params, point, min(6, (exp.k or 0) + 1))
            for name, params in classification_table()
            for exp in gallery_map(name, params).expected for point in exp.points]


def invariance_pairs(model, u, seed):
    """(model, point, pair) under the bordered pair, a renormalized pair, a
    constant and a quadratic rescaling, and an affine change of coordinates."""
    rng = np.random.default_rng(seed)
    pair = make_fibering_pair(model, u)
    n = model.n
    Q = 0.1 * rng.standard_normal((n, n))
    affine = random_affine_pair(n, rng)
    moved = conjugate(model, affine)
    return [
        (model, u, pair),
        (model, u, rescale_pair(pair, ScaleSpec(2.5), ScaleSpec(-0.4))),
        (model, u, rescale_pair(pair, ScaleSpec(2.0), ScaleSpec(-0.7))),
        (model, u, rescale_pair(pair, ScaleSpec(1.5, quad=(Q + Q.T) / 2, center=u),
                                ScaleSpec(-0.8, quad=Q @ Q.T, center=u))),
        (moved, np.asarray(affine.apply_gamma(u)), pair_transform(pair, affine, model, moved)),
    ]


def assert_rows_match(model, u, pair, k_max, oracle="nested"):
    """Rows I_1 .. I_k_max from the adjoint sweep equal the oracle's rows (the
    nested Lie-derivative rows, or the probe rows of ``helpers.probe_rows``) to
    1e-12 relative to the largest row so far: a row that vanishes in exact
    arithmetic holds rounding noise at the scale of the rows before it."""
    pf = PointFunctionals(model, pair, u)
    if oracle == "nested":
        nested = PointFunctionals(model, pair, u)
        want = [nested_row(nested, k) for k in range(1, k_max + 1)]
    else:
        want = probe_rows(model, pair, u, k_max)
    for k, w in enumerate(want, 1):
        scale = max(np.linalg.norm(v) for v in want[:k])
        assert np.linalg.norm(pf.row(k) - w) <= 1e-12 * scale, (pair.pair_id, oracle, k)


QUARTIC_SIZES = [(N, p) for N in (32, 64, 128, 256) for p in (1.0, 0.0)]


class TestFlowRows:
    """Rows from one Taylor flow along phi and its adjoint sweep against the
    nested and the probe oracles."""

    @pytest.mark.parametrize("name, params, point, k_max", gallery_table_points(),
                             ids=lambda v: str(v) if not isinstance(v, dict) else None)
    def test_gallery_table_rows(self, name, params, point, k_max):
        model = gallery_map(name, params).model
        u = np.array(point)
        assert_rows_match(model, u, bordered_pair(model, u), k_max)

    @pytest.mark.parametrize("name, params, point", INVARIANCE_FIXTURES,
                             ids=[f"{n}{sorted(p.items())}" for n, p, _ in INVARIANCE_FIXTURES])
    def test_invariance_fixture_rows_under_every_pair(self, name, params, point):
        entry = gallery_map(name, params)
        k_max = min(6, (entry.expected[0].k or 0) + 1)
        for model, u, pair in invariance_pairs(entry.model, np.array(point), 21):
            assert_rows_match(model, u, pair, k_max)

    @pytest.mark.parametrize("N, p", QUARTIC_SIZES,
                             ids=[f"{N}" if p else f"{N}-p0" for N, p in QUARTIC_SIZES])
    @pytest.mark.parametrize("conjugated", [False, True], ids=["plain", "conjugated"])
    def test_quartic_bvp_rows(self, N, p, conjugated):
        # the nested oracle takes about 1.3 s at N = 256 on one core, below 5 s
        model, u = quartic_bvp(N, p), np.zeros(N)
        if conjugated:
            affine = random_affine_pair(N, np.random.default_rng(22))
            model, u = conjugate(model, affine), affine.gamma_shift
        for oracle in ("nested", "probe"):
            assert_rows_match(model, u, make_fibering_pair(model, u), 3, oracle)

    def test_quadratic_rescaling_on_the_quartic_problem(self):
        """grad alpha and grad beta of quadratic fields meet the operator
        T = d/ds F'(x(s)) of the periodic problem's diagonal Jacobian."""
        N = 64
        model, u = quartic_bvp(N), np.zeros(N)
        Q = 0.1 * np.random.default_rng(23).standard_normal((N, N)) / np.sqrt(N)
        pair = rescale_pair(make_fibering_pair(model, u),
                            ScaleSpec(1.3, quad=(Q + Q.T) / 2, center=u + 0.01),
                            ScaleSpec(-0.6, quad=Q @ Q.T, center=u - 0.02))
        for oracle in ("nested", "probe"):
            assert_rows_match(model, u, pair, 3, oracle)

    def test_rescaling_composes_over_any_inner_pair(self):
        """A pair's sweep terms carry the flow's speed relative to its own phi:
        a quadratic rescaling of a rescaled bordered pair, and of an explicit
        pair whose terms come from the default probe, give the oracle's rows."""
        rng = np.random.default_rng(24)
        Q = 0.1 * rng.standard_normal((5, 5))
        model = gallery_map("whitney", {"k": 3, "dimZ": 2}).model
        u = 0.05 * rng.standard_normal(5)
        inner = rescale_pair(bordered_pair(model, u), ScaleSpec(0.8, quad=Q @ Q.T, center=u),
                             ScaleSpec(1.7))
        outer = rescale_pair(inner, ScaleSpec(1.4, quad=(Q + Q.T) / 2, center=u - 0.1),
                             ScaleSpec(-0.9, quad=Q.T @ Q, center=u + 0.1))
        assert_rows_match(model, u, outer, 4)
        w2 = gallery_map("whitney", {"k": 2, "dimZ": 0}).model
        t, x = (lambda v: jets.comp(v, 0)), (lambda v: jets.comp(v, 1))
        explicit = ExplicitPair(np.zeros(2), lambda v: jets.stack([x(v) * 0.3 + 1.0, t(v) * 0.5]),
                                lambda v: jets.stack([t(v) * 0.0 + 1.0, t(v) * x(v) * 0.2]))
        q = Q[:2, :2]
        scaled = rescale_pair(explicit, ScaleSpec(1.2, quad=q @ q.T, center=np.zeros(2)),
                              ScaleSpec(0.7, quad=(q + q.T) / 2, center=np.ones(2)))
        assert_rows_match(w2, np.array([0.3, -0.2]), scaled, 4)

    def test_rescaling_field_scales_each_probe(self):
        """Centred at u, a quadratic rescaling obeys J_3 -> alpha(u)^4 beta(u) J_3
        where J_1 = J_2 = 0, as the unbatched nested Lie derivative does."""
        N = 32
        model, u = quartic_bvp(N), np.zeros(N)
        pair = make_fibering_pair(model, u)
        Q = 0.1 * np.random.default_rng(7).standard_normal((N, N))
        scaled = rescale_pair(pair, ScaleSpec(0.7, quad=(Q + Q.T) / 2, center=u),
                              ScaleSpec(-1.5, quad=Q @ Q.T / N, center=u))
        pf = PointFunctionals(model, scaled, u)
        j3 = pf.J(3)
        assert j3 == pytest.approx(0.7**4 * -1.5 * PointFunctionals(model, pair, u).J(3), rel=1e-9)
        assert j3 == pytest.approx(lie_J(pf, 3), rel=1e-9)

    def test_deep_row_first_equals_rows_in_order(self):
        # without its jac the model's flow Jacobian is the dense probe Jacobian jet
        probe = dataclasses.replace(quartic_bvp(48), jac=None)
        for model in (probe, quartic_bvp(48)):
            pair = make_fibering_pair(model, np.zeros(48))
            first = PointFunctionals(model, pair, np.zeros(48))
            in_order = PointFunctionals(model, pair, np.zeros(48))
            deep = first.row(4)
            rows = [in_order.row(k) for k in range(1, 5)]
            np.testing.assert_array_equal(deep, rows[3])
            for k in range(1, 4):
                np.testing.assert_array_equal(first.row(k), rows[k - 1])

    @pytest.mark.parametrize("conjugated", [False, True], ids=["plain", "conjugated"])
    def test_flow_jacobians_have_no_probe_axis(self, conjugated, monkeypatch):
        # conjugate keeps the jac's operator, D + diag(d) between delta and gamma^-1,
        # so a conjugated problem's flow Jacobian is n floats per coefficient too
        sizes, jacobian = [], jets.jacobian

        def recording(model, x):
            J = jacobian(model, x)
            if isinstance(x, jets.Jet):
                sizes.append(J._diag.coeffs.size)
            return J

        monkeypatch.setattr(jets, "jacobian", recording)
        N = 64
        model, u = quartic_bvp(N), np.zeros(N)
        if conjugated:
            affine = random_affine_pair(N, np.random.default_rng(22))
            model, u = conjugate(model, affine), affine.gamma_shift
        pf = PointFunctionals(model, make_fibering_pair(model, u), u)
        pf.row(3)
        assert sizes == [N * (k + 1) for k in (1, 2, 3)]  # row k: x exact through s^k

    def test_each_row_costs_one_jacobian_and_one_lu_solve(self, monkeypatch):
        counts = {"jacobian": 0, "solve": 0}
        jacobian, solve = jets.jacobian, linalg.lu_solve

        def counted_jacobian(model, x):
            counts["jacobian"] += isinstance(x, jets.Jet)
            return jacobian(model, x)

        def counted_solve(*args, **kwargs):
            counts["solve"] += 1
            return solve(*args, **kwargs)

        model = gallery_map("whitney", {"k": 6, "dimZ": 0}).model
        u = np.zeros(model.n)
        pf = PointFunctionals(model, make_fibering_pair(model, u), u)
        monkeypatch.setattr(jets, "jacobian", counted_jacobian)
        monkeypatch.setattr(linalg, "lu_solve", counted_solve)
        for k in range(1, 7):
            pf.row(k)
        assert counts == {"jacobian": 6, "solve": 6}
