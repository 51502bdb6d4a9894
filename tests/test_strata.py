import numpy as np
import pytest

from singclass.classify import Tolerances
from singclass.errors import DegenerateGradient, NoConvergence, NotIndependent
from singclass.fibering import ScaleSpec, bordered_pair, make_fibering_pair, rescale_pair
from singclass.gallery import gallery_map
from singclass.linalg import linearize
from singclass.strata import (
    project_to_singular,
    sample_stratum,
    stratum_membership,
    tangent_space,
    verify_stratification,
)

TOL = Tolerances()


class TestProjection:
    def test_fold_projects_in_one_step(self):
        model = gallery_map("fold_t2").model
        pair = make_fibering_pair(model, [0.0, 0.7])
        pt = project_to_singular(model, [0.3, 0.7], pair)
        np.testing.assert_allclose(pt, [0.0, 0.7], atol=1e-10)

    def test_perturbed_line_projection(self):
        model = gallery_map("eps_perturbed", {"eps": 0.1}).model
        pair = make_fibering_pair(model, [0.0, 0.0])
        pt = project_to_singular(model, [1.0, 0.0], pair)
        assert abs(pt[1] - 0.1 * pt[0]) < 1e-9

    def test_degenerate_gradient_on_cubic_head(self):
        # with the closed-form pair of the cubic-head map, J0 vanishes
        # identically, so the projection gradient I1 is zero everywhere
        from singclass import jets
        from singclass.fibering import ExplicitPair

        model = gallery_map("cusp_source_t3").model

        def phi_fn(x):
            t = jets.comp(x, 0)
            return jets.stack([t * 0.0 + 1.0, t])

        def psi_fn(x):
            t = jets.comp(x, 0)
            return jets.stack([t * 0.0 + 1.0, t * (-3.0)])

        pair = ExplicitPair(np.zeros(2), phi_fn, psi_fn, "cubic-explicit")
        with pytest.raises(DegenerateGradient):
            project_to_singular(model, [0.2, 0.1], pair)


    def test_last_allowed_iterate_checks_the_gradient(self, monkeypatch):
        # with no Newton step allowed the start point is the last iterate;
        # the cubic head's J0 vanishes there, and so does I1
        from singclass import strata

        model = gallery_map("cusp_source_t3").model
        pair = make_fibering_pair(model, np.zeros(2))
        monkeypatch.setattr(strata, "NEWTON_MAX_ITER", 0)
        with pytest.raises(DegenerateGradient):
            project_to_singular(model, np.zeros(2), pair)

    def test_no_convergence_when_steps_run_out(self, monkeypatch):
        # the fold needs one Newton step from (0.3, 0.7); with none allowed
        # the start point is the last iterate and J0 is still nonzero there
        from singclass import strata

        model = gallery_map("fold_t2").model
        pair = make_fibering_pair(model, [0.0, 0.7])
        monkeypatch.setattr(strata, "NEWTON_MAX_ITER", 0)
        with pytest.raises(NoConvergence, match="after 0 Newton steps"):
            project_to_singular(model, [0.3, 0.7], pair)

    def test_vanishing_gradient_at_the_start_point_is_named(self):
        # F'(1, 0) = diag(2, 1): the pair borders the xi direction, J0 is constant
        model = gallery_map("fold_t2").model
        pair = bordered_pair(model, [1.0, 0.0])
        with pytest.raises(DegenerateGradient, match="start point.* 0.5;"):
            project_to_singular(model, [1.0, 0.0], pair)

    def test_double_zero_is_named(self):
        # J0 of the bordered pair vanishes to second order on the cubic head's
        # singular line t = 0, so Newton converges linearly, cutting |J0| by 4
        model = gallery_map("cusp_source_t3").model
        pair = bordered_pair(model, [0.2, 0.1])
        with pytest.raises(DegenerateGradient, match="double zero of J0"):
            project_to_singular(model, [0.2, 0.1], pair)


class TestMembership:
    def test_family_second_stratum(self):
        model = gallery_map("family_kn", {"k": 2, "n": 0, "dimZ": 0}).model
        pair = make_fibering_pair(model, np.zeros(3))
        member, vals = stratum_membership(model, np.zeros(3), 3, pair)
        assert member and max(abs(v) for v in vals) < 1e-9

    def test_fold_not_in_second_stratum(self):
        model = gallery_map("fold_t2").model
        pair = make_fibering_pair(model, [0.0, 0.2])
        member, vals = stratum_membership(model, [0.0, 0.2], 2, pair)
        assert not member
        assert abs(vals[1]) > 1.0  # J_1 = 2 up to pair scale

    def test_whitney3_membership_boundary(self):
        model = gallery_map("whitney", {"k": 3, "dimZ": 0}).model
        pair = make_fibering_pair(model, np.zeros(3))
        member3, _ = stratum_membership(model, np.zeros(3), 3, pair)
        member4, _ = stratum_membership(model, np.zeros(3), 4, pair)
        assert member3 and not member4

    def test_nesting(self):
        model = gallery_map("l2_truncated", {"N": 3}).model
        pair = make_fibering_pair(model, np.zeros(4))
        members = [stratum_membership(model, np.zeros(4), h, pair)[0] for h in (1, 2, 3)]
        assert members == [True, True, True]

    def test_negative_order_rejected(self):
        model = gallery_map("fold_t2").model
        pair = make_fibering_pair(model, [0.0, 0.7])
        with pytest.raises(ValueError, match="at least 0"):
            stratum_membership(model, [0.0, 0.7], -2, pair)

    def test_band_value_gives_indeterminate_membership(self):
        model = gallery_map("eps_perturbed", {"eps": 1e-4}).model
        pair = make_fibering_pair(model, np.zeros(2))
        member, vals = stratum_membership(model, np.zeros(2), 2, pair)
        assert member is None
        assert TOL.zero < abs(vals[1]) < TOL.nonzero
        assert stratum_membership(model, np.zeros(2), 1, pair)[0] is True

    def test_membership_pair_independent(self):
        model = gallery_map("whitney", {"k": 2, "dimZ": 0}).model
        base = make_fibering_pair(model, np.zeros(2))
        rng = np.random.default_rng(0)
        reference = [stratum_membership(model, np.zeros(2), h, base)[0] for h in (1, 2, 3)]
        for _ in range(20):
            a = float(rng.uniform(0.5, 2.0) * rng.choice([-1, 1]))
            b = float(rng.uniform(0.5, 2.0) * rng.choice([-1, 1]))
            scaled = rescale_pair(base, ScaleSpec(a), ScaleSpec(b))
            got = [stratum_membership(model, np.zeros(2), h, scaled)[0] for h in (1, 2, 3)]
            assert got == reference


class TestTangent:
    def test_fold_tangent_is_second_axis(self):
        model = gallery_map("fold_t2").model
        pair = make_fibering_pair(model, [0.0, 0.5])
        basis = tangent_space(model, [0.0, 0.5], 1, pair)
        assert len(basis) == 1
        assert abs(basis[0][1]) == pytest.approx(1.0, abs=1e-10)

    def test_codimension_two(self):
        model = gallery_map("transverse_k", {"k": 2, "dimZ": 1}).model
        pair = make_fibering_pair(model, np.zeros(4))
        basis = tangent_space(model, np.zeros(4), 2, pair)
        assert len(basis) == 4 - 2

    def test_dependent_rows_raise(self):
        # whitney(k=2) lives on the plane: I_1, I_2 at the cusp are
        # independent, and a third row cannot be
        model = gallery_map("whitney", {"k": 2, "dimZ": 0}).model
        pair = make_fibering_pair(model, np.zeros(2))
        with pytest.raises(NotIndependent, match=r"rows I_1..I_3 have rank 2 < 3"):
            tangent_space(model, np.zeros(2), 3, pair)

    def test_h_zero_full_space(self):
        model = gallery_map("fold_t2").model
        pair = make_fibering_pair(model, [0.0, 0.0])
        assert len(tangent_space(model, [0.0, 0.0], 0, pair)) == 2

    @pytest.mark.parametrize("h", [-1, -3])
    def test_negative_order_rejected(self, h):
        model = gallery_map("fold_t2").model
        pair = make_fibering_pair(model, [0.0, 0.0])
        with pytest.raises(ValueError, match=f"stratum order h must be at least 0, got {h}"):
            tangent_space(model, [0.0, 0.0], h, pair)


class TestStratification:
    def test_whitney2_kernel_line_leaves_tangent(self):
        model = gallery_map("whitney", {"k": 2, "dimZ": 0}).model
        pair = make_fibering_pair(model, np.zeros(2))
        rec = verify_stratification(model, np.zeros(2), 2, pair)
        assert all(rec.rank_ok.values())
        assert not rec.phi_in_tangent and not rec.J_k_zero
        assert rec.dichotomy_consistent

    def test_family20_kernel_line_stays_in_tangent(self):
        model = gallery_map("family_kn", {"k": 2, "n": 0, "dimZ": 0}).model
        pair = make_fibering_pair(model, np.zeros(3))
        rec = verify_stratification(model, np.zeros(3), 2, pair)
        assert all(rec.rank_ok.values())
        assert rec.phi_in_tangent and rec.J_k_zero
        assert rec.dichotomy_consistent

    def test_fold_sampled_rank(self):
        model = gallery_map("fold_t2").model
        pair = make_fibering_pair(model, np.zeros(2))
        rec = verify_stratification(model, np.zeros(2), 1, pair, n_probes=10, seed=3)
        assert rec.sampled_rank1_ok

    def test_linearization_gives_same_record(self):
        model = gallery_map("whitney", {"k": 3, "dimZ": 1}).model
        u = np.zeros(model.n)
        pair = make_fibering_pair(model, u)
        plain = verify_stratification(model, u, 3, pair, n_probes=3, seed=2)
        assert verify_stratification(model, linearize(model, u), 3, pair, n_probes=3, seed=2) == plain

    @pytest.mark.parametrize("k", [0, -1])
    def test_order_below_one_rejected(self, k):
        model = gallery_map("fold_t2").model
        pair = make_fibering_pair(model, [0.0, 0.0])
        with pytest.raises(ValueError, match=f"stratum order k must be at least 1, got {k}"):
            verify_stratification(model, [0.0, 0.0], k, pair)


class TestSampling:
    def test_fold_hypersurface_separation(self):
        model = gallery_map("fold_t2").model
        pair = make_fibering_pair(model, np.zeros(2))
        sample = sample_stratum(model, np.zeros(2), pair, count=20, seed=1)
        assert len(sample.points) == 20
        from singclass.fibering import PointFunctionals

        rng = np.random.default_rng(5)
        for pt, res in zip(sample.points, sample.residuals):
            assert res <= 1e-9
            assert linearize(model, pt).kdim == 1
            off = np.asarray(pt) + np.array([0.01, 0.0]) * rng.choice([-1.0, 1.0])
            pf = PointFunctionals(model, pair, off)
            assert abs(pf.J(0)) > 1e-4

    def test_failed_projections_halve_the_radius_then_drop_the_sample(self, monkeypatch):
        """On the cubic head every projection fails, here by the linear rate
        on a double zero of J_0: each sample tries five guesses, the radius
        halving from SAMPLE_RADIUS, and is then dropped without an error."""
        from singclass import strata

        model = gallery_map("cusp_source_t3").model
        guesses, project = [], strata.project_to_singular

        def recording(model, guess, *args, **kwargs):
            guesses.append(guess)
            return project(model, guess, *args, **kwargs)

        monkeypatch.setattr(strata, "project_to_singular", recording)
        sample = sample_stratum(model, np.zeros(2), bordered_pair(model, np.zeros(2)), count=1)
        assert (sample.points, sample.h_membership, sample.residuals) == ([], [], [])
        rng = np.random.default_rng(0)
        expect = [strata.SAMPLE_RADIUS * 0.5**i * rng.standard_normal(2) for i in range(5)]
        np.testing.assert_array_equal(np.array(guesses), np.array(expect))

    def test_membership_orders_recorded(self):
        model = gallery_map("eps_perturbed", {"eps": 0.0}).model
        pair = make_fibering_pair(model, np.zeros(2))
        sample = sample_stratum(model, np.zeros(2), pair, count=10, seed=2)
        # the whole axis consists of degenerate folds: J0 and J1 vanish
        assert all(h >= 2 for h in sample.h_membership)

    def test_negative_count_rejected(self):
        model = gallery_map("fold_t2").model
        pair = make_fibering_pair(model, [0.0, 0.7])
        with pytest.raises(ValueError, match="at least 0"):
            sample_stratum(model, [0.0, 0.7], pair, count=-3)

    def test_deterministic_for_seed(self):
        model = gallery_map("fold_t2").model
        pair = make_fibering_pair(model, np.zeros(2))
        a = sample_stratum(model, np.zeros(2), pair, count=5, seed=11)
        b = sample_stratum(model, np.zeros(2), pair, count=5, seed=11)
        assert np.array_equal(np.array(a.points), np.array(b.points))
