import numpy as np
import pytest

from helpers import record_jet_jacobians
from singclass import jets
from singclass.bvp import PeriodicProblem, make_periodic_bvp
from singclass.gallery import gallery_map
from singclass.verify import scaling_law_error, verify_problem


def test_whitney_record_passes():
    model = gallery_map("whitney", {"k": 3, "dimZ": 0}).model
    rec = verify_problem(model, np.zeros(3), trials=8, seed=7)
    assert rec.passed
    assert rec.rescale_trials == 8 and rec.conjugate_trials == 8
    assert rec.scaling_law_error is not None and rec.scaling_law_error <= 1e-8
    assert rec.stratification is not None


def test_eps_family_kinds_differ_as_stated():
    flat = gallery_map("eps_perturbed", {"eps": 0.0}).model
    bent = gallery_map("eps_perturbed", {"eps": 0.1}).model
    rec0 = verify_problem(flat, np.array([0.5, 0.0]), trials=5, seed=1)
    rec1 = verify_problem(bent, np.array([0.5, 0.05]), trials=5, seed=1)
    assert rec0.passed and rec1.passed
    assert (rec0.base.kind, rec0.base.k) == ("MaximalKTransverse", 1)
    assert (rec1.base.kind, rec1.base.k) == ("KSingularity", 1)


def test_not_one_transverse_fixture_skips_stratification():
    model = gallery_map("cusp_source_t3").model
    rec = verify_problem(model, np.zeros(2), trials=5, seed=2)
    assert rec.passed
    assert rec.stratification is None
    assert rec.base.kind == "NotOneTransverse"


def test_regular_point_has_no_pair_trials():
    model = gallery_map("fold_t2").model
    rec = verify_problem(model, np.array([1.0, 0.0]), trials=5, seed=3)
    assert rec.passed
    assert rec.rescale_trials == 0
    assert rec.conjugate_trials == 5


def test_deterministic_given_seed():
    model = gallery_map("whitney", {"k": 2, "dimZ": 0}).model
    a = verify_problem(model, np.zeros(2), trials=6, seed=9)
    b = verify_problem(model, np.zeros(2), trials=6, seed=9)
    assert a.scaling_law_error == b.scaling_law_error
    assert (a.rescale_failures, a.conjugate_failures) == (b.rescale_failures, b.conjugate_failures)


def test_scaling_law_error_tiny_on_fold():
    err = scaling_law_error(gallery_map("fold_t2").model, [0.0, 0.0])
    assert err <= 1e-12


def test_base_point_is_linearized_once(monkeypatch):
    model = gallery_map("whitney", {"k": 3, "dimZ": 2}).model
    u = np.zeros(model.n)
    calls = []
    jacobian = jets.jacobian

    def counting_jacobian(m, x):
        if m is model and not isinstance(x, jets.Jet) and np.array_equal(x, u):
            calls.append(x)
        return jacobian(m, x)

    monkeypatch.setattr(jets, "jacobian", counting_jacobian)
    rec = verify_problem(model, u, trials=20, seed=7)
    assert rec.rescale_trials == 20 and rec.stratification is not None
    assert len(calls) == 1


def test_periodic_problem_record_keeps_the_operator_under_conjugation(monkeypatch):
    """The quartic periodic problem carries ``jac``: every conjugated trial
    classifies as the base point does, and every jet-point Jacobian built on
    the way, the conjugated models' included, is the operator."""
    kinds = record_jet_jacobians(monkeypatch)
    model = make_periodic_bvp(PeriodicProblem(N=32, a_terms=((1, 0.0, 1.0),),
                                              p_terms=((0, 1.0, 0.0),)))
    rec = verify_problem(model, np.zeros(32), trials=5, seed=0)
    assert rec.passed
    assert (rec.base.kind, rec.base.k) == ("KSingularity", 3)
    assert rec.conjugate_trials == 5 and rec.conjugate_failures == 0
    assert kinds and set(kinds) == {jets.MatrixPlusDiag}


@pytest.mark.parametrize("trials", [0, -4])
def test_trials_below_one_rejected(trials):
    # a pass with no trials would claim an invariance that was never tested
    model = gallery_map("fold_t2").model
    with pytest.raises(ValueError, match="at least 1"):
        verify_problem(model, np.zeros(2), trials=trials)
