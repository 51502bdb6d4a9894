import numpy as np
import pytest

from singclass import jets
from singclass.errors import NonFiniteMatrix, SingularAffine
from singclass.gallery import gallery_map
from singclass.linalg import linearize
from singclass.model import (
    AffinePair,
    conjugate,
    random_affine_pair,
)
from singclass.model import MapModel, SMOOTH

from helpers import identity_affine, inverse_affine


def test_singular_affine_rejected():
    with pytest.raises(SingularAffine):
        AffinePair(np.zeros((2, 2)), np.zeros(2), np.eye(2), np.zeros(2))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_affine_rejected(bad):
    """Both matrices are judged by ``linalg.rank_decision``, which refuses a
    non-finite entry before its SVD."""
    M = np.array([[1.0, bad], [0.0, 1.0]])
    with pytest.raises(NonFiniteMatrix):
        AffinePair(np.eye(2), np.zeros(2), M, np.zeros(2))


def test_identity_conjugation_is_identity():
    fold = gallery_map("fold_t2").model
    same = conjugate(fold, identity_affine(2))
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = rng.standard_normal(2)
        np.testing.assert_allclose(same(u), fold(u), atol=1e-14)


def test_conjugate_roundtrip():
    model = gallery_map("whitney", {"k": 2}).model
    rng = np.random.default_rng(1)
    pair = random_affine_pair(2, rng)
    back = conjugate(conjugate(model, pair), inverse_affine(pair))
    for _ in range(10):
        u = rng.standard_normal(2)
        np.testing.assert_allclose(back(u), model(u), atol=1e-10)


def test_swap_moves_singular_set_to_first_axis():
    fold = gallery_map("fold_t2").model
    swap = AffinePair(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2),
                      np.eye(2), np.zeros(2))
    moved = conjugate(fold, swap)
    # gamma maps {t = 0} to {second coordinate = 0}: every (a, 0) is singular
    for a in (-1.0, 0.0, 0.5, 2.0):
        assert linearize(moved, [a, 0.0]).kdim == 1
    assert linearize(moved, [0.5, 0.3]).kdim == 0


def test_is_simple_singularity_verdicts():
    fold = gallery_map("fold_t2").model
    assert linearize(fold, [0.0, 0.3]).kdim == 1
    assert linearize(fold, [1.0, 0.0]).kdim == 0

    def doubly_degenerate(x):
        return jets.stack([jets.powi(jets.comp(x, 0), 2), jets.powi(jets.comp(x, 1), 2)])

    dd = MapModel(2, SMOOTH, doubly_degenerate, "doubly-degenerate")
    assert linearize(dd, [0.0, 0.0]).kdim == 2


def test_simplicity_invariant_under_conjugation():
    model = gallery_map("family_kn", {"k": 1, "n": 0}).model
    rng = np.random.default_rng(9)
    for _ in range(10):
        pair = random_affine_pair(model.n, rng)
        moved = conjugate(model, pair)
        for u in (np.zeros(model.n), rng.standard_normal(model.n)):
            base = linearize(model, u).kdim
            trans = linearize(moved, pair.apply_gamma(u)).kdim
            assert base == trans
