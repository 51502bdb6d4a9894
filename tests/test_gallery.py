import numpy as np
import pytest

from singclass.errors import ParamOutOfRange, UnknownName
from singclass.gallery import default_entries, gallery_map, list_gallery


def test_unknown_name():
    with pytest.raises(UnknownName):
        gallery_map("moebius")


def test_param_ranges():
    with pytest.raises(ParamOutOfRange):
        gallery_map("whitney", {"k": 9})
    with pytest.raises(ParamOutOfRange):
        gallery_map("family_kn", {"k": 2, "n": 13})
    with pytest.raises(ParamOutOfRange):
        gallery_map("transverse_k", {"k": 8, "dimZ": 40})



@pytest.mark.parametrize("name, params", [
    ("whitney", {"k": 2.5}),
    ("whitney", {"k": 2, "dimZ": 0.5}),
    ("transverse_k", {"k": 1.5}),
    ("l2_truncated", {"N": 2.2}),
    ("family_kn", {"k": 2, "n": 3.5}),
])
def test_integer_params_must_be_integral(name, params):
    with pytest.raises(ParamOutOfRange):
        gallery_map(name, params)


@pytest.mark.parametrize("name, params, key", [
    ("whitney", {"kk": 3}, "kk"),
    ("whitney", {"k": 2, "n": 3}, "n"),
    ("fold_t2", {"k": 1}, "k"),
    ("cusp_source_t3", {"eps": 0.1}, "eps"),
    ("transverse_k", {"k": 2, "n": 0}, "n"),
    ("l2_truncated", {"N": 2, "eps": 0.0}, "eps"),
    ("family_kn", {"k": 1, "N": 2}, "N"),
    ("eps_perturbed", {"eps": 0.1, "k": 2}, "k"),
])
def test_unknown_parameter_key_rejected(name, params, key):
    with pytest.raises(ParamOutOfRange, match=repr(key)):
        gallery_map(name, params)


def test_integral_float_params_are_accepted():
    entry = gallery_map("whitney", {"k": 2.0, "dimZ": 1.0})
    assert entry.params == {"k": 2, "dimZ": 1}
    assert entry.model.label == "whitney(k=2,dimZ=1)"

def test_expected_fixtures_have_points_and_notes():
    for entry in default_entries():
        assert entry.expected
        for exp in entry.expected:
            assert exp.points
            assert exp.source
            for p in exp.points:
                assert len(p) == entry.model.n


def test_truncated_series_model_equals_unfolding_model():
    """The N-mode truncation of the series map is the same polynomial map as
    the plain unfolding with k = N (checked by evaluation)."""
    rng = np.random.default_rng(2)
    for N in (2, 3, 4):
        trunc = gallery_map("l2_truncated", {"N": N}).model
        plain = gallery_map("transverse_k", {"k": N}).model
        assert trunc.n == plain.n
        for _ in range(10):
            u = rng.standard_normal(trunc.n)
            np.testing.assert_allclose(trunc(u), plain(u), atol=1e-14)


def test_whitney_head_formula():
    w3 = gallery_map("whitney", {"k": 3, "dimZ": 0}).model
    t, a, b = 0.3, -0.2, 0.5
    val = w3(np.array([t, a, b]))
    assert val[0] == pytest.approx(t**4 + a * t + b * t**2)
    np.testing.assert_allclose(val[1:], [a, b])


def test_listing_filter():
    kinds = {e.name for e in list_gallery("MaximalKTransverse")}
    assert "family_kn" in kinds and "l2_truncated" in kinds
    assert "cusp_source_t3" not in kinds


def test_listing_sorted_and_stable():
    names = [(e.name, tuple(sorted(e.params.items()))) for e in default_entries()]
    assert names == sorted(names)
