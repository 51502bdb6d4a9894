import numpy as np
import pytest

from singclass import jets
from singclass.errors import ParamOutOfRange, UnknownName
from singclass.gallery import gallery_map, list_gallery


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
    for entry in list_gallery():
        assert entry.expected
        for exp in entry.expected:
            assert exp.points
            assert exp.source
            for p in exp.points:
                assert len(p) == entry.model.n


PRESETS = [  # (preset, params, its family_kn member's (k, n, dimZ))
    ("fold_t2", {}, (0, 2, 1)),
    ("cusp_source_t3", {}, (0, 3, 1)),
    *[(name, {key: k, "dimZ": dimz}, (k, 0, dimz)) for k in (1, 2, 4, 8) for dimz in (0, 3)
      for name, key in (("transverse_k", "k"), ("l2_truncated", "N"))],
    *[("whitney", {"k": k, "dimZ": dimz}, (k - 1, k + 1, dimz)) for k in (1, 2, 5, 8)
      for dimz in (0, 2)],
]


def test_truncated_series_model_equals_unfolding_model():
    """Every preset is its family_kn member: the same values, jets of order 4
    and Jacobians bit for bit, and the same expected verdict."""
    rng = np.random.default_rng(2)
    for name, params, (k, n, dimz) in PRESETS:
        preset = gallery_map(name, params)
        member = gallery_map("family_kn", {"k": k, "n": n, "dimZ": dimz})
        assert preset.model.n == member.model.n
        assert [(e.kind, e.k) for e in preset.expected] == [(e.kind, e.k) for e in member.expected]
        for _ in range(3):
            u = rng.standard_normal(preset.model.n)
            assert np.array_equal(preset.model(u), member.model(u))
            assert np.array_equal(jets.jacobian(preset.model, u), jets.jacobian(member.model, u))
            v = rng.standard_normal(u.size)
            x = jets.constant(u, ["s"], [4]) + jets.unit(["s"], [4], "s") * v
            pj, mj = preset.model.eval(x), member.model.eval(x)
            for order in range(5):
                assert np.array_equal(pj.extract({"s": order}), mj.extract({"s": order}))


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_eps_rejected(eps):
    with pytest.raises(ParamOutOfRange, match="eps must be finite"):
        gallery_map("eps_perturbed", {"eps": eps})


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
    names = [(e.name, tuple(sorted(e.params.items()))) for e in list_gallery()]
    assert names == sorted(names)
