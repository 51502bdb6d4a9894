"""Built-in polynomial maps with known singularity types.

Every entry is a map of the local form (t, xi) |-> (f(t, xi), xi) whose
leading component is a small polynomial; the expected classification of each
listed base point is recorded as machine-readable fixture data, so the
gallery doubles as the principal acceptance suite.

All names but ``eps_perturbed`` are presets of one unfolding normal form,
``family_kn``: f = t^n + sum_{h=1..k} x_h t^h on R^(k+1+dimZ).  ``fold_t2``
and ``cusp_source_t3`` are (k, n, dimZ) = (0, 2, 1) and (0, 3, 1),
``transverse_k`` and ``l2_truncated`` are (k, 0, dimZ), and ``whitney`` is
(k-1, k+1, dimZ).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import classify, jets
from .errors import ParamOutOfRange, UnknownName
from .model import SMOOTH, MapModel

MAX_TOTAL_DIM = 32
_PARAM_KEYS = {"fold_t2": (), "cusp_source_t3": (), "transverse_k": ("k", "N", "dimZ"),
               "l2_truncated": ("k", "N", "dimZ"), "family_kn": ("k", "n", "dimZ"),
               "whitney": ("k", "dimZ"), "eps_perturbed": ("eps",)}  # the keys each reads
_PRESET_TEXT = {  # what a preset says in place of its family_kn member's fixture text
    "fold_t2": dict(
        description="points on the xi-axis", points=((0.0, 0.0), (0.0, 0.7), (0.0, -1.3)),
        source="t^2 normal form: second t-derivative nonzero on the singular axis"),
    "cusp_source_t3": dict(
        description="points on the xi-axis", points=((0.0, 0.0), (0.0, 0.4)),
        source="t^3 head with no unfolding terms: all first-order functional data vanish"),
    "transverse_k": dict(
        source="full unfolding with no pure power: order-k transverse, next row dependent"),
    "whitney": dict(source="t^{k+1} head with complete lower-order unfolding"),
}
_PRESET_TEXT["l2_truncated"] = _PRESET_TEXT["transverse_k"]


@dataclass(frozen=True)
class ExpectedPoints:
    """A family of points sharing one expected classification."""

    description: str
    points: tuple[tuple[float, ...], ...]
    kind: str
    k: int | None
    source: str


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    params: dict
    model: MapModel
    expected: tuple[ExpectedPoints, ...] = field(default_factory=tuple)


def _ls_polynomial_model(n: int, head, label: str) -> MapModel:
    """Map (x0, x1, ..) |-> (head(x), x1, ..) with all trailing coordinates passed through."""

    def ev(x):
        parts = [head(x)] + [jets.comp(x, i) for i in range(1, n)]
        return jets.stack(parts)

    return MapModel(n, SMOOTH, ev, label)


def _unfolding_head(k: int, n_exp: int):
    """head(x) = [n_exp > 0] * x0^n_exp + sum_{h=1..k} x_h * x0^h."""

    def head(x):
        t = jets.comp(x, 0)
        acc = jets.powi(t, n_exp) if n_exp > 0 else t * 0.0
        for h in range(1, k + 1):
            acc = acc + jets.comp(x, h) * jets.powi(t, h)
        return acc

    return head


def _check(cond: bool, msg: str):
    if not cond:
        raise ParamOutOfRange(msg)


def _int_param(params: dict, key: str, default) -> int:
    value = params.get(key, default)
    _check(float(value).is_integer(), f"{key} must be an integer, got {value!r}")
    return int(value)


def _unfolding(name: str, params: dict, label: str, k: int, n_exp: int, dimz: int) -> GalleryEntry:
    """The family_kn member (k, n_exp, dimz), entered as ``name``: checks dimZ
    and the total dimension, and gives a preset its own fixture text."""
    _check(dimz >= 0, "dimZ must be >= 0")
    n = k + 1 + dimz
    _check(n <= MAX_TOTAL_DIM, f"total dimension {n} exceeds {MAX_TOTAL_DIM}")
    model = _ls_polynomial_model(n, _unfolding_head(k, n_exp), label)
    expected = replace(_family_expected(k, n_exp, n), **_PRESET_TEXT.get(name, {}))
    return GalleryEntry(name, params, model, (expected,))


def _eps_perturbed(eps: float) -> GalleryEntry:
    """Head t*xi - (eps/2) t^2, whose singular points lie on the line xi = eps*t."""

    def head(x):
        t = jets.comp(x, 0)
        xi = jets.comp(x, 1)
        return t * xi - jets.powi(t, 2) * (eps / 2.0)

    ts = (0.0, 0.6, -1.1)
    if eps == 0.0:
        expected = ExpectedPoints(
            "points on the t-axis", tuple((t, 0.0) for t in ts), classify.MAXIMAL_K_TRANSVERSE, 1,
            "t*xi head: singular line of degenerate folds, destroyed by perturbation")
    else:
        expected = ExpectedPoints(
            "points on the line xi = eps*t", tuple((t, eps * t) for t in ts),
            classify.K_SINGULARITY, 1,
            "quadratic perturbation makes every singular point an ordinary fold")
    model = _ls_polynomial_model(2, head, f"eps_perturbed(eps={eps:g})")
    return GalleryEntry("eps_perturbed", {"eps": eps}, model, (expected,))


def gallery_map(name: str, params: dict | None = None) -> GalleryEntry:
    """Construct a gallery entry by name.

    ``_PARAM_KEYS`` lists the names and the parameters each reads; any other
    key raises ``ParamOutOfRange``.  Parameters k, N, n and dimZ are integers
    (integral floats pass) with k <= 8, exponent n <= 12, dimZ >= 0 and total
    dimension <= 32; eps is finite.
    """
    if name not in _PARAM_KEYS:
        raise UnknownName(f"unknown gallery map {name!r}")
    params = dict(params or {})
    for key in params:
        _check(key in _PARAM_KEYS[name], f"{name} has no parameter {key!r}")
    if name == "eps_perturbed":
        eps = float(params.get("eps", 0.0))
        _check(math.isfinite(eps), f"eps must be finite, got {eps!r}")
        return _eps_perturbed(eps)
    if name in ("fold_t2", "cusp_source_t3"):
        return _unfolding(name, {}, name, 0, 2 if name == "fold_t2" else 3, 1)
    if name == "family_kn":
        k = _int_param(params, "k", 1)
        n_exp = _int_param(params, "n", 0)
        dimz = _int_param(params, "dimZ", 1)
        # k <= 8: the verified fixtures; deeper ones wait on a rank test for |I_k| ~ k!
        _check(0 <= k <= 8, "k must be in 0..8")
        _check(0 <= n_exp <= 12, "n must be in 0..12")
        label = f"family_kn(k={k},n={n_exp},dimZ={dimz})"
        return _unfolding(name, {"k": k, "n": n_exp, "dimZ": dimz}, label, k, n_exp, dimz)
    # whitney, transverse_k and l2_truncated, whose N is an alias of k
    k = _int_param(params, "k", 1 if name == "whitney" else _int_param(params, "N", 2))
    dimz = _int_param(params, "dimZ", 0)
    _check(1 <= k <= 8, "k must be in 1..8")  # the verified fixtures, as above
    label = f"{name}(k={k},dimZ={dimz})"
    if name == "whitney":
        return _unfolding(name, {"k": k, "dimZ": dimz}, label, k - 1, k + 1, dimz)
    key = "N" if name == "l2_truncated" else "k"  # l2_truncated echoes N
    return _unfolding(name, {key: k, "dimZ": dimz}, label, k, 0, dimz)


def _family_expected(k: int, n_exp: int, n: int) -> ExpectedPoints:
    """The verdict of the family_kn member (k, n_exp) at the origin of R^n."""
    if n_exp == 1:
        verdict = classify.REGULAR, None, "linear head: the derivative is an isomorphism"
    elif k == 0 and n_exp == 2:
        verdict = classify.K_SINGULARITY, 1, "pure t^2 head: ordinary fold"
    elif k == 0:
        verdict = classify.NOT_ONE_TRANSVERSE, None, "no unfolding terms and head flatter than t^2"
    elif n_exp == 0 or n_exp >= k + 3:
        verdict = (classify.MAXIMAL_K_TRANSVERSE, k,
                   "head does not interfere below order k+2: maximal k-transverse")
    else:
        verdict = (classify.K_SINGULARITY, n_exp - 1,
                   "t^n head dominates: ordinary singularity of order n-1")
    return ExpectedPoints("origin", ((0.0,) * n,), *verdict)


def list_gallery(kind_filter: str | None = None) -> list[GalleryEntry]:
    """The representative fixture set of the CLI listing, sorted by name and
    parameters; ``kind_filter`` keeps the entries expecting that kind."""
    entries = [
        gallery_map("fold_t2"),
        gallery_map("cusp_source_t3"),
        gallery_map("transverse_k", {"k": 3, "dimZ": 0}),
        gallery_map("whitney", {"k": 2, "dimZ": 0}),
        gallery_map("whitney", {"k": 3, "dimZ": 2}),
        gallery_map("family_kn", {"k": 2, "n": 0}),
        gallery_map("family_kn", {"k": 2, "n": 3}),
        gallery_map("family_kn", {"k": 0, "n": 3}),
        gallery_map("l2_truncated", {"N": 3}),
        gallery_map("eps_perturbed", {"eps": 0.0}),
        gallery_map("eps_perturbed", {"eps": 0.1}),
    ]
    if kind_filter:
        entries = [
            e for e in entries if any(x.kind == kind_filter for x in e.expected)
        ]
    return sorted(entries, key=lambda e: (e.name, sorted(e.params.items())))
