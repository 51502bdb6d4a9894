"""Built-in polynomial maps with known singularity types.

Every entry is a map of the local form (t, xi) |-> (f(t, xi), xi) whose
leading component is a small polynomial; the expected classification of each
listed base point is recorded as machine-readable fixture data, so the
gallery doubles as the principal acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import classify, jets
from .errors import ParamOutOfRange, UnknownName
from .model import SMOOTH, MapModel

MAX_TOTAL_DIM = 32
_PARAM_KEYS = {"fold_t2": (), "cusp_source_t3": (), "transverse_k": ("k", "N", "dimZ"),
               "l2_truncated": ("k", "N", "dimZ"), "family_kn": ("k", "n", "dimZ"),
               "whitney": ("k", "dimZ"), "eps_perturbed": ("eps",)}  # the keys each reads


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


def _origin(n: int) -> tuple[tuple[float, ...], ...]:
    return (tuple(0.0 for _ in range(n)),)


def gallery_map(name: str, params: dict | None = None) -> GalleryEntry:
    """Construct a gallery entry by name.

    ``_PARAM_KEYS`` lists the names and the parameters each reads; any other
    key raises ``ParamOutOfRange``.  Parameters k, N, n and dimZ are integers
    (integral floats pass) with k <= 8, exponent n <= 12, dimZ >= 0 and total
    dimension <= 32.
    """
    if name not in _PARAM_KEYS:
        raise UnknownName(f"unknown gallery map {name!r}")
    params = dict(params or {})
    for key in params:
        _check(key in _PARAM_KEYS[name], f"{name} has no parameter {key!r}")
    if name == "fold_t2":
        model = _ls_polynomial_model(2, lambda x: jets.powi(jets.comp(x, 0), 2), "fold_t2")
        expected = (
            ExpectedPoints(
                "points on the xi-axis",
                ((0.0, 0.0), (0.0, 0.7), (0.0, -1.3)),
                classify.K_SINGULARITY,
                1,
                "t^2 normal form: second t-derivative nonzero on the singular axis",
            ),
        )
        return GalleryEntry(name, {}, model, expected)

    if name == "cusp_source_t3":
        model = _ls_polynomial_model(2, lambda x: jets.powi(jets.comp(x, 0), 3), "cusp_source_t3")
        expected = (
            ExpectedPoints(
                "points on the xi-axis",
                ((0.0, 0.0), (0.0, 0.4)),
                classify.NOT_ONE_TRANSVERSE,
                None,
                "t^3 head with no unfolding terms: all first-order functional data vanish",
            ),
        )
        return GalleryEntry(name, {}, model, expected)

    if name in ("transverse_k", "l2_truncated"):
        k = _int_param(params, "k", _int_param(params, "N", 2))
        dimz = _int_param(params, "dimZ", 0)
        _check(1 <= k <= 8, "k must be in 1..8")
        _check(dimz >= 0, "dimZ must be >= 0")
        n = k + 1 + dimz
        _check(n <= MAX_TOTAL_DIM, f"total dimension {n} exceeds {MAX_TOTAL_DIM}")
        label = f"{name}(k={k},dimZ={dimz})"
        model = _ls_polynomial_model(n, _unfolding_head(k, 0), label)
        expected = (
            ExpectedPoints(
                "origin",
                _origin(n),
                classify.MAXIMAL_K_TRANSVERSE,
                k,
                "full unfolding with no pure power: order-k transverse, next row dependent",
            ),
        )
        key = "N" if name == "l2_truncated" else "k"
        return GalleryEntry(name, {key: k, "dimZ": dimz}, model, expected)

    if name == "family_kn":
        k = _int_param(params, "k", 1)
        n_exp = _int_param(params, "n", 0)
        dimz = _int_param(params, "dimZ", 1)
        _check(0 <= k <= 8, "k must be in 0..8")
        _check(0 <= n_exp <= 12, "n must be in 0..12")
        _check(dimz >= 0, "dimZ must be >= 0")
        n = k + 1 + dimz
        _check(n <= MAX_TOTAL_DIM, f"total dimension {n} exceeds {MAX_TOTAL_DIM}")
        label = f"family_kn(k={k},n={n_exp},dimZ={dimz})"
        model = _ls_polynomial_model(n, _unfolding_head(k, n_exp), label)
        expected = (_family_expected(k, n_exp, n),)
        return GalleryEntry(name, {"k": k, "n": n_exp, "dimZ": dimz}, model, expected)

    if name == "whitney":
        k = _int_param(params, "k", 1)
        dimz = _int_param(params, "dimZ", 0)
        _check(1 <= k <= 8, "k must be in 1..8")
        _check(dimz >= 0, "dimZ must be >= 0")
        n = k + dimz
        _check(n <= MAX_TOTAL_DIM, f"total dimension {n} exceeds {MAX_TOTAL_DIM}")
        label = f"whitney(k={k},dimZ={dimz})"
        model = _ls_polynomial_model(n, _unfolding_head(k - 1, k + 1), label)
        expected = (
            ExpectedPoints(
                "origin",
                _origin(n),
                classify.K_SINGULARITY,
                k,
                "t^{k+1} head with complete lower-order unfolding",
            ),
        )
        return GalleryEntry(name, {"k": k, "dimZ": dimz}, model, expected)

    if name == "eps_perturbed":
        eps = float(params.get("eps", 0.0))

        def head(x):
            t = jets.comp(x, 0)
            xi = jets.comp(x, 1)
            return t * xi - jets.powi(t, 2) * (eps / 2.0)

        model = _ls_polynomial_model(2, head, f"eps_perturbed(eps={eps:g})")
        if eps == 0.0:
            expected = (
                ExpectedPoints(
                    "points on the t-axis",
                    ((0.0, 0.0), (0.6, 0.0), (-1.1, 0.0)),
                    classify.MAXIMAL_K_TRANSVERSE,
                    1,
                    "t*xi head: singular line of degenerate folds, destroyed by perturbation",
                ),
            )
        else:
            pts = tuple((t, eps * t) for t in (0.0, 0.6, -1.1))
            expected = (
                ExpectedPoints(
                    "points on the line xi = eps*t",
                    pts,
                    classify.K_SINGULARITY,
                    1,
                    "quadratic perturbation makes every singular point an ordinary fold",
                ),
            )
        return GalleryEntry(name, {"eps": eps}, model, expected)


def _family_expected(k: int, n_exp: int, n: int) -> ExpectedPoints:
    origin = _origin(n)
    if n_exp == 1:
        return ExpectedPoints(
            "origin", origin, classify.REGULAR, None,
            "linear head: the derivative is an isomorphism",
        )
    if k == 0:
        if n_exp == 2:
            return ExpectedPoints(
                "origin", origin, classify.K_SINGULARITY, 1,
                "pure t^2 head: ordinary fold",
            )
        return ExpectedPoints(
            "origin", origin, classify.NOT_ONE_TRANSVERSE, None,
            "no unfolding terms and head flatter than t^2",
        )
    if n_exp == 0 or n_exp >= k + 3:
        return ExpectedPoints(
            "origin", origin, classify.MAXIMAL_K_TRANSVERSE, k,
            "head does not interfere below order k+2: maximal k-transverse",
        )
    return ExpectedPoints(
        "origin", origin, classify.K_SINGULARITY, n_exp - 1,
        "t^n head dominates: ordinary singularity of order n-1",
    )


def default_entries() -> list[GalleryEntry]:
    """Representative fixture set used by the CLI listing."""
    out = [
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
    return sorted(out, key=lambda e: (e.name, sorted(e.params.items())))


def list_gallery(kind_filter: str | None = None) -> list[GalleryEntry]:
    entries = default_entries()
    if kind_filter:
        entries = [
            e for e in entries if any(x.kind == kind_filter for x in e.expected)
        ]
    return entries
