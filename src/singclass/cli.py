"""Command-line entry point.

Subcommands: classify, gallery, verify, bvp, strata.  Problems come from a
config document (--config) or from flags; flags override config values.
Reports are deterministic for a fixed seed; the wall time of a run is
printed to stderr only, so report files are byte-stable.

Exit codes: 0 decisive result, 1 error, 2 indeterminate.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import bvp as bvpmod
from . import report as reportmod
from . import strata as stratamod
from .classify import INDETERMINATE, Classification, Tolerances, classify_point
from .errors import ConfigParseError, SingclassError
from .fibering import make_fibering_pair
from .gallery import gallery_map, list_gallery
from .model import MapModel, conjugate, random_affine_pair
from .verify import verify_problem

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INDETERMINATE = 2


@dataclass
class AnalysisConfig:
    problem_kind: str = "gallery"          # gallery | bvp
    name: str | None = None
    params: dict = field(default_factory=dict)
    bvp_n: int = 64
    bvp_scheme: str = "spectral"
    bvp_a: tuple = ()
    bvp_p: tuple = ()
    bvp_g: str = "quartic"
    bvp_g_coeffs: tuple = ()
    bvp_g_beta: float = 1.0
    conjugate_seed: int | None = None
    point: list | None = None
    k_cap: int = 6
    route: str = "both"
    tol: Tolerances = field(default_factory=Tolerances)
    seed: int = 0
    out: str | None = None
    machine: bool = False
    project: bool = False
    trials: int = 50
    stratum_h: int = 1
    samples: int = 20

    def echo_entries(self) -> list[tuple[str, object]]:
        entries = [
            ("config.problem.kind", self.problem_kind),
        ]
        if self.problem_kind == "gallery":
            entries += [
                ("config.problem.name", self.name),
                ("config.problem.params", self.params),
            ]
        else:
            entries += [
                ("config.bvp.N", self.bvp_n),
                ("config.bvp.scheme", self.bvp_scheme),
                ("config.bvp.a", [list(t) for t in self.bvp_a]),
                ("config.bvp.p", [list(t) for t in self.bvp_p]),
                ("config.bvp.g", self.bvp_g),
                ("config.bvp.g_coeffs", list(self.bvp_g_coeffs)),
                ("config.bvp.g_beta", self.bvp_g_beta),
            ]
        if self.conjugate_seed is not None:
            entries.append(("config.problem.conjugate_seed", self.conjugate_seed))
        entries += [
            ("config.point", [float(x) for x in self.point] if self.point is not None else None),
            ("config.k_cap", self.k_cap),
            ("config.route", self.route),
            ("config.seed", self.seed),
            ("config.tol.rank", self.tol.rank),
            ("config.tol.zero", self.tol.zero),
            ("config.tol.nonzero", self.tol.nonzero),
        ]
        return entries


def _config_from_file(path: str) -> AnalysisConfig:
    data = reportmod.parse(Path(path).read_text())
    cfg = AnalysisConfig()
    if data.get("schema_version", reportmod.SCHEMA_VERSION) != reportmod.SCHEMA_VERSION:
        raise ConfigParseError("unsupported schema_version")
    simple = {
        "problem.kind": "problem_kind",
        "problem.name": "name",
        "problem.params": "params",
        "problem.conjugate_seed": "conjugate_seed",
        "point": "point",
        "k_cap": "k_cap",
        "route": "route",
        "seed": "seed",
        "out": "out",
        "trials": "trials",
        "bvp.N": "bvp_n",
        "bvp.scheme": "bvp_scheme",
        "bvp.g": "bvp_g",
        "bvp.g_beta": "bvp_g_beta",
    }
    tol = {}
    for key, value in data.items():
        if key == "schema_version":
            continue
        if key in simple:
            setattr(cfg, simple[key], value)
        elif key == "bvp.a":
            cfg.bvp_a = tuple(tuple(t) for t in value)
        elif key == "bvp.p":
            cfg.bvp_p = tuple(tuple(t) for t in value)
        elif key == "bvp.g_coeffs":
            cfg.bvp_g_coeffs = tuple(value)
        elif key == "tol.rank":
            tol["rank"] = value
        elif key == "tol.zero":
            tol["zero"] = value
        elif key == "tol.nonzero":
            tol["nonzero"] = value
        else:
            raise ConfigParseError(f"unknown config key {key!r}")
    if tol:
        cfg.tol = replace(cfg.tol, **tol)
    return cfg


def _apply_flags(cfg: AnalysisConfig, args: argparse.Namespace) -> AnalysisConfig:
    if getattr(args, "gallery", None):
        cfg.problem_kind = "gallery"
        cfg.name = args.gallery
    for spec in getattr(args, "param", None) or []:
        key, _, value = spec.partition("=")
        if not value:
            raise ConfigParseError(f"bad --param {spec!r}, expected key=value")
        try:
            cfg.params[key] = int(value)
        except ValueError:
            cfg.params[key] = float(value)
    if getattr(args, "bvp_a", None):
        cfg.problem_kind = "bvp"
        cfg.bvp_a = tuple(tuple(t) for t in _parse_terms(args.bvp_a))
    if getattr(args, "bvp_p", None):
        cfg.bvp_p = tuple(tuple(t) for t in _parse_terms(args.bvp_p))
    if getattr(args, "bvp_n", None):
        cfg.problem_kind = "bvp"
        cfg.bvp_n = args.bvp_n
    if getattr(args, "bvp_scheme", None):
        cfg.bvp_scheme = args.bvp_scheme
    if args.point is not None:
        cfg.point = [float(x) for x in args.point.split(",")]
    if args.k_cap is not None:
        cfg.k_cap = args.k_cap
    if args.route is not None:
        cfg.route = args.route
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out = args.out
    tol = {}
    if args.tol_rank is not None:
        tol["rank"] = args.tol_rank
    if args.tol_zero is not None:
        tol["zero"] = args.tol_zero
    if args.tol_nonzero is not None:
        tol["nonzero"] = args.tol_nonzero
    if tol:
        cfg.tol = replace(cfg.tol, **tol)
    cfg.machine = bool(getattr(args, "machine", False))
    cfg.project = bool(getattr(args, "project", False))
    if getattr(args, "trials", None) is not None:
        cfg.trials = args.trials
    if getattr(args, "stratum_h", None) is not None:
        cfg.stratum_h = args.stratum_h
    if getattr(args, "samples", None) is not None:
        cfg.samples = args.samples
    return cfg


def _parse_terms(text: str):
    import ast

    value = ast.literal_eval(text)
    return [tuple(t) for t in value]


def build_problem(cfg: AnalysisConfig) -> tuple[MapModel, np.ndarray]:
    if cfg.problem_kind == "gallery":
        if not cfg.name:
            raise ConfigParseError("no gallery name given")
        entry = gallery_map(cfg.name, cfg.params)
        model = entry.model
        point = np.asarray(
            cfg.point if cfg.point is not None else entry.expected[0].points[0], dtype=float
        )
    elif cfg.problem_kind == "bvp":
        problem = bvpmod.PeriodicProblem(
            N=cfg.bvp_n,
            a_terms=tuple(tuple(t) for t in cfg.bvp_a),
            p_terms=tuple(tuple(t) for t in cfg.bvp_p),
            g_kind=cfg.bvp_g,
            g_coeffs=tuple(cfg.bvp_g_coeffs),
            g_beta=cfg.bvp_g_beta,
            scheme=cfg.bvp_scheme,
        )
        model = bvpmod.make_periodic_bvp(problem)
        point = np.asarray(
            cfg.point if cfg.point is not None else np.zeros(cfg.bvp_n), dtype=float
        )
    else:
        raise ConfigParseError(f"unknown problem kind {cfg.problem_kind!r}")
    if point.shape != (model.n,):
        raise ConfigParseError(f"point has dimension {point.shape}, model needs {model.n}")
    if cfg.conjugate_seed is not None:
        rng = np.random.default_rng(cfg.conjugate_seed)
        affine = random_affine_pair(model.n, rng)
        model = conjugate(model, affine)
        point = np.asarray(affine.apply_gamma(point), dtype=float)
    return model, point


def _emit(cfg: AnalysisConfig, entries: list[tuple[str, object]]) -> None:
    text = reportmod.render(entries)
    if cfg.out:
        Path(cfg.out).write_text(text)
    else:
        sys.stdout.write(text)


def _classification_entries(c: Classification) -> list[tuple[str, object]]:
    e = [
        ("result.kind", c.kind),
        ("result.k", c.k),
        ("result.kdim", c.kdim),
        ("result.transversality_order", c.transversality_order),
        ("result.stage", c.stage),
        ("result.route_agreement", c.evidence.route_agreement),
        ("result.projected", c.evidence.projected),
        ("jacobian.singular_values", c.evidence.jacobian_singular_values),
    ]
    for ev in c.evidence.routes:
        p = f"route.{ev.route}"
        e.append((f"{p}.pair", ev.pair_id))
        e.append((f"{p}.kind", ev.kind))
        e.append((f"{p}.k", ev.k))
        e.append((f"{p}.transversality_order", ev.transversality_order))
        e.append((f"{p}.stage", ev.stage))
        e.append((f"{p}.J", ev.J_values))
        for size in sorted(ev.singular_values):
            e.append((f"{p}.sv.{size}", ev.singular_values[size]))
    return e


def cmd_classify(cfg: AnalysisConfig) -> int:
    model, point = build_problem(cfg)
    projected = False
    if cfg.project:
        pair = make_fibering_pair(model, _nearest_singular_seed(model, point, cfg))
        point = stratamod.project_to_singular(model, point, pair, tol=cfg.tol)
        projected = True
    c = classify_point(model, point, k_cap=cfg.k_cap, tol=cfg.tol, route=cfg.route)
    c.evidence.projected = projected
    entries = [
        ("schema_version", reportmod.SCHEMA_VERSION),
        ("report", "classify"),
        ("problem.label", model.label),
    ]
    entries += cfg.echo_entries()
    entries += [("point", [float(x) for x in point])]
    entries += _classification_entries(c)
    _emit(cfg, entries)
    return EXIT_INDETERMINATE if c.kind == INDETERMINATE else EXIT_OK


def _nearest_singular_seed(model: MapModel, point: np.ndarray, cfg: AnalysisConfig):
    """Anchor for the projection pair: the point itself if already simple,
    otherwise a short deterministic search along coordinate directions."""
    from .model import is_simple_singularity

    kdim, verdict = is_simple_singularity(model, point, cfg.tol.rank)
    if verdict == "simple":
        return point
    for scale in (0.0, 0.1, -0.1, 0.3, -0.3):
        for i in range(model.n):
            cand = point.copy()
            cand[i] += scale
            kdim, verdict = is_simple_singularity(model, cand, cfg.tol.rank)
            if verdict == "simple":
                return cand
    return point


def cmd_gallery(cfg: AnalysisConfig, kind_filter: str | None) -> int:
    entries = list_gallery(kind_filter)
    if cfg.machine:
        for e in entries:
            for exp in e.expected:
                params = ",".join(f"{k}={v}" for k, v in sorted(e.params.items()))
                sys.stdout.write(
                    f"name={e.name} params={params or '-'} expected={exp.kind}"
                    f"{'' if exp.k is None else '(%d)' % exp.k} points={len(exp.points)}\n"
                )
        return EXIT_OK
    for e in entries:
        sys.stdout.write(f"{e.name}  params={e.params}\n")
        for exp in e.expected:
            k = "" if exp.k is None else f"(k={exp.k})"
            sys.stdout.write(f"    {exp.description}: {exp.kind}{k}\n")
            sys.stdout.write(f"      note: {exp.source}\n")
    return EXIT_OK


def cmd_verify(cfg: AnalysisConfig) -> int:
    model, point = build_problem(cfg)
    rec = verify_problem(model, point, trials=cfg.trials, seed=cfg.seed,
                         k_cap=cfg.k_cap, tol=cfg.tol)
    entries = [
        ("schema_version", reportmod.SCHEMA_VERSION),
        ("report", "verify"),
        ("problem.label", model.label),
    ]
    entries += cfg.echo_entries()
    entries += [
        ("base.kind", rec.base.kind),
        ("base.k", rec.base.k),
        ("rescale.trials", rec.rescale_trials),
        ("rescale.failures", rec.rescale_failures),
        ("conjugate.trials", rec.conjugate_trials),
        ("conjugate.failures", rec.conjugate_failures),
        ("route_agreement", rec.route_agreement),
        ("scaling_law_error", rec.scaling_law_error),
    ]
    if rec.stratification is not None:
        s = rec.stratification
        entries += [
            ("stratification.ranks", {str(k): v for k, v in sorted(s.ranks.items())}),
            ("stratification.rank_ok", all(s.rank_ok.values())),
            ("stratification.phi_in_tangent", s.phi_in_tangent),
            ("stratification.J_k_zero", s.J_k_zero),
            ("stratification.dichotomy_consistent", s.dichotomy_consistent),
            ("stratification.sampled_rank1_ok", s.sampled_rank1_ok),
        ]
    entries.append(("passed", rec.passed))
    _emit(cfg, entries)
    return EXIT_OK if rec.passed else EXIT_ERROR


def cmd_bvp(cfg: AnalysisConfig) -> int:
    if not cfg.bvp_a:
        raise ConfigParseError("bvp analysis needs coefficient terms (bvp.a)")
    model, point = build_problem(cfg)
    c = classify_point(model, point, k_cap=cfg.k_cap, tol=cfg.tol, route=cfg.route)
    entries = [
        ("schema_version", reportmod.SCHEMA_VERSION),
        ("report", "bvp"),
        ("problem.label", model.label),
    ]
    entries += cfg.echo_entries()
    entries += _classification_entries(c)
    if cfg.bvp_g == "quartic" and not np.any(point):
        check = bvpmod.quartic_cross_check(cfg.bvp_a, cfg.bvp_p, N=cfg.bvp_n,
                                      scheme=cfg.bvp_scheme, tol=cfg.tol.rank)
        for key in ("I1_cosine", "I1_scalar", "I2_cosine", "I2_scalar",
                    "J3_numeric", "J3_oracle", "sigma3_over_sigma1"):
            entries.append((f"oracle.{key}", check[key]))
        entries.append(("oracle.stack_singular_values", check["stack_singular_values"]))
    _emit(cfg, entries)
    return EXIT_INDETERMINATE if c.kind == INDETERMINATE else EXIT_OK


def cmd_strata(cfg: AnalysisConfig) -> int:
    model, point = build_problem(cfg)
    base = _nearest_singular_seed(model, point, cfg)
    pair = make_fibering_pair(model, base, cfg.tol.rank)
    projected = stratamod.project_to_singular(model, point, pair, tol=cfg.tol)
    member, vals = stratamod.stratum_membership(model, projected, cfg.stratum_h, pair, cfg.tol)
    sample = stratamod.sample_stratum(model, projected, pair, count=cfg.samples,
                                      seed=cfg.seed, tol=cfg.tol)
    entries = [
        ("schema_version", reportmod.SCHEMA_VERSION),
        ("report", "strata"),
        ("problem.label", model.label),
    ]
    entries += cfg.echo_entries()
    entries += [
        ("projected.point", [float(x) for x in projected]),
        ("membership.h", cfg.stratum_h),
        ("membership.member", member),
        ("membership.J", [float(v) for v in vals]),
        ("sample.count", len(sample.points)),
        ("sample.seed", sample.seed),
        ("sample.h_membership", sample.h_membership),
        ("sample.residuals", sample.residuals),
        ("sample.points", [[float(x) for x in p] for p in sample.points]),
    ]
    _emit(cfg, entries)
    return EXIT_INDETERMINATE if member is None else EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="analysis config document")
    p.add_argument("--gallery", help="gallery map name")
    p.add_argument("--param", action="append", help="gallery parameter key=value")
    p.add_argument("--bvp-n", type=int, help="periodic problem grid size")
    p.add_argument("--bvp-a", help="a(t) terms, e.g. '[(1, 0.0, 1.0)]'")
    p.add_argument("--bvp-p", help="p(t) terms")
    p.add_argument("--bvp-scheme", choices=["spectral", "periodic_finite_difference"])
    p.add_argument("--point", help="comma-separated coordinates")
    p.add_argument("--k-cap", dest="k_cap", type=int)
    p.add_argument("--tol-rank", dest="tol_rank", type=float)
    p.add_argument("--tol-zero", dest="tol_zero", type=float)
    p.add_argument("--tol-nonzero", dest="tol_nonzero", type=float)
    p.add_argument("--route", choices=["fibering", "ls", "both"])
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="report output path (default: stdout)")
    p.add_argument("--machine", action="store_true", help="machine-oriented listing")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singclass",
        description="Classify simple singularities of smooth maps R^n -> R^n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one point")
    _add_common(p)
    p.add_argument("--project", action="store_true",
                   help="Newton-project the point onto the singular set first")

    p = sub.add_parser("gallery", help="list built-in fixtures")
    _add_common(p)
    p.add_argument("--kind", help="filter by expected classification kind")

    p = sub.add_parser("verify", help="run the invariance suite for one problem")
    _add_common(p)
    p.add_argument("--trials", type=int, help="random trials per property (default 50)")

    p = sub.add_parser("bvp", help="periodic-problem analysis with oracle cross-check")
    _add_common(p)

    p = sub.add_parser("strata", help="singular-set projection and stratum diagnostics")
    _add_common(p)
    p.add_argument("--stratum-h", dest="stratum_h", type=int, help="stratum order to test")
    p.add_argument("--samples", type=int, help="number of sampled singular points")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; 2 means indeterminate here
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    started = time.perf_counter()
    try:
        cfg = _config_from_file(args.config) if getattr(args, "config", None) else AnalysisConfig()
        cfg = _apply_flags(cfg, args)
        if args.command == "classify":
            code = cmd_classify(cfg)
        elif args.command == "gallery":
            code = cmd_gallery(cfg, getattr(args, "kind", None))
        elif args.command == "verify":
            code = cmd_verify(cfg)
        elif args.command == "bvp":
            code = cmd_bvp(cfg)
        elif args.command == "strata":
            code = cmd_strata(cfg)
        else:  # pragma: no cover
            parser.error(f"unknown command {args.command}")
            return EXIT_ERROR
    except (SingclassError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(f"wall_time_s={time.perf_counter() - started:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
