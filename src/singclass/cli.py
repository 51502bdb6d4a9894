"""Command-line entry point.

Subcommands: classify, gallery, verify, bvp, strata.  The four report
commands take their problem from a config document (--config) or from flags;
flags override config values.  Each config key is one ``AnalysisConfig``
field, whose metadata holds the key, the converter the file and flag paths
share, when reports echo it and its flag (if any); a report's ``config.*``
lines, read back as a config, reproduce it.  Reports are deterministic for a
fixed seed; wall time goes to stderr only, so report files are byte-stable.

Exit codes: 0 decisive result, 1 error, 2 indeterminate.
"""

from __future__ import annotations

import argparse
import ast
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import bvp as bvpmod
from . import report as reportmod
from . import strata as stratamod
from .classify import INDETERMINATE, Classification, Tolerances, classify_point
from .errors import ConfigParseError, SingclassError
from .fibering import bordered_pair
from .gallery import gallery_map, list_gallery
from .model import MapModel, conjugate, random_affine_pair
from .verify import verify_problem

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INDETERMINATE = 2


# -- converters: a config-file or flag value -> the attribute value ------------


def _expect(ok: Callable, what: str, make: Callable = lambda v: v) -> Callable:
    """A converter that checks a value with ``ok``, then builds it with ``make``."""
    def convert(value):
        if not ok(value):
            raise ConfigParseError(f"expected {what}, got {value!r}")
        return make(value)
    return convert


def _optional(convert: Callable) -> Callable:
    return lambda v: None if v is None else convert(v)


def _is_real(v) -> bool:
    """A finite int or float: NaN, +-inf and ints beyond the float range fail
    (where ``math.isfinite`` would raise OverflowError)."""
    finite = isinstance(v, (int, float)) and abs(v) <= sys.float_info.max
    return finite and not isinstance(v, bool)


def _is_reals(v) -> bool:
    return isinstance(v, (list, tuple)) and all(map(_is_real, v))


_INT = _expect(lambda v: _is_real(v) and float(v).is_integer(), "an integer", int)
_REAL = _expect(_is_real, "a finite number")
_STR = _expect(lambda v: isinstance(v, str), "a string")
_PARAMS = _expect(lambda v: isinstance(v, dict) and all(map(_is_real, v.values())),
                  "a dict of finite numbers")
_REALS = _expect(_is_reals, "a list of finite numbers", tuple)
_FLOATS = _expect(_is_reals, "a list of finite numbers", lambda v: [float(x) for x in v])
_TERMS = _expect(  # trigonometric terms of 1-periodic functions
    lambda v: isinstance(v, (list, tuple)) and all(
        _is_reals(t) and len(t) == 3 and float(t[0]).is_integer() for t in v),
    "a list of (integer frequency, cos_amp, sin_amp) triples",
    lambda v: tuple((int(f), a, b) for f, a, b in v))


class ConfigKey(NamedTuple):
    key: str                  # dotted config-file key
    attr: str                 # the AnalysisConfig field
    convert: Callable         # shared by the file and the flag path
    echo: str                 # always | gallery | bvp (problem kind) | set (not None) | never
    flag: str | None          # argparse dest of the flag that also sets it


def _key(key: str, convert: Callable, echo: str, flag: str | None = None, **default):
    """An ``AnalysisConfig`` field that is one config key (see ``ConfigKey``);
    ``default`` is its ``default`` or ``default_factory``."""
    return field(**default, metadata={"key": key, "convert": convert, "echo": echo, "flag": flag})


@dataclass
class AnalysisConfig:
    """One analysis, one field per config key, in the order reports echo them;
    ``tol`` is built, and so checked, from the three tolerances."""
    problem_kind: str = _key("problem.kind", _STR, "always", default="gallery")
    name: str | None = _key("problem.name", _optional(_STR), "gallery", "gallery", default=None)
    params: dict = _key("problem.params", _PARAMS, "gallery", "param", default_factory=dict)
    bvp_n: int = _key("bvp.N", _INT, "bvp", "bvp_n", default=64)
    bvp_scheme: str = _key("bvp.scheme", _STR, "bvp", "bvp_scheme", default="spectral")
    bvp_a: tuple = _key("bvp.a", _TERMS, "bvp", "bvp_a", default=())
    bvp_p: tuple = _key("bvp.p", _TERMS, "bvp", "bvp_p", default=())
    bvp_g: str = _key("bvp.g", _STR, "bvp", default="quartic")
    bvp_g_coeffs: tuple = _key("bvp.g_coeffs", _REALS, "bvp", default=())
    bvp_g_beta: float = _key("bvp.g_beta", _REAL, "bvp", default=1.0)
    conjugate_seed: int | None = _key("problem.conjugate_seed", _optional(_INT), "set", default=None)
    point: list | None = _key("point", _optional(_FLOATS), "always", "point", default=None)
    k_cap: int = _key("k_cap", _INT, "always", "k_cap", default=6)
    route: str = _key("route", _STR, "always", "route", default="both")
    seed: int = _key("seed", _INT, "always", "seed", default=0)
    tol_rank: float = _key("tol.rank", _REAL, "always", "tol_rank", default=Tolerances.rank)
    tol_zero: float = _key("tol.zero", _REAL, "always", "tol_zero", default=Tolerances.zero)
    tol_nonzero: float = _key("tol.nonzero", _REAL, "always", "tol_nonzero",
                              default=Tolerances.nonzero)
    out: str | None = _key("out", _optional(_STR), "never", "out", default=None)
    trials: int = _key("trials", _INT, "never", "trials", default=50)
    tol: Tolerances = field(init=False)

    def __post_init__(self):
        self.tol = Tolerances(self.tol_rank, self.tol_zero, self.tol_nonzero)


CONFIG_KEYS = tuple(ConfigKey(attr=f.name, **f.metadata)
                    for f in fields(AnalysisConfig) if f.metadata)
_BY_KEY = {row.key: row for row in CONFIG_KEYS}
_KIND_FLAGS = {"gallery": "gallery", "bvp_a": "bvp", "bvp_n": "bvp"}  # flags that pick the kind


def _assign(cfg: AnalysisConfig, values: dict[ConfigKey, object]) -> AnalysisConfig:
    """``cfg`` with the values converted and set."""
    converted = {}
    for row, value in values.items():
        try:
            converted[row.attr] = row.convert(value)
        except ConfigParseError as exc:
            raise ConfigParseError(f"{row.key}: {exc}") from None
    return replace(cfg, **converted)


def _config_from_file(path: str) -> AnalysisConfig:
    data = reportmod.parse(Path(path).read_text())
    if data.pop("schema_version", reportmod.SCHEMA_VERSION) != reportmod.SCHEMA_VERSION:
        raise ConfigParseError("unsupported schema_version")
    for key in data:
        if key not in _BY_KEY:
            raise ConfigParseError(f"unknown config key {key!r}")
    return _assign(AnalysisConfig(), {_BY_KEY[key]: value for key, value in data.items()})


def _apply_flags(cfg: AnalysisConfig, args: argparse.Namespace) -> AnalysisConfig:
    values = {}
    for row in CONFIG_KEYS:
        value = getattr(args, row.flag, None) if row.flag else None
        if value is None:
            continue
        if row.flag == "param":  # --param adds to the configured parameters
            value = {**cfg.params, **dict(value)}
        values[row] = value
        if row.flag in _KIND_FLAGS:
            values[_BY_KEY["problem.kind"]] = _KIND_FLAGS[row.flag]
    return _assign(cfg, values)


def _echo(cfg: AnalysisConfig) -> list[tuple[str, object]]:
    """The ``config.*`` lines of a report (the problem kind is gallery or bvp)."""
    values = [(row, getattr(cfg, row.attr)) for row in CONFIG_KEYS]
    return [(f"config.{row.key}", value) for row, value in values
            if row.echo in ("always", cfg.problem_kind) or (row.echo == "set" and value is not None)]


# -- flag value parsers (argparse types) ------------------------------------------


def _literal(text: str):
    try:
        return ast.literal_eval(text)
    except SyntaxError as exc:
        raise ValueError(str(exc)) from None


def _csv(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _param(spec: str) -> tuple[str, int | float]:
    key, _, value = spec.partition("=")
    try:
        return key, int(value)
    except ValueError:
        return key, float(value)


def build_problem(cfg: AnalysisConfig) -> tuple[MapModel, np.ndarray]:
    if cfg.problem_kind == "gallery":
        if not cfg.name:
            raise ConfigParseError("no gallery name given")
        entry = gallery_map(cfg.name, cfg.params)
        model, default = entry.model, entry.expected[0].points[0]
    elif cfg.problem_kind == "bvp":
        model = bvpmod.make_periodic_bvp(bvpmod.PeriodicProblem(
            N=cfg.bvp_n, a_terms=cfg.bvp_a, p_terms=cfg.bvp_p, g_kind=cfg.bvp_g,
            g_coeffs=cfg.bvp_g_coeffs, g_beta=cfg.bvp_g_beta, scheme=cfg.bvp_scheme,
        ))
        default = np.zeros(cfg.bvp_n)
    else:
        raise ConfigParseError(f"unknown problem kind {cfg.problem_kind!r}")
    point = np.asarray(default if cfg.point is None else cfg.point, dtype=float)
    if point.shape != (model.n,):
        raise ConfigParseError(f"point has dimension {point.shape}, model needs {model.n}")
    if cfg.conjugate_seed is not None:
        rng = np.random.default_rng(cfg.conjugate_seed)
        affine = random_affine_pair(model.n, rng)
        model = conjugate(model, affine)
        point = np.asarray(affine.apply_gamma(point), dtype=float)
    return model, point


def _emit(cfg: AnalysisConfig, report: str, model: MapModel,
          entries: list[tuple[str, object]]) -> None:
    """Write one report: the common header and config echo, then ``entries``."""
    head = [("schema_version", reportmod.SCHEMA_VERSION), ("report", report),
            ("problem.label", model.label)]
    text = reportmod.render(head + _echo(cfg) + entries)
    if cfg.out:
        Path(cfg.out).write_text(text)
    else:
        sys.stdout.write(text)


def _classification_entries(c: Classification, projected: bool) -> list[tuple[str, object]]:
    e = [
        ("result.kind", c.kind),
        ("result.k", c.k),
        ("result.kdim", c.kdim),
        ("result.transversality_order", c.transversality_order),
        ("result.stage", c.stage),
        ("result.route_agreement", c.evidence.route_agreement),
        ("result.projected", projected),
        ("jacobian.singular_values", c.evidence.jacobian_singular_values),
    ]
    for ev in c.evidence.routes:
        p = f"route.{ev.route}"
        e += [(f"{p}.pair", ev.pair_id), (f"{p}.kind", ev.kind), (f"{p}.k", ev.k),
              (f"{p}.transversality_order", ev.transversality_order),
              (f"{p}.stage", ev.stage), (f"{p}.J", ev.J_values)]
        e += [(f"{p}.sv.{size}", ev.singular_values[size]) for size in sorted(ev.singular_values)]
    return e


def cmd_classify(cfg: AnalysisConfig, project: bool) -> int:
    model, point = build_problem(cfg)
    if project:
        pair = bordered_pair(model, point, cfg.tol.rank)
        point = stratamod.project_to_singular(model, point, pair, tol=cfg.tol)
    c = classify_point(model, point, k_cap=cfg.k_cap, tol=cfg.tol, route=cfg.route)
    _emit(cfg, "classify", model,
          [("point", [float(x) for x in point])] + _classification_entries(c, project))
    return EXIT_INDETERMINATE if c.kind == INDETERMINATE else EXIT_OK


def cmd_gallery(kind_filter: str | None, machine: bool) -> int:
    for e in list_gallery(kind_filter):
        params = ",".join(f"{k}={v}" for k, v in sorted(e.params.items()))
        if not machine:
            sys.stdout.write(f"{e.name}  params={e.params}\n")
        for exp in e.expected:
            if machine:
                sys.stdout.write(
                    f"name={e.name} params={params or '-'} expected={exp.kind}"
                    f"{'' if exp.k is None else '(%d)' % exp.k} points={len(exp.points)}\n"
                )
            else:
                k = "" if exp.k is None else f"(k={exp.k})"
                sys.stdout.write(f"    {exp.description}: {exp.kind}{k}\n")
                sys.stdout.write(f"      note: {exp.source}\n")
    return EXIT_OK


def cmd_verify(cfg: AnalysisConfig) -> int:
    model, point = build_problem(cfg)
    rec = verify_problem(model, point, trials=cfg.trials, seed=cfg.seed,
                         k_cap=cfg.k_cap, tol=cfg.tol)
    entries = [
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
    _emit(cfg, "verify", model, entries)
    return EXIT_OK if rec.passed else EXIT_ERROR


def cmd_bvp(cfg: AnalysisConfig) -> int:
    if not cfg.bvp_a:
        raise ConfigParseError("bvp analysis needs coefficient terms (bvp.a)")
    model, point = build_problem(cfg)
    c = classify_point(model, point, k_cap=cfg.k_cap, tol=cfg.tol, route=cfg.route)
    entries = _classification_entries(c, False)
    if bvpmod.oracle_applies(cfg.bvp_a, cfg.bvp_g, point):
        check = bvpmod.quartic_cross_check(cfg.bvp_a, cfg.bvp_p, N=cfg.bvp_n,
                                           scheme=cfg.bvp_scheme, tol=cfg.tol.rank)
        entries += [(f"oracle.{key}", check[key]) for key in (
            "I1_cosine", "I1_scalar", "I2_cosine", "I2_scalar", "J3_numeric", "J3_oracle",
            "sigma3_over_sigma1", "stack_singular_values")]
    _emit(cfg, "bvp", model, entries)
    return EXIT_INDETERMINATE if c.kind == INDETERMINATE else EXIT_OK


def cmd_strata(cfg: AnalysisConfig, h: int, samples: int) -> int:
    model, point = build_problem(cfg)
    pair = bordered_pair(model, point, cfg.tol.rank)
    projected = stratamod.project_to_singular(model, point, pair, tol=cfg.tol)
    member, vals = stratamod.stratum_membership(model, projected, h, pair, cfg.tol)
    sample = stratamod.sample_stratum(model, projected, pair, count=samples,
                                      seed=cfg.seed, tol=cfg.tol)
    _emit(cfg, "strata", model, [
        ("projected.point", [float(x) for x in projected]),
        ("membership.h", h),
        ("membership.member", member),
        ("membership.J", [float(v) for v in vals]),
        ("sample.count", len(sample.points)),
        ("sample.seed", sample.seed),
        ("sample.h_membership", sample.h_membership),
        ("sample.residuals", sample.residuals),
        ("sample.points", [[float(x) for x in p] for p in sample.points]),
    ])
    return EXIT_INDETERMINATE if member is None else EXIT_OK


def _add_report_flags(p: argparse.ArgumentParser, *reads: str) -> None:
    p.add_argument("--config", help="analysis config document")
    p.add_argument("--gallery", help="gallery map name")
    p.add_argument("--param", action="append", type=_param, help="gallery parameter key=value")
    p.add_argument("--bvp-n", type=int, help="periodic problem grid size")
    p.add_argument("--bvp-a", type=_literal, help="a(t) terms, e.g. '[(1, 0.0, 1.0)]'")
    p.add_argument("--bvp-p", type=_literal, help="p(t) terms")
    p.add_argument("--bvp-scheme", choices=["spectral", "periodic_finite_difference"])
    p.add_argument("--point", type=_csv, help="comma-separated coordinates")
    p.add_argument("--tol-rank", dest="tol_rank", type=float)
    p.add_argument("--tol-zero", dest="tol_zero", type=float)
    p.add_argument("--tol-nonzero", dest="tol_nonzero", type=float)
    for flag in reads:  # --k-cap, --route, --seed: read by some report commands only
        kind = {"choices": ["fibering", "ls", "both"]} if flag == "--route" else {"type": int}
        p.add_argument(flag, **kind)
    p.add_argument("--out", help="report output path (default: stdout)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singclass",
        description="Classify simple singularities of smooth maps R^n -> R^n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one point")
    _add_report_flags(p, "--k-cap", "--route", "--seed")  # criterion 9 passes --seed
    p.add_argument("--project", action="store_true",
                   help="Newton-project the point onto the singular set first")

    p = sub.add_parser("gallery", help="list built-in fixtures")
    p.add_argument("--kind", help="filter by expected classification kind")
    p.add_argument("--machine", action="store_true", help="machine-oriented listing")

    p = sub.add_parser("verify", help="run the invariance suite for one problem")
    _add_report_flags(p, "--k-cap", "--seed")
    p.add_argument("--trials", type=int, help="random trials per property (default 50)")

    p = sub.add_parser("bvp", help="periodic-problem analysis with oracle cross-check")
    _add_report_flags(p, "--k-cap", "--route")

    p = sub.add_parser("strata", help="singular-set projection and stratum diagnostics")
    _add_report_flags(p, "--seed")
    p.add_argument("--stratum-h", type=int, default=1, help="stratum order to test (default 1)")
    p.add_argument("--samples", type=int, default=20, help="sampled singular points (default 20)")
    return parser


def _join_point(argv: list[str]) -> list[str]:
    """``--point VALUE`` as ``--point=VALUE``, which argparse reads even when
    VALUE starts with a minus sign, as in ``-1.1,0.0``."""
    out = []
    for arg in argv:
        if out[-1:] == ["--point"]:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    try:
        args = make_parser().parse_args(_join_point(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; 2 means indeterminate here
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    commands = {"classify": lambda cfg: cmd_classify(cfg, args.project), "verify": cmd_verify,
                "bvp": cmd_bvp, "strata": lambda cfg: cmd_strata(cfg, args.stratum_h, args.samples)}
    started = time.perf_counter()
    try:
        if args.command == "gallery":
            code = cmd_gallery(args.kind, args.machine)
        else:
            cfg = _config_from_file(args.config) if args.config else AnalysisConfig()
            code = commands[args.command](_apply_flags(cfg, args))
    except (SingclassError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(f"wall_time_s={time.perf_counter() - started:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
