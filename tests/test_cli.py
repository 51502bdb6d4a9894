import argparse
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from singclass import jets
from singclass.cli import CONFIG_KEYS, main, make_parser
from singclass.gallery import gallery_map
from singclass.report import SCHEMA_VERSION, parse, render
from singclass.errors import ConfigParseError


def run(args):
    return main(args)


class TestReportFormat:
    def test_roundtrip(self):
        entries = [
            ("schema_version", SCHEMA_VERSION),
            ("name", "whitney"),
            ("values", [1.0, -2.5, 3e-17]),
            ("flag", True),
            ("nothing", None),
            ("params", {"k": 2}),
        ]
        text = render(entries)
        back = parse(text)
        assert back["schema_version"] == SCHEMA_VERSION
        assert back["values"] == [1.0, -2.5, 3e-17]
        assert back["params"] == {"k": 2}
        assert back["flag"] is True and back["nothing"] is None

    def test_full_float_precision(self):
        x = 0.1 + 0.2
        text = render([("x", x)])
        assert parse(text)["x"] == x

    def test_parse_errors(self):
        with pytest.raises(ConfigParseError):
            parse("not an assignment\n")
        with pytest.raises(ConfigParseError):
            parse("a = 1\na = 2\n")
        with pytest.raises(ConfigParseError):
            parse("a = object()\n")


class TestClassifyCommand:
    def test_decisive_exit_and_report(self, tmp_path):
        out = tmp_path / "r.txt"
        code = run(["classify", "--gallery", "whitney", "--param", "k=2",
                    "--point", "0,0", "--out", str(out)])
        assert code == 0
        data = parse(out.read_text())
        assert data["result.kind"] == "KSingularity"
        assert data["result.k"] == 2
        assert data["result.route_agreement"] is True
        assert data["schema_version"] == SCHEMA_VERSION

    def test_indeterminate_exit_code(self, tmp_path):
        out = tmp_path / "r.txt"
        code = run(["classify", "--gallery", "eps_perturbed", "--param", "eps=0.00005",
                    "--point", "0,0", "--route", "fibering", "--out", str(out)])
        assert code == 2
        data = parse(out.read_text())
        assert data["result.kind"] == "Indeterminate"
        assert data["result.stage"] == "J_1"

    def test_k_cap_reaches_row_nine(self, tmp_path):
        out = tmp_path / "r.txt"
        args = ["classify", "--gallery", "family_kn", "--param", "k=8", "--param", "n=10"]
        assert run(args + ["--k-cap", "9", "--out", str(out)]) == 0
        data = parse(out.read_text())
        assert (data["result.kind"], data["result.k"]) == ("KSingularity", 9)
        assert run(args + ["--k-cap", "0"]) == 1

    def test_machine_flag_exits_one(self):
        # --machine is a gallery listing flag; classify does not read it
        assert run(["classify", "--gallery", "fold_t2", "--machine"]) == 1

    def test_error_exit_code(self):
        assert run(["classify", "--gallery", "nonexistent", "--point", "0,0"]) == 1
        assert run(["classify", "--gallery", "fold_t2", "--point", "0,0,0"]) == 1

    @pytest.mark.parametrize("point", ["1e120,0,0", "1e200,0,0"])
    def test_non_finite_jacobian_exits_with_typed_error(self, point):
        """F'(u) overflows to inf here; LAPACK's SVD can loop without end on
        it, so the command runs in a subprocess with a timeout: a regression
        fails instead of hanging the suite."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "singclass", "classify", "--gallery", "whitney",
                               "--param", "k=3", "--point", point],
                              capture_output=True, text=True, env=env, timeout=30)
        assert proc.returncode == 1, proc.stderr
        assert "error: F'(u) has an infinite or NaN entry" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_projection_flag(self, tmp_path):
        out = tmp_path / "r.txt"
        code = run(["classify", "--gallery", "fold_t2", "--point", "0.3,0.7",
                    "--project", "--out", str(out)])
        assert code == 0
        data = parse(out.read_text())
        assert data["result.projected"] is True
        assert data["point"] == [0.0, 0.7]
        assert data["result.kind"] == "KSingularity"

    def test_projection_pair_uses_rank_tolerance(self, tmp_path):
        # at tol.rank = 1e-3 the seed (1e-5, 0.7) is already simple; the pair
        # built there must use the same tolerance
        out = tmp_path / "r.txt"
        code = run(["classify", "--gallery", "fold_t2", "--point", "0.00001,0.7",
                    "--project", "--tol-rank", "1e-3", "--out", str(out)])
        assert code == 0
        data = parse(out.read_text())
        assert data["point"] == [0.0, 0.7]
        assert (data["result.kind"], data["result.k"]) == ("KSingularity", 1)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "schema_version = 1\n"
            "problem.kind = 'gallery'\n"
            "problem.name = 'whitney'\n"
            "problem.params = {'k': 2, 'dimZ': 0}\n"
            "point = [0.0, 0.0]\n"
            "route = 'ls'\n"
        )
        out = tmp_path / "r.txt"
        code = run(["classify", "--config", str(cfg), "--route", "both", "--out", str(out)])
        assert code == 0
        data = parse(out.read_text())
        assert data["config.route"] == "both"
        assert data["result.k"] == 2

    def test_bad_config(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("problem.kind = 'gallery'\nmystery_key = 3\n")
        assert run(["classify", "--config", str(cfg)]) == 1


class TestGalleryCommand:
    def test_machine_listing(self, capsys):
        assert run(["gallery", "--machine"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("name=")]
        names = {l.split()[0].split("=")[1] for l in lines}
        for expected in ("whitney", "family_kn", "fold_t2", "cusp_source_t3",
                         "l2_truncated", "eps_perturbed"):
            assert expected in names
        assert lines == sorted(lines)

    def test_kind_filter(self, capsys):
        assert run(["gallery", "--machine", "--kind", "MaximalKTransverse"]) == 0
        out = capsys.readouterr().out
        assert "family_kn" in out and "l2_truncated" in out
        assert "cusp_source_t3" not in out

    def test_human_listing_has_notes(self, capsys):
        assert run(["gallery"]) == 0
        out = capsys.readouterr().out
        assert "note:" in out

    def test_out_flag_exits_one(self, tmp_path, capsys):
        # the listing goes to stdout only; a report path would be dropped
        out = tmp_path / "listing.txt"
        assert run(["gallery", "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().out == ""

    def test_point_flag_exits_one(self):
        assert run(["gallery", "--point", "-0.5,2"]) == 1


class TestVerifyCommand:
    def test_small_verify_passes(self, tmp_path):
        out = tmp_path / "v.txt"
        code = run(["verify", "--gallery", "whitney", "--param", "k=2",
                    "--trials", "5", "--seed", "7", "--out", str(out)])
        assert code == 0
        data = parse(out.read_text())
        assert data["passed"] is True
        assert data["rescale.failures"] == 0
        assert data["conjugate.failures"] == 0


class TestStrataCommand:
    def test_fold_projection_report(self, tmp_path):
        out = tmp_path / "s.txt"
        code = run(["strata", "--gallery", "fold_t2", "--point", "0.3,0.7",
                    "--stratum-h", "1", "--samples", "5", "--out", str(out)])
        assert code == 0
        data = parse(out.read_text())
        assert data["projected.point"] == [0.0, 0.7]
        assert data["membership.member"] is True
        assert data["sample.count"] == 5

    def test_band_membership_is_indeterminate(self, tmp_path):
        # J_1 of eps_perturbed is about -eps: 1e-4 lies inside the zero band
        out = tmp_path / "s.txt"
        code = run(["strata", "--gallery", "eps_perturbed", "--param", "eps=0.0001",
                    "--point", "0,0", "--stratum-h", "2", "--samples", "2", "--out", str(out)])
        assert code == 2
        assert "membership.member = None\n" in out.read_text()


class TestBvpCommand:
    def test_quartic_report(self, tmp_path):
        out = tmp_path / "b.txt"
        code = run(["bvp", "--bvp-n", "64", "--bvp-a", "[(1, 0.0, 1.0)]",
                    "--bvp-p", "[(0, 1.0, 0.0)]", "--out", str(out)])
        assert code == 0
        data = parse(out.read_text())
        assert data["result.kind"] == "KSingularity" and data["result.k"] == 3
        assert abs(data["oracle.J3_numeric"] - 24.0) < 1e-4

    def test_quartic_report_below_64_points(self, tmp_path):
        out = tmp_path / "b.txt"
        code = run(["bvp", "--bvp-n", "32", "--bvp-a", "[(1, 0.0, 1.0)]",
                    "--bvp-p", "[(0, 1.0, 0.0)]", "--out", str(out)])
        assert code == 0
        data = parse(out.read_text())
        assert (data["result.kind"], data["result.k"]) == ("KSingularity", 3)
        assert min(data["oracle.I1_cosine"], data["oracle.I2_cosine"]) > 1 - 1e-12
        assert abs(data["oracle.J3_numeric"] - 24.0) < 1e-12


    def test_one_sign_riccati_map_is_a_fold(self, tmp_path):
        """a = 1: at u = 0 the Riccati map u' + u^2 folds, with |J_1| = 2 mean(a)
        for the unit-norm kernel vector ones / sqrt(N).  The quartic oracle's
        closed forms need a mean-free a, so the report has no oracle rows."""
        out = tmp_path / "b.txt"
        code = run(["bvp", "--bvp-n", "32", "--bvp-a", "[(0, 1.0, 0.0)]", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        data = parse(text)
        assert (data["result.kind"], data["result.k"]) == ("KSingularity", 1)
        assert "oracle." not in text
        for route in ("fibering", "ls"):
            assert abs(abs(data[f"route.{route}.J"][1]) * math.sqrt(32) - 2.0) < 1e-12


class TestDeterminism:
    def test_classify_reports_byte_identical(self, tmp_path):
        args = ["classify", "--gallery", "whitney", "--param", "k=3",
                "--point", "0,0,0", "--seed", "3"]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_verify_reports_byte_identical(self, tmp_path):
        args = ["verify", "--gallery", "fold_t2", "--trials", "5", "--seed", "11"]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def _table_reports(tmp_path) -> list[str]:
    """The classify report of every gallery-table point, then the verify
    report of one invariance fixture, as the CLI writes them."""
    from test_acceptance import classification_table

    runs = []
    for name, params in classification_table():
        flags = [f for key, value in sorted(params.items()) for f in ("--param", f"{key}={value}")]
        for exp in gallery_map(name, params).expected:
            runs += [["classify", "--gallery", name, *flags, "--point", ",".join(map(repr, point))]
                     for point in exp.points]
    runs.append(["verify", "--gallery", "fold_t2", "--point", "0,0", "--trials", "5",
                 "--seed", "3"])
    texts = []
    for args in runs:
        out = tmp_path / "r.txt"
        assert run(args + ["--out", str(out)]) in (0, 2)
        texts.append(out.read_text())
    return texts


def test_unchecked_internal_jets_drop_no_check(tmp_path, monkeypatch):
    """``jets._like`` skips the checks of ``Jet.__init__`` on internal
    results; built through the checking constructor instead, every report
    comes out byte-identical."""
    fast = _table_reports(tmp_path)
    monkeypatch.setattr(jets, "_like", lambda jet, coeffs: jets.Jet(jet.vars, jet.orders, coeffs))
    assert _table_reports(tmp_path) == fast


class TestConfigKeys:
    @pytest.mark.parametrize("args", [
        ["classify", "--gallery", "whitney", "--param", "k=2", "--point", "0,0", "--seed", "42",
         "--route", "ls", "--tol-zero", "1e-7"],
        ["bvp", "--bvp-n", "32", "--bvp-a", "[(1, 0.0, 1.0)]", "--bvp-p", "[(0, 1.0, 0.0)]"],
    ])
    def test_echoed_config_reproduces_report(self, tmp_path, args):
        first = tmp_path / "a.txt"
        assert run(args + ["--out", str(first)]) == 0
        assert self.rerun_from_echo(tmp_path, args[0], first) == first.read_bytes()

    @staticmethod
    def rerun_from_echo(tmp_path, command: str, first: Path) -> bytes:
        """The report of ``command`` run on the config that ``first``'s
        ``config.*`` lines form with the prefix removed."""
        second, cfg = tmp_path / "b.txt", tmp_path / "cfg.txt"
        lines = [line for line in first.read_text().splitlines() if line.startswith("config.")]
        cfg.write_text("".join(line[len("config."):] + "\n" for line in lines))
        assert run([command, "--config", str(cfg), "--out", str(second)]) == 0
        return second.read_bytes()

    RICCATI = ("problem.kind = 'bvp'\nbvp.N = 32\nbvp.a = [(0, 0.4, 0.0), (1, 0.0, 1.0)]\n"
               "bvp.g = 'poly'\nbvp.g_coeffs = [0.0, 0.0, 1.0]\n")

    @pytest.mark.parametrize("command, document, label, verdict", [
        ("classify", "problem.kind = 'gallery'\nproblem.name = 'whitney'\n"
         "problem.params = {'k': 2}\npoint = [0.0, 0.0]\nproblem.conjugate_seed = 3\n",
         "whitney(k=2,dimZ=0)~affine", ("KSingularity", 2)),
        ("bvp", "problem.kind = 'bvp'\nbvp.N = 32\nbvp.a = [(1, 0.0, 1.0)]\n"
         "bvp.g = 'exp'\nbvp.g_beta = 0.5\n", "bvp(exp,N=32,spectral)", ("MaximalKTransverse", 1)),
        ("bvp", RICCATI + "bvp.scheme = 'spectral'\n", "bvp(poly,N=32,spectral)",
         ("KSingularity", 1)),
        ("bvp", RICCATI + "bvp.scheme = 'periodic_finite_difference'\n",
         "bvp(poly,N=32,periodic_finite_difference)", ("KSingularity", 1)),
    ])
    def test_config_document_reproduces_report(self, tmp_path, command, document, label, verdict):
        """Keys that only a config document sets reach the problem, and the
        report's echo of them reproduces it."""
        doc, first = tmp_path / "doc.txt", tmp_path / "a.txt"
        doc.write_text(document)
        assert run([command, "--config", str(doc), "--out", str(first)]) == 0
        data = parse(first.read_text())
        assert data["problem.label"] == label
        assert (data["result.kind"], data["result.k"]) == verdict
        if label.startswith("bvp(poly"):
            # u' + a u^2 at u = 0: the fold value is int 2a = 0.8, and the
            # unit-norm pair's constant vectors 1/sqrt(N) give J_1 = 0.8/sqrt(N)
            for route in ("fibering", "ls"):
                assert abs(data[f"route.{route}.J"][1]) * math.sqrt(32) == pytest.approx(0.8, rel=1e-12)
        assert self.rerun_from_echo(tmp_path, command, first) == first.read_bytes()

    @pytest.mark.parametrize("command, line", [
        ("classify", "k_cap = 'x'"),
        ("classify", "k_cap = True"),
        ("verify", "trials = 'a'"),
        ("verify", "seed = 1.5"),
        ("classify", "seed = 1.5"),
        ("bvp", "bvp.N = 64.5"),
    ])
    def test_wrong_type_value_is_an_error(self, tmp_path, capsys, command, line):
        problem = ("problem.kind = 'bvp'\nbvp.a = [(1, 0.0, 1.0)]\n" if command == "bvp"
                   else "problem.kind = 'gallery'\nproblem.name = 'fold_t2'\n")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(problem + line + "\n")
        assert run([command, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {line.split()[0]}: expected an integer")

    def test_readme_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paragraph = readme[readme.index("Config keys"):].split("\n\n")[0]
        assert [row.key for row in CONFIG_KEYS if f"`{row.key}`" not in paragraph] == []


class TestScenarioReports:
    def test_bvp_degenerate_case_reports_maximal(self, tmp_path):
        out = tmp_path / "b0.txt"
        code = run(["bvp", "--bvp-n", "64", "--bvp-a", "[(1, 0.0, 1.0)]",
                    "--out", str(out)])
        assert code == 0
        data = parse(out.read_text())
        assert data["result.kind"] == "MaximalKTransverse" and data["result.k"] == 2
        assert data["oracle.sigma3_over_sigma1"] < 1e-6

    def test_verify_reports_kernel_line_in_tangent(self, tmp_path):
        out = tmp_path / "v.txt"
        code = run(["verify", "--gallery", "family_kn", "--param", "k=2",
                    "--param", "n=0", "--param", "dimZ=0", "--trials", "5",
                    "--seed", "3", "--out", str(out)])
        assert code == 0
        data = parse(out.read_text())
        assert data["stratification.phi_in_tangent"] is True
        assert data["stratification.dichotomy_consistent"] is True



class TestPointFlag:
    POINT = ["classify", "--gallery", "eps_perturbed"]

    def test_negative_point_spaced_and_joined(self, tmp_path):
        spaced, joined = tmp_path / "spaced.txt", tmp_path / "joined.txt"
        assert run(self.POINT + ["--point", "-1.1,0.0", "--out", str(spaced)]) == 0
        assert run(self.POINT + ["--point=-1.1,0.0", "--out", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()
        data = parse(spaced.read_text())
        assert data["point"] == [-1.1, 0.0]
        assert data["result.kind"] == "MaximalKTransverse"

    @pytest.mark.parametrize("command", ["verify", "strata", "bvp"])
    def test_negative_point_reaches_every_subcommand(self, command):
        from singclass.cli import _join_point

        args = make_parser().parse_args(_join_point([command, "--point", "-0.5,2"]))
        assert args.point == [-0.5, 2.0]

    def test_non_integral_gallery_parameter_exits_one(self, capsys):
        assert run(["classify", "--gallery", "whitney", "--param", "k=2.5", "--point", "0,0"]) == 1
        assert "k must be an integer" in capsys.readouterr().err

    def test_unknown_gallery_parameter_exits_one(self, capsys):
        assert run(["classify", "--gallery", "whitney", "--param", "kk=3", "--point", "0"]) == 1
        assert "'kk'" in capsys.readouterr().err


class TestProjectionFromOffSetPoints:
    """``strata`` and ``classify --project`` start from points off the
    singular set: the projection pair is bordered by the last singular
    pair of F' at the start point."""

    CASES = [
        ("whitney", {"k": 2}, "0.05,0.02"),
        ("whitney", {"k": 3, "dimZ": 2}, "0.05,0.02,0.01,0.03,-0.02"),
        ("eps_perturbed", {"eps": 0.1}, "0.5,0.1"),
    ]

    @staticmethod
    def args(name, params, start):
        params = [arg for key, value in params.items() for arg in ("--param", f"{key}={value}")]
        return ["--gallery", name] + params + ["--point", start]

    @staticmethod
    def projected_j0(name, params, start, projected):
        """J_0 at the projected point, of the pair the projection used."""
        from singclass.fibering import PointFunctionals, bordered_pair
        from singclass.gallery import gallery_map

        model = gallery_map(name, params).model
        pair = bordered_pair(model, [float(x) for x in start.split(",")])
        return PointFunctionals(model, pair, projected).J(0)

    @pytest.mark.parametrize("name, params, start", CASES)
    def test_strata(self, tmp_path, name, params, start):
        out = tmp_path / "s.txt"
        args = self.args(name, params, start) + ["--samples", "3", "--out", str(out)]
        assert run(["strata"] + args) == 0
        data = parse(out.read_text())
        assert data["membership.member"] is True
        assert abs(data["membership.J"][0]) <= 1e-10
        assert abs(self.projected_j0(name, params, start, data["projected.point"])) <= 1e-10

    @pytest.mark.parametrize("name, params, start", CASES)
    def test_classify_project(self, tmp_path, name, params, start):
        out = tmp_path / "c.txt"
        assert run(["classify"] + self.args(name, params, start) + ["--project", "--out", str(out)]) == 0
        data = parse(out.read_text())
        assert data["result.projected"] is True
        assert (data["result.kind"], data["result.k"]) == ("KSingularity", 1)
        assert abs(self.projected_j0(name, params, start, data["point"])) <= 1e-10


class TestUsageErrors:
    def test_bad_flag_exits_one(self):
        assert run(["classify", "--made-up-flag"]) == 1

    def test_unknown_command_exits_one(self):
        assert run(["frobnicate"]) == 1

    def test_each_subcommand_parses_the_flags_it_reads(self):
        """Each subcommand's flag set, read off the parser: a new flag is
        added on purpose, where a command reads it."""
        report = {"config", "gallery", "param", "bvp_n", "bvp_a", "bvp_p", "bvp_scheme", "point",
                  "tol_rank", "tol_zero", "tol_nonzero", "out"}
        expected = {"classify": report | {"k_cap", "route", "seed", "project"},
                    "gallery": {"kind", "machine"},
                    "verify": report | {"k_cap", "seed", "trials"},
                    "bvp": report | {"k_cap", "route"},
                    "strata": report | {"seed", "stratum_h", "samples"}}
        sub, = [a for a in make_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {name: {a.dest for a in p._actions if a.dest != "help"}
                 for name, p in sub.choices.items()}
        assert flags == expected

    @pytest.mark.parametrize("args", [
        ["bvp", "--bvp-n", "32", "--bvp-a", "[(1, 0.0, 1.0)]", "--seed", "3"],
        ["verify", "--gallery", "fold_t2", "--trials", "5", "--route", "ls"],
        ["strata", "--gallery", "fold_t2", "--point", "0.3,0.7", "--route", "ls"],
        ["strata", "--gallery", "fold_t2", "--point", "0.3,0.7", "--k-cap", "3"],
    ], ids=["bvp-seed", "verify-route", "strata-route", "strata-k-cap"])
    def test_flag_a_command_does_not_read_exits_one(self, args, capsys):
        assert run(args) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


class TestOutOfRangeSettings:
    """Values that would make a decision or a check vacuous exit 1."""

    @pytest.mark.parametrize("args, message", [
        (["classify", "--gallery", "fold_t2", "--point", "0,0", "--tol-rank", "2"],
         "tolerances must be below 1"),
        (["classify", "--gallery", "fold_t2", "--point", "0,0", "--tol-nonzero", "1.5"],
         "tolerances must be below 1"),
        (["verify", "--gallery", "fold_t2", "--trials", "-4"], "trials must be at least 1"),
        (["strata", "--gallery", "fold_t2", "--point", "0.3,0.7", "--stratum-h", "-2"],
         "stratum order h must be at least 0"),
        (["strata", "--gallery", "fold_t2", "--point", "0.3,0.7", "--samples", "-3"],
         "sample count must be at least 0"),
        # every number must be finite; the error names the config key
        (["classify", "--gallery", "whitney", "--param", "k=2", "--tol-rank", "nan"],
         "tol.rank: expected a finite number"),
        (["classify", "--gallery", "whitney", "--param", "k=2", "--tol-zero", "nan"],
         "tol.zero: expected a finite number"),
        (["classify", "--gallery", "fold_t2", "--tol-nonzero", "inf"],
         "tol.nonzero: expected a finite number"),
        (["strata", "--gallery", "fold_t2", "--point", "0.3,nan"],
         "point: expected a list of finite numbers"),
        (["classify", "--gallery", "fold_t2", "--point", "nan,0"],
         "point: expected a list of finite numbers"),
        (["classify", "--gallery", "eps_perturbed", "--param", "eps=nan"],
         "problem.params: expected a dict of finite numbers"),
        (["classify", "--gallery", "eps_perturbed", "--param", "eps=inf"],
         "problem.params: expected a dict of finite numbers"),
        (["classify", "--gallery", "whitney", "--param", "k=1" + "0" * 400],
         "problem.params: expected a dict of finite numbers"),
        (["bvp", "--bvp-n", "32", "--bvp-a", "[(1,0.0,1e400)]"], "bvp.a: expected a list"),
        # a frequency must be integral: sin(pi t) is not 1-periodic
        (["bvp", "--bvp-n", "32", "--bvp-a", "[(0.5,0.0,1.0)]", "--bvp-p", "[(0,1.0,0.0)]"],
         "bvp.a: expected a list of (integer frequency"),
        (["bvp", "--bvp-n", "32", "--bvp-a", "[(1,0.0,1.0)]", "--bvp-p", "[(0.5,1.0,0.0)]"],
         "bvp.p: expected a list of (integer frequency"),
    ])
    def test_exits_one(self, tmp_path, capsys, args, message):
        out = tmp_path / "r.txt"
        assert run(args + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    def test_projection_names_a_bad_start_point(self, capsys):
        # F'(1, 0) = diag(2, 1) has no small singular value
        assert run(["strata", "--gallery", "fold_t2", "--point", "1.0,0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: I1 vanishes at the start point")
        assert "sigma_min/sigma_max of F' is 0.5;" in err

    def test_projection_without_convergence_exits_one(self, tmp_path, capsys, monkeypatch):
        from singclass import strata

        monkeypatch.setattr(strata, "NEWTON_MAX_ITER", 0)
        out = tmp_path / "c.txt"
        args = ["classify", "--project", "--gallery", "fold_t2", "--point", "0.3,0.7"]
        assert run(args + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: |J0| = ")
        assert not out.exists()

    def test_projection_names_a_double_zero(self, tmp_path, capsys):
        # the cubic head's J0 vanishes to second order on its singular line t = 0
        out = tmp_path / "c.txt"
        args = ["classify", "--project", "--gallery", "cusp_source_t3", "--point", "0.2,0.1"]
        assert run(args + ["--out", str(out)]) == 1
        assert "double zero of J0" in capsys.readouterr().err
        assert not out.exists()
