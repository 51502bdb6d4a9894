"""Self-test of the tracer: on small cases its counts must equal a count
taken independently, with sys.setprofile, on the untraced program.

Run from the repository root:  python3 -m pytest perfbench/test_tracer.py
"""

import json
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy.linalg  # noqa: E402

import cases  # noqa: E402
from singclass import classify, fibering, gallery, jets, linalg, lsreduce, strata, verify  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

PACKAGE_DIR = str(Path(jets.__file__).resolve().parent)


def small_ops():
    """A periodic problem on both routes, a gallery point and a short
    invariance run, which together reach every traced layer."""
    return {
        "bvp": lambda: cases.run_op(cases.bvp_case(16, 1.0, "both"), 0),
        "gallery": lambda: cases.run_op(cases.gallery_table()[4], 0),
        "verify": lambda: verify.verify_problem(
            gallery.gallery_map("whitney", {"k": 2}).model, np.zeros(2), trials=3, seed=1),
    }


def profile_counts(op) -> Counter:
    """Calls of the traced functions while ``op`` runs, seen by sys.setprofile."""
    names = {
        classify.classify_point: "classify.classify_point",
        jets.jacobian: "jets.jacobian",
        jets.matvec: "jets.matvec",
        jets.Jet.__mul__: "jets.Jet.mul",
        jets.Jet.__init__: "jets.Jet.objects",
        linalg.bordered_solve: "linalg.bordered_solve",
        linalg.rank_decision: "linalg.rank_decision",
        linalg.lu_solve_jet: "linalg.lu_solve_jet",
        fibering.make_fibering_pair: "fibering.make_fibering_pair",
        fibering.PointFunctionals.__init__: "fibering.PointFunctionals",
        fibering.PointFunctionals.row: "fibering.row",
        lsreduce.local_representation: "lsreduce.local_representation",
        lsreduce.LSModel.alpha_inverse_jet: "lsreduce.alpha_inverse_jet",
        lsreduce.LSModel.f_jet: "lsreduce.f_jet",
        strata.project_to_singular: "strata.project_to_singular",
        strata.tangent_space: "strata.tangent_space",
        scipy.linalg.lu_factor.__wrapped__: "linalg.lu_factor",
        np.linalg.svd.__wrapped__: "linalg.svd",
    }
    codes = {fn.__code__: name for fn, name in names.items()}
    counts = Counter()

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        name = codes.get(code)
        if name is None:
            if code.co_name == "ev" and code.co_filename.startswith(PACKAGE_DIR):
                counts["model.eval"] += 1
            return
        caller = frame.f_back
        if name == "linalg.svd" and not caller.f_globals.get("__name__", "").startswith("singclass."):
            return
        counts[name] += 1
        if name == "jets.jacobian":
            point = frame.f_locals["x"]
            counts["jets.jacobian.jet_calls" if isinstance(point, jets.Jet)
                   else "jets.jacobian.plain_calls"] += 1
        if name == "fibering.PointFunctionals" and caller.f_code is strata.project_to_singular.__code__:
            counts["strata.newton_steps"] += 1

    sys.setprofile(profile)
    try:
        op()
    finally:
        sys.setprofile(None)
    return counts


def traced_counts(tr: Tracer, names) -> dict:
    special = {
        "jets.jacobian.jet_calls": tr.counts["jets.jacobian.jet_calls"],
        "jets.jacobian.plain_calls": tr.counts["jets.jacobian.plain_calls"],
        "jets.Jet.objects": tr.counts["jets.Jet.objects"],
        "strata.newton_steps": tr.calls_under("strata.project_to_singular", "fibering.PointFunctionals"),
    }
    return {name: special[name] if name in special else tr.calls(name) for name in names}


@pytest.mark.parametrize("label", sorted(small_ops()))
def test_traced_counts_match_profiler(label):
    op = small_ops()[label]
    expected = profile_counts(op)
    with Tracer() as tr:
        op()
    assert traced_counts(tr, expected) == dict(expected)
    assert expected["model.eval"] > 0 and expected["linalg.svd"] > 0


def test_every_layer_metric_reads_a_traced_span():
    names = [m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]]
    with Tracer() as tr:
        for op in small_ops().values():
            op()
    got = layer_metrics(tr, names)
    outside = {n for n in names if n.startswith(("process.", "trace."))}
    assert set(got) == set(names) - outside
    for name in got:
        span = name.rsplit(".", 1)[0]
        if name.endswith((".calls", ".self_s")):
            assert span in tr.span_names, name
    assert got["strata.newton_steps"] > 0 and got["linalg.lu_factor.calls"] > 0


def test_uninstall_restores_every_binding():
    before = (classify.make_fibering_pair, linalg.lu_factor, lsreduce.lu_factor, np.linalg.svd,
              jets.Jet.__mul__, jets.Jet.__init__, fibering.PointFunctionals.row)
    with Tracer():
        assert classify.make_fibering_pair is not before[0]
        assert lsreduce.lu_factor is not before[2]
    after = (classify.make_fibering_pair, linalg.lu_factor, lsreduce.lu_factor, np.linalg.svd,
             jets.Jet.__mul__, jets.Jet.__init__, fibering.PointFunctionals.row)
    assert after == before
