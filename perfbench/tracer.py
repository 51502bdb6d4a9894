"""Spans and counts at the public functions of every singclass module,
installed from outside the program by rebinding names.

A function is wrapped in every module that binds it by name, so a
``from .fibering import make_fibering_pair`` in ``classify`` is traced as
well as ``fibering.make_fibering_pair`` itself.  Besides the module-level
functions, a few methods and foreign functions are traced under the layer
that calls them (see ``_METHODS`` and ``install``).

Spans are aggregated in memory per (parent span, span) edge: call count,
total time and self time, where self time is a span's duration minus the
durations of its child spans.  ``Tracer.edges()`` gives the call tree and
``layer_metrics`` the per-layer figures the benchmark reports.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

_TRACED_MODULES = ("jets", "linalg", "model", "gallery", "bvp", "fibering", "lsreduce",
                   "classify", "strata", "verify")

# (module, class, attribute) -> span name
_METHODS = {
    ("jets", "Jet", "__mul__"): "jets.Jet.mul",
    ("fibering", "PointFunctionals", "__init__"): "fibering.PointFunctionals",
    ("fibering", "PointFunctionals", "row"): "fibering.row",
    ("lsreduce", "LSModel", "alpha_inverse_jet"): "lsreduce.alpha_inverse_jet",
    ("lsreduce", "LSModel", "f_jet"): "lsreduce.f_jet",
}


class Tracer:
    """Rebinds singclass functions to timing wrappers between ``install``
    and ``uninstall``; use it as a context manager."""

    def __init__(self):
        self._stack: list[list] = []  # [span name, time covered by children]
        self._edges: dict[tuple, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []
        self.span_names: set[str] = set()

    # -- recording ------------------------------------------------------------

    def _wrap(self, name: str, fn, before=None):
        self.span_names.add(name)
        stack = self._stack
        edges = self._edges

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                rec = edges[(parent[0] if parent else None, name)]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- installation -----------------------------------------------------------

    def install(self) -> "Tracer":
        import scipy.linalg

        import singclass
        from singclass import jets, model

        mods = {short: sys.modules[f"singclass.{short}"] for short in _TRACED_MODULES}
        targets: dict[int, tuple[object, str]] = {}
        for short, mod in mods.items():
            for fname, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not fname.startswith("_"):
                    targets[id(fn)] = (fn, f"{short}.{fname}")
        # scipy's lu_solve stays unwrapped, so the LU solves count in the self
        # time of linalg.lu_solve_jet and linalg.bordered_solve
        targets[id(scipy.linalg.lu_factor)] = (scipy.linalg.lu_factor, "linalg.lu_factor")

        def count_jacobian_point(args):
            kind = "jet_calls" if isinstance(args[1], jets.Jet) else "plain_calls"
            self.counts[f"jets.jacobian.{kind}"] += 1

        befores = {"jets.jacobian": count_jacobian_point}
        wrappers = {key: self._wrap(name, fn, befores.get(name)) for key, (fn, name) in targets.items()}
        bindings = [singclass] + [m for n, m in sys.modules.items() if n.startswith("singclass.")]
        for mod in bindings:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._set(mod, attr, wrappers[id(value)])

        for (short, cls_name, attr), name in _METHODS.items():
            cls = getattr(mods[short], cls_name)
            self._set(cls, attr, self._wrap(name, cls.__dict__[attr]))

        jet_init = jets.Jet.__init__

        def counted_init(obj, *args, **kwargs):
            self.counts["jets.Jet.objects"] += 1
            jet_init(obj, *args, **kwargs)

        self._set(jets.Jet, "__init__", counted_init)

        def coeff_volume(args):
            x = args[0]
            self.counts["model.eval.coeffs"] += x.coeffs.size if isinstance(x, jets.Jet) else np.size(x)

        model_init = model.MapModel.__init__

        def traced_model_init(obj, *args, **kwargs):
            model_init(obj, *args, **kwargs)
            object.__setattr__(obj, "eval", self._wrap("model.eval", obj.eval, coeff_volume))

        self._set(model.MapModel, "__init__", traced_model_init)

        numpy_svd = np.linalg.svd
        traced_svd = self._wrap("linalg.svd", numpy_svd)

        def svd(*args, **kwargs):
            # only calls made from singclass count; numpy's own internal calls do not
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.startswith("singclass."):
                return traced_svd(*args, **kwargs)
            return numpy_svd(*args, **kwargs)

        self._set(np.linalg, "svd", svd)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------------

    def edges(self) -> list[dict]:
        """The aggregated call tree: one record per (parent, span) edge."""
        return [
            {"parent": parent, "span": name, "calls": rec[0], "total_s": rec[1], "self_s": rec[2]}
            for (parent, name), rec in sorted(self._edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
        ]

    def calls(self, name: str) -> int:
        return sum(rec[0] for (_, span), rec in self._edges.items() if span == name)

    def self_s(self, name: str) -> float:
        return sum(rec[2] for (_, span), rec in self._edges.items() if span == name)

    def calls_under(self, parent: str, name: str) -> int:
        rec = self._edges.get((parent, name))
        return rec[0] if rec else 0


# Counts kept by the tracer itself rather than read off a span.
_COUNTED = ("jets.jacobian.jet_calls", "jets.jacobian.plain_calls", "jets.Jet.objects")


def layer_metrics(tr: Tracer, names) -> dict[str, float]:
    """The per-layer metrics among ``names`` that the trace itself gives.

    ``<span>.calls`` and ``<span>.self_s`` are read off the span; a span
    the workload never reaches reads 0.  Ratios use ``classify.points``,
    the number of classify_point calls, as their base.
    """
    points = tr.calls("classify.classify_point")
    special = {
        "classify.points": points,
        "model.eval.coeff_mfloats": tr.counts["model.eval.coeffs"] / 1e6,
        "jets.jacobian.plain_per_point": tr.counts["jets.jacobian.plain_calls"] / max(points, 1),
        "linalg.svd_per_point": tr.calls("linalg.svd") / max(points, 1),
        "strata.newton_steps": tr.calls_under("strata.project_to_singular", "fibering.PointFunctionals"),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name in _COUNTED:
            out[name] = tr.counts[name]
        elif name.endswith(".calls"):
            out[name] = tr.calls(name[: -len(".calls")])
        elif name.endswith(".self_s"):
            out[name] = tr.self_s(name[: -len(".self_s")])
    return out
