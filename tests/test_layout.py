"""The jet coefficient layout is private to ``jets``: other modules work on
jets through its functions and methods, never on the coefficient array.
Every zero, rank and regularity decision reads ``linalg.negligible`` or its
hysteresis form ``linalg.zero_state``, so ``linalg`` alone holds the floor and
the band and no comparison in the modules that decide has a threshold
operand; every SVD is taken in ``linalg``, every jet-or-array branch sits in ``jets``,
every gallery map but one is built by the one unfolding builder, and every
fibering pair is bound at a point by ``at`` and read through its two field
methods."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "singclass"
LAYOUT = re.compile(r"\.coeffs|\.njet\b|\.value_ndim|\.jet_shape|\bJet\(")


def test_only_jets_touches_the_coefficient_layout():
    hits = [f"{path.name}:{no}: {line.strip()}"
            for path in sorted(SRC.glob("*.py")) if path.name != "jets.py"
            for no, line in enumerate(path.read_text().splitlines(), 1) if LAYOUT.search(line)]
    assert hits == []


def test_only_jets_builds_unchecked_jets():
    """``jets._like`` builds a jet without the checks of ``Jet.__init__``, for
    results derived inside ``jets``; no other module calls it or makes a jet
    by ``object.__new__``."""
    unchecked = re.compile(r"\b_like\b|object\.__new__\(\s*(jets\.)?Jet\b")
    hits = [f"{path.name}:{no}: {line.strip()}"
            for path in sorted(SRC.glob("*.py")) if path.name != "jets.py"
            for no, line in enumerate(path.read_text().splitlines(), 1) if unchecked.search(line)]
    assert hits == []
    assert unchecked.search((SRC / "jets.py").read_text())


def test_one_truncated_product_loop():
    counts = {path.name: path.read_text().count("np.ndindex") for path in SRC.glob("*.py")}
    assert {name: n for name, n in counts.items() if n} == {"jets.py": 1}


def _enclosing_function(tree: ast.AST, line: int) -> str | None:
    """Name of the innermost function whose body spans ``line``."""
    spans = [(node.lineno, node.name) for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.lineno <= line <= node.end_lineno]
    return max(spans)[1] if spans else None


def test_gallery_builds_every_map_in_two_places():
    """Every polynomial entry is a member of the one unfolding normal form,
    built by ``_unfolding``; ``eps_perturbed`` is the only other map."""
    tree = ast.parse((SRC / "gallery.py").read_text())
    callers = sorted(_enclosing_function(tree, node.lineno) for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and getattr(node.func, "id", None)
                     == "_ls_polynomial_model")
    assert callers == ["_eps_perturbed", "_unfolding"]


def test_one_decision_rule():
    """The ``max(1, .)`` floor is written once, in ``linalg.negligible``;
    ``verify.scaling_law_error`` uses it for a measured error the report
    prints, not for a decision."""
    floor = re.compile(r"max(imum)?\(1\.0")
    allowed = {("linalg.py", "negligible"), ("verify.py", "scaling_law_error")}
    sites = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        sites += [(path.name, _enclosing_function(tree, no), f"{no}: {line.strip()}")
                  for no, line in enumerate(text.splitlines(), 1) if floor.search(line)]
    assert [site for site in sites if site[:2] not in allowed] == []
    assert ("linalg.py", "negligible") in {site[:2] for site in sites}


def _is_threshold(node: ast.AST) -> bool:
    """A tolerance (``tol.<field>`` or ``self.<field>`` for a field of ``Tolerances``),
    a ``*_TOL``, ``*TARGET`` or ``_NEWTON_MIN_CUT`` constant, or a float literal."""
    from singclass.classify import Tolerances

    name = getattr(node, "attr", None) or getattr(node, "id", None) or ""
    return (isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in ("tol", "self")
            and name in Tolerances.__dataclass_fields__
            or name.endswith(("_TOL", "TARGET")) or name == "_NEWTON_MIN_CUT"
            or isinstance(node, ast.Constant) and isinstance(node.value, float))


def test_every_threshold_test_reads_the_rule():
    """In the modules that decide, no ``<``, ``<=``, ``>`` or ``>=`` has a
    threshold operand: each such test calls ``linalg.negligible`` or its
    hysteresis form ``linalg.zero_state`` and names the reference it compares
    against.  Two kinds of comparison are exempt: a check on input, which is
    the test of an ``if`` whose body raises ``ValueError``, and a comparison
    with a random draw (a call on ``rng``), which picks a sample, not a verdict."""
    hits = []
    for module in ("classify.py", "strata.py", "lsreduce.py", "verify.py"):
        tree = ast.parse((SRC / module).read_text())
        exempt = {id(node) for stmt in ast.walk(tree) if isinstance(stmt, ast.If)
                  and isinstance(stmt.body[0], ast.Raise)
                  and ast.unparse(stmt.body[0].exc).startswith("ValueError(")
                  for node in ast.walk(stmt.test)}
        exempt |= {id(node) for node in ast.walk(tree) if isinstance(node, ast.Compare)
                   and any(isinstance(side, ast.Call) and ast.unparse(side).startswith("rng.")
                           for side in [node.left, *node.comparators])}
        hits += [f"{module}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
                 if isinstance(node, ast.Compare) and id(node) not in exempt
                 and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops)
                 and any(_is_threshold(sub) for side in [node.left, *node.comparators]
                         for sub in ast.walk(side))]
    assert hits == []


def _pair_classes() -> dict[str, ast.ClassDef]:
    """``PairBase`` and every class in ``fibering`` derived from it."""
    classes = {}
    for node in ast.parse((SRC / "fibering.py").read_text()).body:
        bases = {getattr(base, "id", None) for base in getattr(node, "bases", ())}
        if isinstance(node, ast.ClassDef) and (node.name == "PairBase" or bases & set(classes)):
            classes[node.name] = node
    return classes


def _members(node: ast.ClassDef) -> set[str]:
    """Names a class body defines: methods, fields and class constants."""
    names = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
    names |= {item.target.id for item in node.body if isinstance(item, ast.AnnAssign)}
    return names | {target.id for item in node.body if isinstance(item, ast.Assign)
                    for target in item.targets if isinstance(target, ast.Name)}


def test_pairs_have_two_field_methods():
    """Every pair class in ``fibering`` defines ``phi_j0`` (phi and J_0) and
    ``psi``; none keeps a phi-only method or a generic J_0, and only
    ``ExplicitPair`` keeps the ``base_point`` of its positional signature."""
    members = {name: _members(node) for name, node in _pair_classes().items()}
    assert {"PairBase", "FiberingPair", "RescaledPair", "ExplicitPair"} <= set(members)
    assert [name for name, m in members.items() if not {"phi_j0", "psi"} <= m] == []
    assert [name for name, m in members.items() if m & {"phi", "j0"}] == []
    assert [name for name, m in members.items() if "base_point" in m] == ["ExplicitPair"]


def test_pairs_are_bound_by_at():
    """A pair is bound near a point by ``at`` and never reaches into the
    ``PointFunctionals`` that reads it: no pair method takes ``pf`` and no
    module writes ``pf.<attr>``.  ``RescaledPair`` is the one way to scale a
    pair, so ``FiberingPair`` keeps no scale of its own."""
    classes = _pair_classes()
    assert "at" in _members(classes["PairBase"])
    takes_pf = [f"{name}.{item.name}" for name, node in classes.items() for item in node.body
                if isinstance(item, ast.FunctionDef)
                and "pf" in {arg.arg for arg in item.args.posonlyargs + item.args.args
                             + item.args.kwonlyargs}]
    assert takes_pf == []
    writes = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and getattr(node.value, "id", None) == "pf"]
    assert writes == []
    scaling = {"phi_scale", "psi_scale", "with_normalization"}
    assert _members(classes["FiberingPair"]) & scaling == set()


def test_only_jets_names_the_jacobian_operator():
    """A model's ``jac`` returns ``jets.MatrixPlusDiag`` at a jet point, and
    every other module reaches it through ``jets.add_diag``, ``matvec``,
    ``transpose_mat``, ``nilpotent`` and ``@`` alone: outside ``jets``, no code
    names the class or reads one of its parts, whose private slot names are
    the operator's own.  Docstrings may name it."""
    from singclass.jets import MatrixPlusDiag

    names = {"MatrixPlusDiag", *MatrixPlusDiag.__slots__}
    hits = [f"{path.name}:{node.lineno}: {getattr(node, 'id', None) or node.attr}"
            for path in sorted(SRC.glob("*.py")) if path.name != "jets.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if (getattr(node, "id", None) or getattr(node, "attr", None)) in names]
    assert hits == []


def _outside(module: str):
    """(file name, AST node) of every node of every module but ``module``."""
    for path in sorted(SRC.glob("*.py")):
        if path.name != module:
            yield from ((path.name, node) for node in ast.walk(ast.parse(path.read_text())))


def test_only_linalg_takes_an_svd():
    """Ranks, null spaces and singular values come from ``linalg``: no other
    module calls ``np.linalg.svd`` or reads a private ``linalg._`` name."""
    hits = [f"{name}:{node.lineno}: {ast.unparse(node)}" for name, node in _outside("linalg.py")
            if isinstance(node, ast.Attribute) and isinstance(node.value, (ast.Name, ast.Attribute))
            and (node.attr == "svd" or ast.unparse(node.value) == "linalg"
                 and node.attr.startswith("_"))]
    assert hits == []


def test_only_jets_branches_on_jets():
    """Code that runs on plain and jet operands alike calls a ``jets``
    function; no other module tests ``isinstance(..., Jet)``."""
    def names_jet(node):
        types = node.elts if isinstance(node, ast.Tuple) else [node]
        return any(ast.unparse(t) in ("Jet", "jets.Jet") for t in types)

    hits = [f"{name}:{node.lineno}: {ast.unparse(node)}" for name, node in _outside("jets.py")
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2 and names_jet(node.args[1])]
    assert hits == []


def test_bordered_solve_has_one_right_hand_side():
    """Every pair solves the bordered system for (0, .., 0, 1), so
    ``bordered_solve`` takes no right-hand side."""
    tree = ast.parse((SRC / "linalg.py").read_text())
    (fn,) = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == "bordered_solve"]
    args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
    assert [arg.arg for arg in args] == ["A", "lu_piv", "trans"]
