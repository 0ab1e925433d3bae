"""Structural rules of the package source, read as syntax trees: each rule
maps ``{file name: ast.Module}`` to the ``file:line`` of every violation.
The package gives none, and each rule flags planted snippets of what it
forbids, forms a text search misses included (``coeffs[(..., i)]``)."""

import ast
from pathlib import Path

import pytest

import bertrand_kit

PACKAGE = Path(bertrand_kit.__file__).resolve().parent


def _package_trees():
    return {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _where(name, node):
    return f"{name}:{node.lineno}"


def _called(node):
    """``f`` of a call ``f(...)`` or ``mod.f(...)``."""
    return getattr(node.func, "id", None) or getattr(node.func, "attr", None)


def np_cross(trees):
    """One cross product formula: ``jets.jcross`` on jets and
    ``jets._cross_rows`` on rows; numpy's ``cross`` under any name."""
    found = []
    for name, tree in trees.items():
        numpy = {"np", "numpy"} | {a.asname or a.name for node in ast.walk(tree)
                                   if isinstance(node, ast.Import) for a in node.names
                                   if a.name.split(".")[0] == "numpy"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                if any(a.name == "cross" for a in node.names):
                    found.append(_where(name, node))
            elif isinstance(node, ast.Attribute) and node.attr == "cross":
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in numpy:
                    found.append(_where(name, node))
    return found


def ellipsis_index_on_coeffs(trees):
    """Jet columns are gathered with ``np.take``: an index such as
    ``coeffs[..., i]`` puts the column axis outermost in memory, and the
    recurrences after it run on strided memory."""
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
                    and "coeffs" in (getattr(node.value, "id", None),
                                     getattr(node.value, "attr", None))
                    and any(isinstance(e, ast.Constant) and e.value is Ellipsis
                            for e in node.slice.elts)):
                found.append(_where(name, node))
    return found


def _is_square(node):
    """``x * x`` or ``x ** 2``."""
    if not isinstance(node, ast.BinOp):
        return False
    if isinstance(node.op, ast.Mult):
        return ast.dump(node.left) == ast.dump(node.right)
    return isinstance(node.op, ast.Pow) and getattr(node.right, "value", None) == 2


def closed_form_names_outside_paper(trees):
    """The closed forms and their hypotheses live in ``paper.py``: no other
    module names ``EPS_DEN`` or computes a weight ``sqrt(1 + x^2)``."""
    found = []
    for name, tree in trees.items():
        if name == "paper.py":
            continue
        for node in ast.walk(tree):
            if ("EPS_DEN" in (getattr(node, "id", None), getattr(node, "attr", None))
                    or isinstance(node, ast.alias) and "EPS_DEN" in (node.name, node.asname)):
                found.append(_where(name, node))
            elif isinstance(node, ast.Call) and _called(node) == "sqrt" and node.args:
                arg = node.args[0]
                terms = (arg.left, arg.right) if isinstance(arg, ast.BinOp) else ()
                if (isinstance(getattr(arg, "op", None), ast.Add)
                        and any(getattr(t, "value", None) == 1 for t in terms)
                        and any(map(_is_square, terms))):
                    found.append(_where(name, node))
    return found


# the modules of curves, pairs, I/O and the command line
NOT_FOR_PAPER = {"curves", "bertrand", "indicatrix", "classify", "io", "cli"}


def paper_imports(trees):
    """``paper.py`` holds formulas over rows: it imports no module that
    evaluates a curve, builds a pair, reads a file or runs a command."""
    found = []
    for node in ast.walk(trees.get("paper.py", ast.Module([], []))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = "bertrand_kit." if node.level else ""
            names = [f"{package}{node.module or ''}.{a.name}" for a in node.names]
        else:
            continue
        # bertrand_kit.curves.FrenetData, and bertrand_kit..cli of "from . import cli"
        if any(parts[0] == "bertrand_kit" and NOT_FOR_PAPER & set(parts[1:3])
               for parts in (n.split(".") for n in names)):
            found.append(_where("paper.py", node))
    return found


def _reads_a_pair(node):
    return any(getattr(n, "id", None) == "pair" or getattr(n, "attr", None) in ("base", "mate")
               for n in ast.walk(node))


def pair_evaluation_outside_bertrand(trees):
    """Every pair function reads both curves through one
    ``bertrand._pair_columns``, which runs a generated base once per grid:
    no other module asks a pair's curve for a jet or its Frenet columns."""
    found = []
    for name, tree in trees.items():
        if name == "bertrand.py":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "jet"
                    and getattr(func.value, "attr", None) in ("base", "mate")):
                found.append(_where(name, node))
            elif _called(node) == "_frenet_columns" and node.args and _reads_a_pair(node.args[0]):
                found.append(_where(name, node))
    return found


# the calls that evaluate a curve: its own entries and the package's passes
CURVE_EVALUATORS = {"jet", "point", "_pair_columns", "_frenet_columns", "frenet_grid",
                    "frenet_apparatus", "_image_frames", "image_rows"}


def pair_model_evaluates_nothing(trees):
    """A detected pair is data: detection hands ``BertrandPairModel`` the
    rows and image jets that its readers take, so no method or attribute
    of the class asks a curve for a jet or runs a pass over one."""
    found = []
    for name, tree in trees.items():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == "BertrandPairModel":
                found += [_where(name, node) for node in ast.walk(cls)
                          if isinstance(node, ast.Call) and _called(node) in CURVE_EVALUATORS]
    return found


def curve_kind_defines_jet(trees):
    """Every curve kind is evaluated through ``Curve.jet``, which checks t
    and order and makes a float the one-point grid: a subclass of
    ``Curve`` supplies ``_jets`` on a 1-D grid and defines no ``jet``."""
    classes = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    kinds, grown = {"Curve"}, True
    while grown:
        grown = False
        for _, node in classes:
            bases = {getattr(b, "id", None) or getattr(b, "attr", None) for b in node.bases}
            if node.name not in kinds and bases & kinds:
                kinds.add(node.name)
                grown = True
    found = []
    for name, node in classes:
        if node.name == "Curve" or node.name not in kinds:
            continue
        for item in node.body:
            targets = (item.targets if isinstance(item, ast.Assign)
                       else [item] if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                       else [])
            if any("jet" in (getattr(t, "id", None), getattr(t, "name", None)) for t in targets):
                found.append(_where(name, item))
    return found


# the one function that compares with the regularity floor EPS_REG
FLOOR_HOME = ("curves.py", "_pose_columns")


def floor_outside_the_pose_stage(trees):
    """The regularity floors have one implementation,
    ``curves._pose_columns``, which ``curves._columns`` calls: no other
    function or module level compares anything with ``EPS_REG``, under
    any name it is imported as, and that function does."""
    found = []
    for name, tree in trees.items():
        names = {"EPS_REG"} | {a.asname for node in ast.walk(tree)
                               if isinstance(node, ast.ImportFrom) for a in node.names
                               if a.name == "EPS_REG" and a.asname}
        home = next((node for node in tree.body if isinstance(node, ast.FunctionDef)
                     and (name, node.name) == FLOOR_HOME), None)
        inside = {id(n) for n in ast.walk(home)} if home else set()
        floors = [node for node in ast.walk(tree) if isinstance(node, ast.Compare)
                  and any(getattr(n, "id", None) in names or getattr(n, "attr", None) == "EPS_REG"
                          for n in ast.walk(node))]
        found += [_where(name, node) for node in floors if id(node) not in inside]
        if name == FLOOR_HOME[0] and not any(id(node) in inside for node in floors):
            found.append(_where(name, home or tree.body[0]))
    return found


# the functions that build a jet-backed curve: the generator and the normal offset
JET_BACKED_HOMES = {("bertrand.py", "generate_bertrand_curve"), ("bertrand.py", "construct_mate")}


def jet_backed_outside_the_generator(trees):
    """Every seed preset is analytic: ``JetBackedCurve(...)``, under any
    name it is imported as, is called only inside
    ``bertrand.generate_bertrand_curve`` and ``bertrand.construct_mate``,
    whose jets are exact from a recipe a curve file records."""
    found = []
    for name, tree in trees.items():
        names = {"JetBackedCurve"} | {a.asname for node in ast.walk(tree)
                                      if isinstance(node, ast.ImportFrom) for a in node.names
                                      if a.name == "JetBackedCurve" and a.asname}
        inside = {id(n) for node in tree.body if isinstance(node, ast.FunctionDef)
                  and (name, node.name) in JET_BACKED_HOMES for n in ast.walk(node)}
        found += [_where(name, node) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in inside
                  and (getattr(node.func, "id", None) in names
                       or getattr(node.func, "attr", None) == "JetBackedCurve")]
    return found


def unused_import(trees):
    """Every name a module imports is read in it: an ``import`` or
    ``from ... import`` binding, under its alias if it has one, that no
    expression of the module loads is left over.  ``__init__.py``, whose
    imports are the package's exports, and ``from __future__`` are
    exempt."""
    found = []
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            found += [_where(name, node) for b in bound if b not in read]
    return found


RULES = [np_cross, ellipsis_index_on_coeffs, closed_form_names_outside_paper, paper_imports,
         pair_evaluation_outside_bertrand, pair_model_evaluates_nothing, curve_kind_defines_jet,
         floor_outside_the_pose_stage, jet_backed_outside_the_generator, unused_import]


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
def test_package_keeps_the_rule(rule):
    trees = _package_trees()
    assert {"paper.py", "bertrand.py", "curves.py", "jets.py"} <= set(trees)
    assert rule(trees) == []


# (rule, file the snippet is planted in, snippet)
PLANTED = [
    (np_cross, "curves.py", "n = np.cross(b, t)"),
    (np_cross, "curves.py", "n = numpy.cross(b, t)"),
    (np_cross, "curves.py", "from numpy import cross"),
    (np_cross, "jets.py", "import numpy.linalg as la\nn = la.cross(b, t)"),
    (ellipsis_index_on_coeffs, "jets.py", "c = P.coeffs[..., i]"),
    (ellipsis_index_on_coeffs, "jets.py", "c = P.coeffs[(..., i)]"),
    (ellipsis_index_on_coeffs, "jets.py", "c = coeffs[..., 1:]"),
    (closed_form_names_outside_paper, "classify.py", "from .paper import EPS_DEN"),
    (closed_form_names_outside_paper, "classify.py", "flat = abs(f) <= paper.EPS_DEN"),
    (closed_form_names_outside_paper, "indicatrix.py", "wg = np.sqrt(1.0 + g * g)"),
    (closed_form_names_outside_paper, "indicatrix.py", "wf = math.sqrt(f**2 + 1)"),
    (paper_imports, "paper.py", "from .curves import FrenetData"),
    (paper_imports, "paper.py", "from . import cli"),
    (paper_imports, "paper.py", "import bertrand_kit.io"),
    (paper_imports, "paper.py", "from bertrand_kit.bertrand import BertrandPairModel"),
    (paper_imports, "paper.py", "def late():\n    from .indicatrix import AXES"),
    (pair_evaluation_outside_bertrand, "indicatrix.py", "jet = pair.base.jet(ts, 6)"),
    (pair_evaluation_outside_bertrand, "classify.py", "jet = self.mate.jet(ts, 4)"),
    (pair_evaluation_outside_bertrand, "classify.py", "rows = _frenet_columns(pair.mate, ts)"),
    (pair_evaluation_outside_bertrand, "indicatrix.py",
     "rows = curves._frenet_columns(getattr(pair, side), ts)"),
    (curve_kind_defines_jet, "curves.py",
     "class Spline(Curve):\n    def jet(self, t, order):\n        return t"),
    (curve_kind_defines_jet, "bertrand.py",
     "class Fast(JetBackedCurve):\n    jet = Curve.jet\n"
     "class JetBackedCurve(curves.Curve):\n    pass"),
    (floor_outside_the_pose_stage, "curves.py",
     "def _pose_columns(P, ts):\n    return P < EPS_REG\n"
     "def _columns(P, ts):\n    flat = kappa <= EPS_REG"),
    (floor_outside_the_pose_stage, "curves.py",
     "def _pose_columns(P, ts):\n    return P < EPS_REG\nOK = 1.0 >= EPS_REG * EPS_REG"),
    (floor_outside_the_pose_stage, "curves.py", "def _pose_columns(P, ts):\n    return P"),
    (floor_outside_the_pose_stage, "classify.py", "slow = speed < curves.EPS_REG"),
    (floor_outside_the_pose_stage, "bertrand.py",
     "from .curves import EPS_REG as floor\ndef check(v):\n    return not v >= floor"),
    (floor_outside_the_pose_stage, "indicatrix.py",
     "def _pose_columns(v):\n    return v < EPS_REG"),
    (jet_backed_outside_the_generator, "bertrand.py",
     'PRESETS = {"slant": lambda: JetBackedCurve(jet_fn, ss, label="slant")}'),
    (jet_backed_outside_the_generator, "bertrand.py", "SEED = curves.JetBackedCurve(jet_fn, ss)"),
    (jet_backed_outside_the_generator, "io.py",
     "from .curves import JetBackedCurve as Backed\ndef load(d):\n    return Backed(jet_fn, ts)"),
    (jet_backed_outside_the_generator, "io.py",
     "def construct_mate(base, lam):\n    return JetBackedCurve(jet_fn, ts)"),
    (unused_import, "cli.py", "from contextlib import ExitStack"),
    (unused_import, "curves.py", "import math\nx = 1.0"),
    (unused_import, "cli.py", "from .bertrand import _grid as g\nts = _grid(base, 25)"),
    (pair_model_evaluates_nothing, "bertrand.py",
     "class BertrandPairModel:\n    def _image_jets(self):\n"
     "        return _image_frames(c.jet(self.ts, 6) for c in (self.base, self.mate))"),
    (pair_model_evaluates_nothing, "bertrand.py",
     "class BertrandPairModel:\n"
     "    rows = cached_property(lambda self: _frenet_columns(self.mate, self.ts))"),
    (pair_model_evaluates_nothing, "bertrand.py",
     "class BertrandPairModel:\n    def at(self, t):\n        return self.base.point(t)"),
]


@pytest.mark.parametrize("rule, file, snippet", PLANTED,
                         ids=[f"{rule.__name__}-{i}" for i, (rule, _, _) in enumerate(PLANTED)])
def test_rule_flags_a_planted_violation(rule, file, snippet):
    found = rule({file: ast.parse(snippet)})
    assert found and all(f.startswith(f"{file}:") for f in found)
