"""Source hygiene checks that need only the standard library."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "regtri").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))

sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402


def unused_imports(source: str) -> list:
    """(line, name) of each name bound by an import and never read.
    Names imported on a line marked "# noqa: F401" are kept on purpose;
    annotations written as strings count as reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                if alias.name == "annotations":  # from __future__
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [
        node.annotation if isinstance(node, (ast.arg, ast.AnnAssign)) else node.returns
        for node in ast.walk(tree)
        if isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef))
    ]
    for ann in filter(None, annotations):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = (
        "import os\nimport json\nfrom typing import Any, Dict\n"
        "from x import y  # noqa: F401\n"
        "def f(a: 'Dict') -> 'Any':\n    'os'\n    return json.dumps(1)\n"
    )
    assert unused_imports(source) == [(1, "os")]


def test_every_import_is_used():
    found = {
        path.relative_to(ROOT).as_posix(): unused
        for path in SOURCES
        if path.name != "__init__.py"  # the package re-exports its API
        for unused in [unused_imports(path.read_text())]
        if unused
    }
    assert found == {}


def top_level_names(sources: dict):
    """(module, name, node) of each top-level function, class or
    assigned name in the given {module: source}, and the names that
    any of them reads, by name or as an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name, node))
            elif isinstance(node, ast.Assign):
                defined += [(module, t.id, node) for t in node.targets
                            if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return defined, read


def unreferenced_private_names(sources: dict) -> list:
    """(module, name) of each top-level private function, class or
    assignment in the given {module: source} that no module reads, by
    name or as an attribute: a helper that nothing calls any more."""
    defined, read = top_level_names(sources)
    return sorted((module, name) for module, name, _ in defined
                  if name.startswith("_") and not name.startswith("__") and name not in read)


def test_unreferenced_private_names_are_found():
    sources = {
        "a": "_KEPT = 1\n_DROPPED = 2\ndef _helper():\n    return _KEPT\n"
             "def _left(): pass\nclass _Old: pass\n__all__ = []\n",
        "b": "from a import _helper\nimport a\na._helper()\n",
    }
    assert unreferenced_private_names(sources) == [
        ("a", "_DROPPED"), ("a", "_Old"), ("a", "_left")]


def test_every_private_name_in_the_package_is_read():
    sources = {path.name: path.read_text() for path in PACKAGE}
    assert unreferenced_private_names(sources) == []


# math functions that take and return integers; every other name in
# math (sqrt, log, exp, pi, ...) is floating point
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def floating_point(source: str) -> list:
    """(line, what) of each float or complex literal, float() call and
    floating-point math name in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float()"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in INTEGER_MATH):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{alias.name}") for alias in node.names
                      if alias.name not in INTEGER_MATH]
    return sorted(found)


def test_floating_point_is_found():
    source = (
        "import math\nfrom math import lcm, sqrt\nx = 0.5 + 1j\n"
        "y = float('1')\nz = math.log(2) + math.comb(4, 2) + math.pi\n"
        "w = lcm(2, 3) // 1\n"
    )
    assert floating_point(source) == [
        (2, "math.sqrt"), (3, "0.5"), (3, "1j"), (4, "float()"),
        (5, "math.log"), (5, "math.pi")]


def test_no_floating_point_in_the_package():
    """The README promises no floating point anywhere in regtri."""
    found = {path.name: fp for path in PACKAGE if (fp := floating_point(path.read_text()))}
    assert found == {}


def reads_of(source: str, name: str) -> list:
    """Lines that use `name` as an attribute, a bare name or a string
    (as getattr takes it): every way a module can reach an attribute."""
    return sorted({
        node.lineno for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Constant) and node.value == name)
    })


def test_reads_of_a_name_are_found():
    source = (
        "rows = config.integer_rows\n"
        "'the integer_rows, in prose, are no read'\n"
        "x = getattr(config, 'integer_rows')\n"
        "integer_rows = 1\n"
        "y = config.integer_rows_other\n"
    )
    assert reads_of(source, "integer_rows") == [1, 3, 4]


def test_only_geometry_reads_the_integer_rows():
    """geometry.homogenized is the one way to the integer point matrix."""
    found = {path.name: lines for path in PACKAGE if path.name != "geometry.py"
             if (lines := reads_of(path.read_text(), "integer_rows"))}
    assert found == {}


def scopes_where(source: str, matches) -> list:
    """Qualified names (Class.method, function or <module>) of the
    definitions whose own bodies hold a node for which matches(node) is
    true, one entry per node; a node inside a nested definition counts
    for that definition."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if matches(child):
                found.append(scope or "<module>")
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(found)


def callers_of(source: str, name: str) -> list:
    """The definitions (see scopes_where) whose own bodies call `name`,
    bare or as an attribute, one entry per call."""
    def calls(node):
        func = node.func if isinstance(node, ast.Call) else None
        return ((isinstance(func, ast.Name) and func.id == name)
                or (isinstance(func, ast.Attribute) and func.attr == name))

    return scopes_where(source, calls)


def test_callers_of_a_name_are_found():
    source = (
        "x = f(1)\n"
        "def g():\n    return [f(a) for a in m.f(2)]\n"
        "class C:\n    def v(self):\n        def inner():\n            return f\n"
        "        return inner() + self.f(3) + other.f_value(1)\n"
        "def h():\n    return f_other(1)\n"
    )
    assert callers_of(source, "f") == ["<module>", "C.v", "g", "g"]


def test_solve_lp_has_one_caller():
    """Every LP the package solves is the margin LP that max_margin
    builds."""
    found = {f"{path.stem}.{caller}" for path in PACKAGE
             for caller in callers_of(path.read_text(), "solve_lp")}
    assert found == {"linprog.max_margin"}


def test_max_margin_has_three_callers():
    """The margin LP is built for regularity, shared witnesses and
    feasibility only: vertices, visibility and vertex figures are read
    off circuits and facets, so geometry and lifting solve no LP."""
    found = {f"{path.stem}.{caller}" for path in PACKAGE
             for caller in callers_of(path.read_text(), "max_margin")}
    assert found == {"triangulations.is_regular", "enumeration.shared_witness",
                     "linprog.lp_feasible"}


def test_triangulations_solves_one_lp():
    """The regularity LP is the one LP of the triangulations module:
    the oracle's pair test reads circuits off the chirotope."""
    source = (ROOT / "src" / "regtri" / "triangulations.py").read_text()
    assert callers_of(source, "max_margin") == ["is_regular"]


def test_det_has_one_caller():
    """Every orientation sign and affine dependence is read from a
    configuration's chirotope, which takes each subset's determinant
    once, and no other code takes a determinant."""
    found = {f"{path.stem}.{caller}" for path in PACKAGE
             for name in ("det", "det_sign")
             for caller in callers_of(path.read_text(), name)}
    assert found == {"geometry.Chirotope.minor"}


def test_cramers_rule_lives_in_one_helper():
    """The affine dependence of a (d+2)-subset is Chirotope.dependence,
    read by the circuits of a configuration (which the circuit table and
    the oracle's pair test read), the affine coordinates of a point over
    a cell, the oracle's facet test, the lower hull, a lift's same-side
    check and the sweep's breakpoints; no other code writes the
    alternating signs of its minors."""
    found = {f"{path.stem}.{caller}" for path in PACKAGE
             for caller in callers_of(path.read_text(), "dependence")}
    assert found == {"enumeration.t_sweep",
                     "geometry.Chirotope.coordinates",
                     "geometry.PointConfiguration.circuits",
                     "lifting._validate_same_side",
                     "triangulations._facet_separates",
                     "triangulations.regular_subdivision"}


def test_triangulations_takes_no_rank():
    """The pair test reads affine independence off the chirotope's minor
    and the configuration's circuits, and placing's default order reads
    the configuration's cached affine basis: the triangulations module
    takes no rank.  Only linalg reaches into its reduction."""
    source = (ROOT / "src" / "regtri" / "triangulations.py").read_text()
    assert callers_of(source, "rank") == []
    assert {path.name for path in PACKAGE if reads_of(path.read_text(), "_rref")} == {"linalg.py"}


def test_regular_subdivision_reads_no_hyperplanes():
    """The lower hull is read off the base's minors: no lifted
    configuration, no hyperplane kernel and no side value, and no read
    of a configuration's cached hyperplanes."""
    source = (ROOT / "src" / "regtri" / "triangulations.py").read_text()
    found = {name: callers for name in ("spanned_hyperplanes", "side_value",
                                        "hyperplane_functional", "PointConfiguration")
             if (callers := callers_of(source, name))}
    assert found == {}
    assert reads_of(source, "hyperplanes") == []


def test_lift_validation_reads_no_hyperplanes():
    """A lift's same-side check is read off the base's minors: lifting
    calls no hyperplane kernel or side value, reads no configuration's
    cached hyperplanes, and the check builds no lifted configuration."""
    source = (ROOT / "src" / "regtri" / "lifting.py").read_text()
    found = {name: callers for name in ("spanned_hyperplanes", "side_value")
             if (callers := callers_of(source, name))}
    assert found == {}
    assert reads_of(source, "hyperplanes") == []
    assert "_validate_same_side" not in callers_of(source, "PointConfiguration")


def test_hyperplane_kernels_are_taken_in_three_places():
    """Every spanned hyperplane's integer functional is taken once per
    configuration, by the cached PointConfiguration.hyperplanes, which
    general position and the split gap read; besides it only facets
    (through hyperplane_functional) and the facet normals of
    _outward_functionals take one."""
    found = {f"{path.stem}.{caller}" for path in PACKAGE
             for caller in callers_of(path.read_text(), "_integer_functional")}
    assert found == {"geometry.PointConfiguration.hyperplanes",
                     "geometry.hyperplane_functional", "geometry._outward_functionals"}


def test_in_convex_position_has_two_callers():
    """Library lifts take any base; convex position is proved where
    regtri lift reads its input, and by pulling, which needs it."""
    found = {f"{path.stem}.{caller}" for path in PACKAGE
             for caller in callers_of(path.read_text(), "in_convex_position")}
    assert found == {"cli.lift", "triangulations.pulling_triangulation"}


def test_fraction_functionals_are_evaluated_only_in_facets():
    """Side-of-hyperplane tests read integer side values
    (geometry.side_value); Fraction evaluation is left to facets."""
    found = {f"{path.stem}.{caller}" for path in PACKAGE
             for caller in callers_of(path.read_text(), "functional_value")}
    assert found == {"geometry.facets"}


def test_hyperplane_functional_has_one_caller():
    """facets is the one reader of the Fraction functional of a
    hyperplane, so its side test can change inside one function."""
    found = {f"{path.stem}.{caller}" for path in PACKAGE
             for caller in callers_of(path.read_text(), "hyperplane_functional")}
    assert found == {"geometry.facets"}


def test_one_helper_draws_the_seeded_offsets():
    """split_point and perturb_general move a point by the same seeded
    draw, geometry._near_point."""
    found = {f"{path.stem}.{caller}" for path in PACKAGE
             for caller in callers_of(path.read_text(), "randint")}
    assert found == {"geometry._near_point"}


def floor_divisions_by(source: str, name: str) -> list:
    """The definitions (see scopes_where) whose own bodies floor-divide
    by the bare name `name`, with // or //=, one entry per division;
    dividing by an attribute (x // self.name) or dividing `name` itself
    does not count."""
    def divides(node):
        divisor = (node.right if isinstance(node, ast.BinOp)
                   else node.value if isinstance(node, ast.AugAssign) else None)
        return (isinstance(getattr(node, "op", None), ast.FloorDiv)
                and isinstance(divisor, ast.Name) and divisor.id == name)

    return scopes_where(source, divides)


def test_floor_divisions_by_a_name_are_found():
    source = (
        "x = 6 // den\n"
        "def step(rows, den):\n    return [[(p * x) // den for x in r] for r in rows]\n"
        "class T:\n    def scale(self, den, g):\n        g //= den\n        den //= g\n"
        "        return den // g + self.den // 2 + 4 // self.den + 1 / den\n"
    )
    assert floor_divisions_by(source, "den") == ["<module>", "T.scale", "step"]


def test_only_pivot_writes_the_fraction_free_step():
    """Edmonds' update divides by the running denominator den; linalg.pivot
    is the one place that writes it, for _rref and the simplex alike."""
    found = {path.name: divs for path in PACKAGE
             if (divs := floor_divisions_by(path.read_text(), "den"))}
    assert found == {"linalg.py": ["pivot", "pivot"]}


def shifts(source: str) -> list:
    """Lines that shift an int with << or >>, or their augmented forms."""
    return sorted({
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(getattr(node, "op", None), (ast.LShift, ast.RShift))
    })


def test_shifts_are_found():
    source = (
        "x = (v << b) + 1\n"
        "'a << b in prose'\n"
        "y = [u >> s & m for u in xs]\n"
        "z = 2 * b\n"
        "z <<= 3\n"
        "w = a < b > c\n"
    )
    assert shifts(source) == [1, 3, 5]


def test_only_linalg_knows_the_packed_layout():
    """Rows packed into one int are made and read by linalg.Packing;
    no other module shifts an int."""
    found = {path.name: lines for path in PACKAGE if path.name != "linalg.py"
             if (lines := shifts(path.read_text()))}
    assert found == {}


def test_no_second_coordinate_memo_is_left():
    """A configuration keeps one memo of its linear algebra, the
    chirotope: no name of the per-cell reduction memo it replaced."""
    gone = {"CellCoordinates", "cell_coordinates", "_affine_coordinates"}
    found = {}
    for path in PACKAGE:
        # names read or bound, attributes, definitions and imported names
        names = {getattr(node, attr, None) for node in ast.walk(ast.parse(path.read_text()))
                 for attr in ("id", "attr", "name")}
        if names & gone:
            found[path.name] = sorted(names & gone)
    assert found == {}


def test_cell_coordinates_serve_only_magnitudes():
    """Sign-only questions read the chirotope's signs; the affine
    coordinates of a point over a cell (Chirotope.coordinates) are read
    where magnitudes are needed: the folding rows and barycentric."""
    found = {f"{path.stem}.{caller}" for path in PACKAGE
             for caller in callers_of(path.read_text(), "coordinates")}
    assert found == {"triangulations._folding_pass", "triangulations.barycentric"}


def unread_public_names(sources: dict) -> list:
    """(module, name) of each public top-level function, class or
    assignment in the given {module: source} that no module reads, by
    name or as an attribute, and that "__init__" does not import: a
    name only an outside caller keeps.  A function registered as a CLI
    command, by a @command(...) decorator, is not counted."""
    exported = {alias.asname or alias.name for node in ast.parse(sources["__init__"]).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    defined, read = top_level_names(sources)

    def command(node):
        return any(isinstance(dec, ast.Call) and getattr(dec.func, "id", None) == "command"
                   for dec in getattr(node, "decorator_list", ()))

    return sorted((module, name) for module, name, node in defined
                  if not name.startswith("_") and name not in read
                  and name not in exported and not command(node))


def test_unread_public_names_are_found():
    sources = {
        "__init__": "from .a import Exported\n",
        "a": "class Exported: pass\nKEPT = 1\nLEFT = 2\ndef _private(): pass\n"
             "def used():\n    return KEPT\ndef unused(): pass\n"
             "@command('run')\ndef run(): pass\n",
        "b": "import a\na.used()\n",
    }
    assert unread_public_names(sources) == [("a", "LEFT"), ("a", "unused")]


# What no package module reads and the package does not export, kept
# only because perfbench traces it; drop one here when the benchmark
# stops tracing it.
KEPT_FOR_PERFBENCH = {
    ("linalg", "det_sign"), ("linalg", "solve"), ("linalg", "rank"),
    ("linalg", "kernel_vector"), ("linprog", "lp_feasible"),
    ("triangulations", "barycentric"),
    ("triangulations", "simplices_properly_intersect"),
}


def test_every_public_name_is_read_exported_or_traced():
    """Every public top-level name of the package is read in it,
    exported by regtri/__init__.py, the heights wire writer, or kept
    only for perfbench, which must trace it in its module."""
    sources = {path.stem: path.read_text() for path in PACKAGE}
    unread = set(unread_public_names(sources)) - {("triangulations", "heights_to_json")}
    assert unread == KEPT_FOR_PERFBENCH
    assert {(m, n) for m, n in KEPT_FOR_PERFBENCH if n not in spans.TRACED[m]} == set()
