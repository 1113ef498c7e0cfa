"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "regtri").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


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
