"""Properties of the package source itself."""

import ast
import re
from collections import Counter
from pathlib import Path

import gridhfk

PACKAGE = Path(gridhfk.__file__).parent
REPO = Path(__file__).resolve().parent.parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so every check in the package
    # must raise a typed error instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        )
    assert not found, f"assert statements in the package: {found}"


def test_every_definition_is_used():
    # a function, class or method whose name occurs nowhere in the source,
    # the tests or the benchmark except where it is defined is dead code
    files = [p for d in ("src", "tests", "hfkbench") for p in (REPO / d).rglob("*.py")]
    words = Counter(w for p in files for w in re.findall(r"\w+", p.read_text("utf-8")))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    sites = [
        (node.name, f"{path.name}:{node.lineno}")
        for path in sorted((REPO / "src" / "gridhfk").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, kinds) and not node.name.startswith("__")
    ]
    defined = Counter(name for name, _ in sites)
    unused = [f"{where} {name}" for name, where in sites if words[name] <= defined[name]]
    assert not unused, f"definitions nothing uses: {unused}"
