"""Properties of the package source itself."""

import ast
from pathlib import Path

import gridhfk

PACKAGE = Path(gridhfk.__file__).parent


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
