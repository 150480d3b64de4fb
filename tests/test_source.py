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


def _texts() -> list[str]:
    """Every Python file of the source, the tests and the benchmark."""
    return [
        p.read_text("utf-8")
        for d in ("src", "tests", "hfkbench")
        for p in (REPO / d).rglob("*.py")
    ]


def _package_trees() -> list[tuple[str, ast.Module]]:
    return [
        (path.name, ast.parse(path.read_text("utf-8")))
        for path in sorted((REPO / "src" / "gridhfk").glob("*.py"))
    ]


def test_every_definition_is_used():
    # a function, class or method whose name occurs nowhere in the source,
    # the tests or the benchmark except where it is defined is dead code
    words = Counter(w for text in _texts() for w in re.findall(r"\w+", text))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    sites = [
        (node.name, f"{name}:{node.lineno}")
        for name, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, kinds) and not node.name.startswith("__")
    ]
    defined = Counter(name for name, _ in sites)
    unused = [f"{where} {name}" for name, where in sites if words[name] <= defined[name]]
    assert not unused, f"definitions nothing uses: {unused}"


def test_every_method_is_accessed():
    # a method is reached as ``.name``; the word count above misses one
    # whose name also occurs as some other word
    accessed = {w for text in _texts() for w in re.findall(r"\.(\w+)", text)}
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    unaccessed = [
        f"{name}:{node.lineno} {cls.name}.{node.name}"
        for name, tree in _package_trees()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, kinds)
        and not node.name.startswith("__")
        and node.name not in accessed
    ]
    assert not unaccessed, f"methods nothing accesses: {unaccessed}"



def test_benchmark_imports_exist():
    # no test imports hfkbench/tracing.py, so a package name it imports
    # could be renamed or deleted without any other test failing
    missing = []
    for path in sorted((REPO / "hfkbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            if any(m.split(".")[0] == "gridhfk" for m in modules):
                try:
                    exec(ast.unparse(node), {})
                except ImportError as exc:
                    missing.append(f"{path.name}:{node.lineno} {exc}")
    assert not missing, f"benchmark imports the package lacks: {missing}"


def _named(node: ast.AST) -> str | None:
    """The name a node refers to: a name read or an attribute access."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_no_definition_only_the_tests_use():
    # code that only the tests run belongs in tests/references.py: every
    # function, class and method of the package must be named in the
    # package outside its own body (re-exports in __init__.py aside), or in
    # the code of the benchmark or the scripts (a name inside a string, as
    # the benchmark's error tally has, does not count)
    trees = [(name, tree) for name, tree in _package_trees() if name != "__init__.py"]
    used = Counter(_named(n) for _, tree in trees for n in ast.walk(tree))
    outside = {
        _named(n)
        for d in ("hfkbench", "scripts")
        for p in (REPO / d).rglob("*.py")
        for n in ast.walk(ast.parse(p.read_text("utf-8")))
    }
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    test_only = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, kinds)
        and not node.name.startswith("__")
        and node.name not in outside
        and used[node.name] <= sum(_named(n) == node.name for n in ast.walk(node))
    ]
    assert not test_only, f"definitions only the tests use: {test_only}"
