"""The package's import graph: every import sits at module level, so no
cycle between modules hides inside a function body; and its launch paths."""
import ast
import re
from pathlib import Path

import pytest

import ringflow

SRC = Path(ringflow.__file__).resolve().parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_import_inside_a_function(path):
    nested = [
        f"{path.name}:{node.lineno}"
        for function in ast.walk(_tree(path))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


def test_circuits_import_nothing_from_experiment():
    """``circuits`` prepares the coefficients it is handed and derives no
    family of its own."""
    modules = {
        node.module
        for node in ast.walk(_tree(SRC / "circuits.py"))
        if isinstance(node, ast.ImportFrom)
    }
    assert "experiment" not in modules


def _calls(tree: ast.AST) -> list[str]:
    return [
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    ]


def test_every_launch_path_calls_one_entry():
    """The console script, ``python -m ringflow`` and ``python -m
    ringflow.cli`` all start at the one process entry of ``ringflow.cli``."""
    script = re.search(
        r'^ringflow = "ringflow\.cli:(\w+)"$', PYPROJECT.read_text(encoding="utf-8"), re.M
    )
    entry = script.group(1)
    assert entry != "main"  # the in-process API, which freezes nothing
    package_main = _tree(SRC / "__main__.py")
    imported = {
        (node.module, node.level, alias.name)
        for node in ast.walk(package_main)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert ("cli", 1, entry) in imported
    assert _calls(package_main) == [entry]
    guard = next(
        node
        for node in _tree(SRC / "cli.py").body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    )
    assert _calls(guard) == [entry]
