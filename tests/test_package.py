"""The package's import graph: every import sits at module level, so no
cycle between modules hides inside a function body."""
import ast
from pathlib import Path

import pytest

import ringflow

SRC = Path(ringflow.__file__).resolve().parent


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
