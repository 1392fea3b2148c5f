"""The package raises its internal checks, never asserts them: `python -O`
strips assert statements, and selfcheck and the CLI must check the same
under it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "xcomplex"
MODULES = sorted(PACKAGE.glob("*.py"))


def assert_lines(source: str) -> list[int]:
    """Line numbers of the assert statements in `source`."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_assert_lines_are_found():
    source = "def f(x):\n    assert x\n    if x:\n        assert x, 'msg'\n    return x\n"
    assert assert_lines(source) == [2, 4]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_assert_statements(path):
    assert assert_lines(path.read_text()) == []
