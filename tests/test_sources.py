"""Design rules of the package source, checked on its syntax tree without running it."""

import ast
from pathlib import Path

import plrlab

SRC = Path(plrlab.__file__).resolve().parent


def _opens(path: Path) -> list[int]:
    """Line numbers of every ``open(...)`` or ``<x>.open(...)`` call in a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Name) and node.func.id == "open")
                or (isinstance(node.func, ast.Attribute) and node.func.attr == "open"))]


def test_only_core_opens_files():
    # File framing has one home: every reader and writer goes through
    # core.read_ascii and core.write_ascii.
    opening = {path.name: _opens(path) for path in sorted(SRC.glob("*.py"))}
    assert opening["core.py"], "the scan found no open() call in core.py"
    assert {name for name, lines in opening.items() if lines} == {"core.py"}, opening
