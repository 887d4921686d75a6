"""Every name a demo imports from plrlab exists, checked without running it."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _plrlab_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) for each ``from plrlab[.<module>] import name``, and
    (module, None) for each ``import plrlab[.<module>]``."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                (node.module or "").split(".")[0] == "plrlab":
            out.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            out.extend((alias.name, None) for alias in node.names
                       if alias.name.split(".")[0] == "plrlab")
    return out


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_resolve(path):
    imports = _plrlab_imports(path)
    assert imports, f"{path.name} imports nothing from plrlab"
    missing = []
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            missing.append(f"{module}.{name}")
    assert not missing, f"{path.name} imports names plrlab lacks: {missing}"
