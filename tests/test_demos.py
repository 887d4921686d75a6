"""The demos run, and every name a demo or the README imports from plrlab exists."""

import ast
import importlib
import inspect
import re
import runpy
from pathlib import Path

import pytest

import plrlab

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def _plrlab_imports(source: str, filename: str) -> list[tuple[str, str | None]]:
    """(module, name) for each ``from plrlab[.<module>] import name``, and
    (module, None) for each ``import plrlab[.<module>]``."""
    out = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                (node.module or "").split(".")[0] == "plrlab":
            out.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            out.extend((alias.name, None) for alias in node.names
                       if alias.name.split(".")[0] == "plrlab")
    return out


def _demo_imports(path: Path) -> list[tuple[str, str | None]]:
    return _plrlab_imports(path.read_text(encoding="utf-8"), str(path))


def _readme_imports() -> list[tuple[str, str | None]]:
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    return [imp for block in blocks for imp in _plrlab_imports(block, README.name)]


def _missing(imports) -> list[str]:
    missing = []
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            missing.append(f"{module}.{name}")
    return missing


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_resolve(path):
    imports = _demo_imports(path)
    assert imports, f"{path.name} imports nothing from plrlab"
    missing = _missing(imports)
    assert not missing, f"{path.name} imports names plrlab lacks: {missing}"


# Demo 04 trains several acceptance-config models, seconds each; tier-1 time
# is a measured cost, so only its imports are checked.
@pytest.mark.parametrize("path", [p for p in DEMOS if not p.stem.startswith("04_")],
                         ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip(), f"{path.name} printed nothing"


def test_readme_imports_resolve():
    imports = _readme_imports()
    assert imports, "README's python blocks import nothing from plrlab"
    missing = _missing(imports)
    assert not missing, f"README imports names plrlab lacks: {missing}"


def test_package_root_exports_what_readme_and_demos_import():
    imports = _readme_imports() + [imp for path in DEMOS for imp in _demo_imports(path)]
    used = {name for module, name in imports if module == "plrlab"}
    exported = {name for name, value in vars(plrlab).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == used | {"PlrError"}
