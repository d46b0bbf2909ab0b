"""The names the demos and the benchmark harness take from gala exist.

A deleted export that a demo or the benchmark needs fails here, not
only when that script runs.
"""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

import pytest

import gala

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
BENCHMARK_SCRIPTS = sorted((ROOT / "benchmarks").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    """Importing a demo binds its gala names and runs nothing else: each
    demo keeps its work behind a __main__ guard."""
    assert 'if __name__ == "__main__":' in path.read_text(encoding="utf-8")
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


def _gala_names(tree):
    """Every dotted name under gala that the module imports or reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "gala":
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.name[5:] for alias in node.names
                        if alias.name.startswith("gala."))
        elif isinstance(node, ast.Attribute):
            parts = [node.attr]
            value = node.value
            while isinstance(value, ast.Attribute):
                parts.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id == "gala":
                yield ".".join(reversed(parts))


def _resolves(dotted: str) -> bool:
    """Whether gala.<dotted> exists, importing submodules on the way."""
    owner, module = gala, "gala"
    for part in dotted.split("."):
        module = f"{module}.{part}"
        if not hasattr(owner, part):
            if not (isinstance(owner, types.ModuleType) and importlib.util.find_spec(module)):
                return False
            importlib.import_module(module)
        owner = getattr(owner, part)
    return True


@pytest.mark.parametrize("path", BENCHMARK_SCRIPTS, ids=lambda p: p.stem)
def test_benchmark_gala_names_resolve(path):
    names = set(_gala_names(ast.parse(path.read_text(encoding="utf-8"))))
    assert not sorted(n for n in names if not _resolves(n))
