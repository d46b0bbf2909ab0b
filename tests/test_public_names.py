"""The names the demos and the benchmark harness take from gala exist,
the README's library quick start runs and its selector examples parse.

A deleted export that a demo or the benchmark needs, or an API change or
config field the README still shows, fails here, not only when a reader
runs it.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
import json
import re
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


def test_readme_library_quick_start_runs():
    """The python block under "Library quick start" in README.md, as written."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
    assert out.getvalue().startswith("stream acc ")


def _json_values(text):
    """The JSON values written one after another in ``text``."""
    decoder, text = json.JSONDecoder(), text.strip()
    while text:
        value, end = decoder.raw_decode(text)
        yield value
        text = text[end:].strip()


def test_readme_selector_examples_parse():
    """Each selector in a json block under "## Configuration" in README.md,
    put into the quickstart config, parses."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    selectors = [value for block in re.findall(r"```json\n(.*?)```", section, re.DOTALL)
                 for value in _json_values(block)]
    assert {key for selector in selectors for key in selector} == {"gala", "baseline"}
    raw = json.loads((ROOT / "demos" / "configs" / "quickstart.json").read_text())
    del raw["sweep"]  # a threshold sweep needs a gala selector
    for selector in selectors:
        gala.parse_config({**raw, "selector": selector})
