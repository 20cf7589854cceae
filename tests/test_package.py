"""Checks on the package source: no unused module-level imports, no stale
``__all__`` entries (the project declares no linter, so these two checks
stand in for one), and no heavy scipy submodule loaded by commands that do
not need it."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import catlink

SOURCES = sorted(pathlib.Path(catlink.__file__).parent.glob("*.py"))


def _module_name(path: pathlib.Path) -> str:
    return "catlink" if path.stem == "__init__" else f"catlink.{path.stem}"


def _unused_imports(path: pathlib.Path) -> list[str]:
    """Names bound by module-level imports that the module never reads.

    An import whose lines carry ``noqa`` is exempt: it re-exports a name on
    purpose.  ``__all__`` entries count as reads.
    """
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= set(_all_entries(tree))
    return [f"{path.name}:{line}: {name}" for name, line in bound.items() if name not in read]


def _all_entries(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_all_entry_resolves(path):
    module = importlib.import_module(_module_name(path))
    entries = _all_entries(ast.parse(path.read_text()))
    assert [name for name in entries if not hasattr(module, name)] == []


def test_unused_import_is_reported(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("import os\nimport sys  # noqa: F401\nfrom typing import Any, Optional\n"
                      "__all__ = ['Any']\n")
    assert _unused_imports(source) == ["sample.py:1: os", "sample.py:3: Optional"]


HEAVY_SCIPY = ("scipy.sparse", "scipy.linalg", "scipy.optimize", "scipy.integrate")

_LOADED_AFTER_MC = """
import sys
import catlink.cli
loaded = [m for m in {heavy!r} if m in sys.modules]
assert catlink.cli.main(["mc", "--trials", "10000", "--out", sys.argv[1]]) == 0
print(loaded, [m for m in {heavy!r} if m in sys.modules])
"""


def test_scipy_submodules_load_on_first_use(tmp_path):
    # catlink reaches scipy's submodules by attribute at the call site, so
    # the import and the Monte-Carlo command, which needs numpy only, never
    # load them
    env = dict(os.environ)
    env.pop("CATLINK_CONFIG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(catlink.__file__).parent.parent), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", _LOADED_AFTER_MC.format(heavy=HEAVY_SCIPY),
                           str(tmp_path)], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[] []"
