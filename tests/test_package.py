"""Checks on the package source: no unused module-level imports, no stale
``__all__`` entries, no public name that nothing references (the project
declares no linter, so these checks stand in for one), and no heavy scipy
submodule loaded by commands that do not need it."""

import ast
import importlib
import os
import pathlib
import re
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


# where a public name counts as used: the package, its tests, demos and
# benchmark, and the README, which documents config.describe_schema
ROOT = pathlib.Path(__file__).resolve().parents[1]
REFERENCE_SOURCES = sorted(p for d in ("src", "tests", "demos", "perfbench")
                           for p in (ROOT / d).rglob("*.py"))


def _references(tree: ast.Module) -> set[str]:
    """Names a module reads: loaded names, attributes, imported names and
    string constants (as ``getattr`` takes them).  Its own ``__all__`` list
    and the targets of its definitions are not references."""
    skip = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            skip = set(ast.walk(node.value))
    found = set()
    for node in ast.walk(tree):
        if node in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_every_public_name_is_referenced():
    referenced = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for path in REFERENCE_SOURCES:
        referenced |= _references(ast.parse(path.read_text()))
    unreferenced = [f"{_module_name(path)}.{name}" for path in SOURCES
                    for name in _all_entries(ast.parse(path.read_text()))
                    if name not in referenced]
    assert unreferenced == []


def test_definition_and_all_entry_are_not_references():
    tree = ast.parse("__all__ = ['dead', 'used', 'LIMIT']\nLIMIT = 1\n"
                     "def dead():\n    pass\ndef used():\n    return LIMIT\n"
                     "x = getattr(object(), 'used')\n")
    refs = _references(tree)
    assert "dead" not in refs and {"used", "LIMIT"} <= refs


def test_unused_import_is_reported(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("import os\nimport sys  # noqa: F401\nfrom typing import Any, Optional\n"
                      "__all__ = ['Any']\n")
    assert _unused_imports(source) == ["sample.py:1: os", "sample.py:3: Optional"]


HEAVY_SCIPY = ("scipy.sparse", "scipy.linalg", "scipy.optimize", "scipy.integrate")

_LOADED_AFTER = """
import sys
import catlink.cli
loaded = [m for m in {heavy!r} if m in sys.modules]
assert catlink.cli.main({args!r} + ["--out", sys.argv[1]]) == 0
print([loaded, [m for m in {heavy!r} if m in sys.modules]])
"""


def _heavy_loaded(args: list[str], out: pathlib.Path) -> list[list[str]]:
    """[before, after]: the ``HEAVY_SCIPY`` modules loaded after importing
    the CLI and after running ``catlink <args>`` with the default config."""
    env = dict(os.environ)
    env.pop("CATLINK_CONFIG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(catlink.__file__).parent.parent), env.get("PYTHONPATH", "")])
    script = _LOADED_AFTER.format(heavy=HEAVY_SCIPY, args=args)
    proc = subprocess.run([sys.executable, "-c", script, str(out)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_scipy_submodules_load_on_first_use(tmp_path):
    # catlink reaches scipy's submodules by attribute at the call site, so
    # the import and the Monte-Carlo command, which needs numpy only, never
    # load them
    assert _heavy_loaded(["mc", "--trials", "10000"], tmp_path) == [[], []]


@pytest.mark.parametrize("command, unused", [
    ("transduce", HEAVY_SCIPY),
    ("gates", ("scipy.optimize", "scipy.integrate")),
])
def test_integrating_commands_load_no_scipy_integrator(tmp_path, command, unused):
    # the ODE integrator is catlink's own, so a command that integrates but
    # never optimizes loads neither scipy.integrate nor scipy.optimize (which
    # scipy.integrate's package import would pull in); transduce needs no
    # sparse or linear-algebra submodule either
    _, after = _heavy_loaded([command], tmp_path)
    assert [m for m in unused if m in after] == []
