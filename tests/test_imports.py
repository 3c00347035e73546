"""Package import structure: module level only, and acyclic by layer.

Layers, lowest first: jets -> spacetimes -> calculus -> hypersurfaces ->
geodesics / photon -> israel -> cli.  A module may import only modules
of lower layers; quadrature imports nothing from the package and may be
imported by anyone.  Lazy third-party imports (scipy) are not checked by
the layer test; importing the CLI must not load scipy at all, since it
costs more than the rest of the start-up.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "photonsphere"
LAYERS = ("jets", "spacetimes", "calculus", "hypersurfaces", "geodesics",
          "photon", "israel", "cli")
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")


def _package_imports(node):
    """Package modules named by a relative import node."""
    if node.module:
        return [node.module.split(".")[0]]
    return [alias.name for alias in node.names]


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_function_local_relative_imports(path):
    local = []
    for fn in ast.walk(_tree(path)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local += [node.lineno for node in ast.walk(fn)
                      if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert not local, f"{path.name}: relative imports inside functions at {local}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_imports_follow_layers(path):
    imported = set()
    for node in _tree(path).body:
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            imported.update(_package_imports(node))
    if path.stem == "quadrature":
        assert not imported
        return
    rank = LAYERS.index(path.stem)
    for name in imported - {"quadrature"}:
        assert LAYERS.index(name) < rank, f"{path.stem} imports {name}"


def test_cli_import_loads_no_scipy():
    code = ("import sys, photonsphere.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
