"""Package import structure: module level only, and acyclic by layer.

Layers, lowest first: jets -> spacetimes -> calculus -> hypersurfaces ->
geodesics / photon -> israel -> cli.  A module may import only modules
of lower layers; quadrature imports nothing from the package and may be
imported by anyone.  No function imports anything, and every public
definition is used by the package or the acceptance suite, and every
name the benchmark's tracer wraps still exists.  Only cli writes output
formats.  The only runtime dependency is numpy: the pipelines that used
to need scipy (table profiles and the lapse reconstruction) must run
without loading it.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE_DIR = ROOT / "src" / "photonsphere"
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
    """No import of any kind, relative or absolute, inside a function."""
    local = []
    for fn in ast.walk(_tree(path)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local += [node.lineno for node in ast.walk(fn)
                      if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not local, f"{path.name}: imports inside functions at {local}"


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


def _output_writers(tree):
    """Where ``tree`` spells an output format: a csv import, a json.dump or
    json.dumps call, an open() whose mode is not a read-only literal, or a
    method named to_*."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"import csv, line {node.lineno}" for a in node.names
                      if a.name == "csv"]
        elif isinstance(node, ast.ImportFrom) and node.module in ("csv", "json"):
            found += [f"from {node.module} import {a.name}, line {node.lineno}"
                      for a in node.names
                      if node.module == "csv" or a.name in ("dump", "dumps")]
        elif isinstance(node, ast.Call):
            fn = node.func
            if (isinstance(fn, ast.Attribute) and fn.attr in ("dump", "dumps")
                    and isinstance(fn.value, ast.Name) and fn.value.id == "json"):
                found.append(f"json.{fn.attr}, line {node.lineno}")
            if isinstance(fn, ast.Name) and fn.id == "open":
                mode = (node.args[1:2] + [k.value for k in node.keywords
                                          if k.arg == "mode"])
                if mode and not (isinstance(mode[0], ast.Constant)
                                 and set(mode[0].value) <= set("rbt")):
                    found.append(f"open(..., {ast.unparse(mode[0])}), "
                                 f"line {node.lineno}")
        elif isinstance(node, ast.ClassDef):
            found += [f"{node.name}.{fn.name}" for fn in node.body
                      if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and fn.name.startswith("to_")]
    return found


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "cli"],
                         ids=lambda p: p.stem)
def test_only_cli_writes_output_formats(path):
    """Every output file's format is spelled in cli alone."""
    found = _output_writers(_tree(path))
    assert not found, f"{path.name}: {found}"


def _names_used(tree, skip=None):
    """Every ast.Name id and ast.Attribute attr in ``tree``, leaving out the
    subtree ``skip``."""
    used, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


def test_every_public_definition_is_reached():
    """Each public module-level function and class is named somewhere in the
    package outside its own definition and the re-exports of __init__.py,
    or in the acceptance suite.  Code that only unit tests reach does not
    belong in the package."""
    trees = {path.stem: _tree(path) for path in MODULES}
    acceptance = _tree(pathlib.Path(__file__).with_name("test_acceptance.py"))
    elsewhere = {stem: _names_used(tree) for stem, tree in trees.items()}
    unreached = []
    for stem, tree in trees.items():
        others = set().union(*(used for other, used in elsewhere.items()
                               if other != stem), _names_used(acceptance))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in others | _names_used(tree, skip=node)):
                unreached.append(f"{stem}.{node.name}")
    assert not unreached, f"defined but never used: {unreached}"


def _module_literal(path, name):
    """The literal value assigned to ``name`` at module level of ``path``."""
    for node in _tree(path).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise KeyError(name)


def test_traced_names_exist():
    """The functions and methods perfbench/tracing.py wraps by name: a
    rename would otherwise fail only the benchmark's traced run."""
    tracing = ROOT / "perfbench" / "tracing.py"
    missing = []
    for module, names in _module_literal(tracing, "TIMED").items():
        mod = importlib.import_module(f"photonsphere.{module}")
        missing += [f"{module}.{n}" for n in names if not hasattr(mod, n)]
    for (module, cls), names in _module_literal(tracing, "TIMED_METHODS").items():
        owner = getattr(importlib.import_module(f"photonsphere.{module}"), cls)
        missing += [f"{module}.{cls}.{n}" for n in names if not hasattr(owner, n)]
    assert not missing, f"traced but not defined: {missing}"


# Three pipelines in one fresh interpreter: a table profile through `full`,
# the bundled Schwarzschild scenario through `full` with coarse flags, and
# `reconstruct`.  Each must reach its reconstruction, and none load scipy.
NO_SCIPY_CHILD = """
import json, os, sys
import numpy as np
from photonsphere import cli

tmp = sys.argv[1]
r = np.geomspace(2.05, 130.0, 120)
rows = np.column_stack([r, np.sqrt(1 - 2 / r), 1 / (1 - 2 / r)]).tolist()
table = os.path.join(tmp, "table.json")
with open(table, "w") as fh:
    json.dump({"schema": 1, "pipeline": "full", "scan": [2.2, 50.0],
               "profile": {"kind": "table", "samples": rows},
               "tail_radius": 100.0}, fh)
coarse = ["--levels", "12", "--quad", "8x16", "--span", "2"]
runs = {"table": ["full", "--scenario", table] + coarse,
        "full": ["full", "--scenario", "schwarzschild_m1"] + coarse,
        "reconstruct": ["reconstruct", "--scenario", "schwarzschild_m1"]}
codes = {}
for name, args in runs.items():
    out = os.path.join(tmp, name)
    codes[name] = cli.main(args + ["--out", out])
    assert os.path.exists(os.path.join(out, "reconstruction.json")), name
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_pipelines_load_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_CHILD, str(tmp_path)],
                         env=env, check=True, capture_output=True, text=True).stdout
    result = json.loads(out)
    assert result["scipy"] == []
    assert set(result["codes"].values()) <= {0, 1, 2}
