"""Package import structure: module level only, and acyclic by layer.

Layers, lowest first: jets -> spacetimes -> calculus -> hypersurfaces ->
geodesics / photon -> israel -> cli.  A module may import only modules
of lower layers; quadrature imports nothing from the package and may be
imported by anyone.  No function imports anything.  Every public
definition is used by the package or the acceptance suite, every
dataclass field is read there, and every parameter default is
overridden by some call there; every name the benchmark's tracer wraps
still exists.  Only cli writes output
formats, and only hypersurfaces calls ``shape`` or ``induced_sampler``.  The only runtime dependency is numpy: the pipelines that used
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


def _reach_trees():
    """The syntax trees whose uses count: the package and the acceptance suite."""
    return ({path.stem: _tree(path) for path in MODULES},
            _tree(pathlib.Path(__file__).with_name("test_acceptance.py")))


def test_every_public_definition_is_reached():
    """Each public module-level function and class is named somewhere in the
    package outside its own definition and the re-exports of __init__.py,
    or in the acceptance suite.  Code that only unit tests reach does not
    belong in the package."""
    trees, acceptance = _reach_trees()
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


def _name_of(expr):
    """The name a Name or Attribute node spells, else None."""
    if isinstance(expr, ast.Name):
        return expr.id
    return expr.attr if isinstance(expr, ast.Attribute) else None


def _is_dataclass(cls):
    return any(_name_of(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in cls.decorator_list)


def _init_fields(cls):
    """The annotated fields of a dataclass that its constructor takes: all
    but those declared ``field(init=False, ...)``."""
    return [f for f in cls.body if isinstance(f, ast.AnnAssign)
            and not (isinstance(f.value, ast.Call)
                     and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                             and k.value.value is False for k in f.value.keywords))]


def test_every_dataclass_field_is_read():
    """Each field of a package dataclass is read as an attribute somewhere in
    the package, its own class's methods included, or in the acceptance
    suite.  A field that only tests read is a result nobody uses."""
    trees, acceptance = _reach_trees()
    read = {node.attr for tree in [*trees.values(), acceptance]
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{stem}.{cls.name}.{f.target.id}"
              for stem, tree in trees.items() for cls in tree.body
              if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
              for f in cls.body if isinstance(f, ast.AnnAssign)
              and f.target.id not in read]
    assert not unread, f"dataclass fields never read: {unread}"


def _defaulted_parameters(stem, tree):
    """(definition, name its calls spell, parameter, positional index in a
    call or None for keyword-only) of every parameter with a default: of
    module functions, of methods (the call does not pass self) and of
    constructors, the dataclass fields and __init__ parameters."""
    found = []

    def params(fn, label, call, offset):
        a = fn.args
        pos = a.posonlyargs + a.args
        first = len(pos) - len(a.defaults)
        found.extend((label, call, arg.arg, i - offset)
                     for i, arg in enumerate(pos[first:], first))
        found.extend((label, call, arg.arg, None)
                     for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            params(node, f"{stem}.{node.name}", node.name, 0)
        elif isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                found.extend((f"{stem}.{node.name}", node.name, f.target.id, i)
                             for i, f in enumerate(_init_fields(node))
                             if f.value is not None)
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    static = any(_name_of(d) == "staticmethod"
                                 for d in fn.decorator_list)
                    params(fn, f"{stem}.{node.name}.{fn.name}",
                           node.name if fn.name == "__init__" else fn.name,
                           0 if static else 1)
    return found


def test_every_default_is_passed():
    """Each parameter with a default, of a function, a method or a class
    constructor in the package, is passed by some call in the package or in
    the acceptance suite: by keyword, by position, or through *args or
    **kwargs.  An option only tests set is one value in use, a constant."""
    trees, acceptance = _reach_trees()
    calls = {}
    for tree in [*trees.values(), acceptance]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_name_of(node.func), []).append(node)

    def passed(call, param, index):
        return any(any(isinstance(a, ast.Starred) for a in node.args)
                   or any(k.arg in (None, param) for k in node.keywords)
                   or (index is not None and len(node.args) > index)
                   for node in calls.get(call, ()))

    unpassed = [f"{label}({param})" for stem, tree in trees.items()
                for label, call, param, index in _defaulted_parameters(stem, tree)
                if not passed(call, param, index)]
    assert not unpassed, f"defaults no call overrides: {unpassed}"


def test_only_hypersurfaces_samples_a_surface():
    """No module but hypersurfaces calls ``shape`` or ``induced_sampler``:
    the others sample a surface {r = r0} through ``hypersurfaces.sample``,
    the one place that guards its shape data and induced metric."""
    found = [f"{path.stem}.{_name_of(node.func)}, line {node.lineno}"
             for path in MODULES if path.stem != "hypersurfaces"
             for node in ast.walk(_tree(path)) if isinstance(node, ast.Call)
             and _name_of(node.func) in ("shape", "induced_sampler")]
    assert not found, f"surface sampled outside hypersurfaces.sample: {found}"


def _module_literal(path, name):
    """The literal value assigned to ``name`` at module level of ``path``."""
    for node in _tree(path).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise KeyError(name)


def test_traced_names_exist():
    """The functions and methods perfbench/tracing.py wraps by name, and the
    cache of ``quadrature.sphere_grid`` whose hits perfbench/run.py counts:
    a rename would otherwise fail only the benchmark's traced run."""
    tracing = ROOT / "perfbench" / "tracing.py"
    grid = importlib.import_module("photonsphere.quadrature").sphere_grid
    missing = [] if hasattr(grid, "cache_info") else [
        "quadrature.sphere_grid.cache_info"]
    for module, names in _module_literal(tracing, "TIMED").items():
        mod = importlib.import_module(f"photonsphere.{module}")
        missing += [f"{module}.{n}" for n in names if not hasattr(mod, n)]
    for (module, cls), names in _module_literal(tracing, "TIMED_METHODS").items():
        owner = getattr(importlib.import_module(f"photonsphere.{module}"), cls)
        missing += [f"{module}.{cls}.{n}" for n in names if not hasattr(owner, n)]
    assert not missing, f"traced but not defined: {missing}"


# Three pipelines in one fresh interpreter: a table profile through `full`,
# the bundled Schwarzschild scenario through `full` with coarse flags, and
# `israel`.  Each must reach its reconstruction, and none load scipy.
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
coarse = ["--levels", "12", "--span", "2"]
runs = {"table": ["full", "--scenario", table] + coarse,
        "full": ["full", "--scenario", "schwarzschild_m1"] + coarse,
        "israel": ["israel", "--scenario", "schwarzschild_m1"]}
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
