"""The benchmark's anchor cases run through the command line and pass the
benchmark's own oracle.

perfbench/run.py calls ``cli.main`` on scenario files that
perfbench/workloads.py writes, and checks each output directory with
``workloads.check``.  Running each workload's anchor case here the same way
means a change to an output format or a scenario field that the benchmark
reads fails this suite, not only a benchmark run.
"""

import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from photonsphere import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_anchor_case_passes_the_benchmark_oracle(workload, tmp_path):
    case = workloads.anchor_case(workload)
    headrooms = []
    for k, call in enumerate(case.calls):
        scenario = tmp_path / f"scenario{k}.json"
        scenario.write_text(json.dumps(call.scenario, indent=2) + "\n")
        out = tmp_path / f"out{k}"
        code = cli.main([call.command, "--scenario", str(scenario),
                         "--out", str(out)])
        outcome = workloads.check(call, code, str(out))
        assert not outcome.failures, (call.command, outcome.failures)
        if outcome.headroom is not None:
            headrooms.append(outcome.headroom)
    # the anchor's headroom is the benchmark's gate_headroom_dec
    assert headrooms and math.isfinite(min(headrooms)) and min(headrooms) > 0


# In a fresh interpreter, because ``tracing.install`` rebinds the package's
# module attributes: the benchmark's tracer wraps the package, each
# workload's anchor case runs through ``cli.main``, and the child prints
# every traced name and the names each anchor reached (called or counted).
TRACED_CHILD = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
import tracing, workloads
from photonsphere import cli

tracer = tracing.Tracer()
tracing.install(tracer)
names = {f"{m}.{a}" for m, attrs in tracing.TIMED.items() for a in attrs}
names |= {f"{m}.{a}" for (m, _), attrs in tracing.TIMED_METHODS.items()
          for a in attrs}
names |= {f"spacetimes.{a}" for a in tracing.COUNTED_PROFILE_METHODS}
reached = {}
for workload in workloads.WORKLOADS:
    before = dict(tracer.counts)
    for k, call in enumerate(workloads.anchor_case(workload).calls):
        path = os.path.join(sys.argv[2], f"{workload}{k}.json")
        with open(path, "w") as fh:
            json.dump(call.scenario, fh)
        cli.main([call.command, "--scenario", path,
                  "--out", os.path.join(sys.argv[2], f"{workload}{k}")])
    reached[workload] = sorted(n for n in names
                               if tracer.counts[n] > before.get(n, 0))
print(json.dumps({"names": sorted(names), "reached": reached}))
"""


def test_the_tracer_sees_every_layer_each_anchor_reaches(tmp_path):
    """A call that routes around a traced function would read 0 in its
    per-layer figures; the names each anchor case reaches are pinned."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", TRACED_CHILD, str(ROOT / "perfbench"), str(tmp_path)],
        env=env, check=True, capture_output=True, text=True).stdout
    result = json.loads(out)
    names = result["names"]

    def all_but(*prefixes):
        return [n for n in names if not n.startswith(prefixes)]

    assert result["reached"] == {
        "foliation": all_but("quadrature.sphere_laplacian"),
        "tangency": all_but("israel.", "quadrature.", "photon.locate_photon_sphere"),
        "refute": all_but("geodesics.", "quadrature.sphere_laplacian",
                          "photon.certify_photon_surface",
                          "spacetimes.metric_factors_d1"),
    }
