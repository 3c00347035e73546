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
import pathlib

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
