"""Benchmark of the photonsphere verifier: time to a checked verdict.

    python3 perfbench/run.py --workload foliation --seed 1 --seconds 30 --trace 0

Run from any directory of a source checkout; the package is imported from
its ``src/``.  One process runs one workload as a closed loop: one caller,
one scenario in flight, calling ``photonsphere.cli.main`` in process on
scenario files generated from the seed (see workloads.py).  Every output is
checked against closed form.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of one traced
batch with ``--trace 1``.  A fuller record, with provenance and every case,
is written under ``.perfbench_work/records/``.  See README.md.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set before numpy is first imported, here and in the set-up interpreters, so
# that batched linear algebra does not compete for the cores.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

# Runs in a fresh interpreter: the import cost a command-line user pays on
# every invocation, split into the package import and the imports its
# pipelines defer until first use.
SETUP_CHILD = r"""
import importlib, json, sys, time
sys.path.insert(0, sys.argv[1])
deferred = json.loads(sys.stdin.read())
t0 = time.perf_counter()
import photonsphere.cli
t1 = time.perf_counter()
for name in deferred:
    try:
        importlib.import_module(name)
    except ImportError:
        pass
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "deferred_import_s": t2 - t1}))
"""


def _die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (SRC / "photonsphere" / "cli.py").is_file():
        _die(f"no photonsphere sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from photonsphere import cli
    if Path(cli.__file__).resolve().parent != (SRC / "photonsphere").resolve():
        _die(f"photonsphere imported from {cli.__file__}, not from {SRC}")
    return cli


def _provenance():
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def _hashes(directory):
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


class Runner:
    """Runs cases in one work directory and checks them."""

    def __init__(self, cli, work):
        self.cli = cli
        self.work = work
        self.tracer = None
        self._serial = 0

    def _fresh_dir(self, case):
        self._serial += 1
        path = self.work / f"{self._serial:04d}-{case.case_id}"
        path.mkdir(parents=True)
        return path

    def execute(self, case):
        """Run a case's calls; return its directory and (exit, seconds, error) per call."""
        case_dir = self._fresh_dir(case)
        scenarios = []
        for k, call in enumerate(case.calls):
            path = case_dir / f"scenario{k}.json"
            path.write_text(json.dumps(call.scenario, indent=2) + "\n")
            scenarios.append(path)
        if self.tracer is not None:
            self.tracer.case = case.case_id
        calls = []
        for k, (call, path) in enumerate(zip(case.calls, scenarios)):
            argv = [call.command, "--scenario", str(path),
                    "--out", str(case_dir / f"out{k}")]
            error = None
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a crash fails the scenario, not the run
                code, error = None, f"{type(exc).__name__}: {exc}"
            calls.append((code, time.perf_counter() - t0, error))
        return case_dir, calls

    def run(self, case):
        """Run, time and check one case; return its record."""
        case_dir, calls = self.execute(case)
        record = {"case": case.case_id, "draw": case.draw,
                  "seconds": sum(c[1] for c in calls), "calls": [],
                  "output_bytes": 0}
        outcomes = []
        for k, (call, (code, seconds, error)) in enumerate(zip(case.calls, calls)):
            out = case_dir / f"out{k}"
            outcome = workloads.check(call, code, str(out))
            if error is not None:
                outcome.fail(error)
            outcomes.append(outcome)
            record["calls"].append({"command": call.command, "check": call.check,
                                    "exit": code, "seconds": seconds,
                                    "failures": outcome.failures,
                                    "headroom": outcome.headroom})
            if out.is_dir():
                record["output_bytes"] += sum(p.stat().st_size
                                              for p in out.rglob("*") if p.is_file())
        shutil.rmtree(case_dir)
        headrooms = [o.headroom for o in outcomes if o.headroom is not None]
        record.update(failed=any(o.failures for o in outcomes),
                      unsound=any(o.unsound for o in outcomes),
                      headroom=min(headrooms) if headrooms else None)
        return record

    def rerun_identical(self, case):
        """Run a case twice into fresh directories; compare every output file."""
        runs = []
        for _ in range(2):
            case_dir, calls = self.execute(case)
            runs.append(([c[0] for c in calls], _hashes(case_dir),
                         [c[2] for c in calls if c[2] is not None]))
            shutil.rmtree(case_dir)
        (codes_a, hashes_a, errors_a), (codes_b, hashes_b, errors_b) = runs
        failures = errors_a + errors_b
        if codes_a != codes_b:
            failures.append(f"exit codes differ: {codes_a} vs {codes_b}")
        differing = sorted(k for k in set(hashes_a) | set(hashes_b)
                           if hashes_a.get(k) != hashes_b.get(k))
        if differing:
            failures.append(f"outputs differ: {differing}")
        return {"case": case.case_id, "draw": case.draw, "files": len(hashes_a),
                "failures": failures, "failed": bool(failures)}


def _timed_batches(runner, case_iter, batch_size, seconds):
    """Closed loop: run whole batches until another would overrun ``seconds``."""
    records, batch_times = [], []
    start = time.perf_counter()
    while True:
        batch = [runner.run(next(case_iter)) for _ in range(batch_size)]
        records += batch
        batch_times.append(sum(r["seconds"] for r in batch))
        if time.perf_counter() - start + statistics.median(batch_times) > seconds:
            return records, batch_times


def _measure_setup(deferred):
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC)], input=json.dumps(deferred),
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, env=os.environ)
        if proc.returncode != 0:
            _die(f"set-up interpreter failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout))
    return samples


def _traced_batch(runner, case_iter, batch_size):
    """Run the anchor untraced, then trace one batch that starts with it again.

    Returns the checked case records and the per-layer figures.
    """
    anchor = next(case_iter)
    untraced = runner.run(anchor)
    runner.tracer = tracing.Tracer()
    tracing.install(runner.tracer)
    grid = sys.modules["photonsphere.quadrature"].sphere_grid
    before = grid.cache_info()
    records = [runner.run(anchor)]
    records += [runner.run(next(case_iter)) for _ in range(batch_size - 1)]
    after = grid.cache_info()
    figures = tracing.layer_metrics(runner.tracer, after.hits - before.hits,
                                    after.misses - before.misses)
    figures["cli.output_bytes"] = (sum(r["output_bytes"] for r in records), "B")
    figures["trace.overhead_s"] = (records[0]["seconds"] - untraced["seconds"], "s")
    return [untraced] + records, figures


def _end_to_end(records, batch_times, setup):
    case_s = [r["seconds"] for r in records]
    tail_s, tail_p, tail_beyond = stats.tail(case_s)
    headroom = records[0]["headroom"]   # the anchor's
    figures = {
        "setup_s": (statistics.median(s["import_s"] + s["deferred_import_s"]
                                      for s in setup), "s"),
        "batch_s": (statistics.median(batch_times), "s"),
        "verdict_s": (statistics.median(case_s), "s"),
        "verdict_s_tail": (tail_s, "s"),
        "gate_headroom_dec": (headroom if headroom is not None else 0.0, "decades"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
    tail = {"percentile": tail_p, "samples": len(case_s),
            "samples_beyond": tail_beyond}
    return figures, tail


def run(args, cli):
    modules_before = set(sys.modules)
    work = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(cli, work)
    batch_size = workloads.BATCH_SIZE[args.workload]
    try:
        determinism = runner.rerun_identical(
            workloads.warmup_case(args.workload, args.seed))
        deferred = sorted(set(sys.modules) - modules_before)
        setup = _measure_setup(deferred)
        case_iter = workloads.cases(args.workload, args.seed)
        if args.trace:
            checked, figures = _traced_batch(runner, case_iter, batch_size)
            figures["setup.import_s"] = (
                statistics.median(s["import_s"] for s in setup), "s")
            figures["setup.deferred_import_s"] = (
                statistics.median(s["deferred_import_s"] for s in setup), "s")
            tail, batches = None, 1
        else:
            checked, batch_times = _timed_batches(runner, case_iter, batch_size,
                                                  args.seconds)
            figures, tail = _end_to_end(checked, batch_times, setup)
            batches = len(batch_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(checked) + 1
    failed = sum(r["failed"] for r in checked) + determinism["failed"]
    headrooms = [r["headroom"] for r in checked if r["headroom"] is not None]
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": _provenance(),
        "correct": not any(r["unsound"] for r in checked),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "verdict_s_tail": tail,
        "gate_headroom_worst_case": min(headrooms) if headrooms else None,
        "batches": batches, "deferred_modules": len(deferred),
        "setup": setup, "determinism": determinism, "cases": checked,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
    }
    records_dir = WORK / "records"
    records_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (records_dir / f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")
    if args.trace:
        (records_dir / f"{stem}-spans.json").write_text(
            json.dumps(runner.tracer.to_json()))
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _import_package()
    summary = run(args, cli)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(summary['cases'])} cases checked, {summary['batches']} batches timed, "
          f"failed {summary['failed']}/{summary['attempted']}"
          f" (failed_frac {summary['failed_frac']:.3g}), correct={summary['correct']}")
    for name, m in summary["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    tail = summary["verdict_s_tail"]
    if tail is not None:
        print(f"  verdict_s_tail is p{tail['percentile']:g} of {tail['samples']} "
              f"cases, {tail['samples_beyond']} beyond")
    print("  provenance " + json.dumps(summary["provenance"], sort_keys=True))
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": summary["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
