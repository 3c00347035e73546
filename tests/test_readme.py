"""The README's python code blocks run as written, and its command line
section names what the command line has and writes."""

import json
import os
import re
from pathlib import Path

import pytest

from photonsphere import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=lambda s: s.split("\n")[0])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {})


def test_readme_names_every_subcommand():
    listed = re.search(r"^Subcommands: (.*?)\.\s", TEXT, re.M | re.S).group(1)
    assert tuple(re.findall(r"`([a-z]+)`", listed)) == cli.PIPELINES


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The output directories of `trace` and `full` on schwarzschild_m1,
    the full run with its curvature dump."""
    trace = tmp_path_factory.mktemp("trace")
    full = tmp_path_factory.mktemp("full")
    assert cli.main(["trace", "--scenario", "schwarzschild_m1",
                     "--out", str(trace)]) == cli.EXIT_TRUE
    assert cli.main(["full", "--scenario", "schwarzschild_m1", "--out", str(full),
                     "--dump-curvature", str(full / "curvature.json")]
                    ) == cli.EXIT_TRUE
    return trace, full


def _named(pattern):
    """The backquoted names in the README text that ``pattern`` matches."""
    text = re.search(pattern, TEXT, re.M | re.S).group(1)
    return re.findall(r"`([^`]+)`", text)


def test_readme_outputs_are_written(runs):
    # the Outputs list runs from its heading to the next blank line
    outputs = re.search(r"^Outputs, under `--out`:\n\n(.*?)\n\n", TEXT,
                        re.M | re.S).group(1)
    named = set(re.findall(r"`([\w.]+\.(?:json|csv))`", outputs))
    trace, full = runs
    assert named and named <= set(os.listdir(trace)) | set(os.listdir(full))


def test_readme_names_the_gates_of_a_report(runs):
    # the gate list names every gate of a report, in its order, and the
    # bound and leaf-field lists name only those gates
    gates = json.loads((runs[1] / "israel_report.json").read_text())["gates"]
    names = [g["name"] for g in gates]
    assert _named(r"The gates of `israel_report\.json`, in its order:(.*?)\.\n") \
        == names
    for pattern in (r"^- `value ≥ threshold` for (.*?);\n",
                    r"^- `value > threshold` for (.*?);\n"):
        listed = set(_named(pattern))
        assert listed and listed <= set(names), pattern
    with_level = {g["name"] for g in gates if g["level"] is not None}
    assert set(_named(r"A gate on a leaf field \((.*?)\)")) == with_level
    assert set(_named(r"was attained: (.*?); `null` for the others")) \
        == with_level


def test_readme_names_the_level_columns(runs):
    header = (runs[1] / "israel_levels.csv").read_text().splitlines()[0]
    assert _named(r"`israel_levels\.csv` holds, one row\nper leaf, (.*?);") \
        == header.split(",")
