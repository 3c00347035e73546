"""The README's python code blocks run as written, and its command line
section names what the command line has and writes."""

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


def test_readme_outputs_are_written(tmp_path):
    # the Outputs list runs from its heading to the next blank line
    outputs = re.search(r"^Outputs, under `--out`:\n\n(.*?)\n\n", TEXT,
                        re.M | re.S).group(1)
    named = set(re.findall(r"`([\w.]+\.(?:json|csv))`", outputs))
    trace, full = tmp_path / "trace", tmp_path / "full"
    assert cli.main(["trace", "--scenario", "schwarzschild_m1",
                     "--out", str(trace)]) == cli.EXIT_TRUE
    assert cli.main(["full", "--scenario", "schwarzschild_m1", "--out", str(full),
                     "--dump-curvature", str(full / "curvature.json")]
                    ) == cli.EXIT_TRUE
    assert named and named <= set(os.listdir(trace)) | set(os.listdir(full))
