"""Solver-backed CLI output pinned byte for byte on the bundled scenarios.

`data/pinned_solver_output.json` holds the stdout and exit code of every
command below, recorded before the root search was rewritten to evaluate
several bisection levels per call.  Any change to the fixed point, its
iteration count, its residual or a region boundary shows up here.  Rerun
this file as a script to re-record, only when an output change is meant.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from harvnet.cli import main

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).resolve().parent / "data" / "pinned_solver_output.json"
SCENARIOS = ("two-tier-baseline", "battery-sweep", "gamma-rich", "rate-surface")
COMMANDS = (
    ["availability"],
    ["availability", "--policy2", "1:5", "--policy2", "2:3"],
    ["availability", "--tol", "1e-13"],
    ["region"],
    ["region", "--grid", "33"],
    ["region", "--constrain", "1:4"],
)
CASES = [(cmd[0], f"scenarios/{name}.json", *cmd[1:])
         for name in SCENARIOS for cmd in COMMANDS]


def run(argv):
    """(exit code, stdout) of one in-process CLI call from the repo root."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([argv[0], str(ROOT / argv[1]), *argv[2:]])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_pinned(argv, pinned):
    want = pinned[" ".join(argv)]
    code, stdout = run(argv)
    assert code == want["exit"]
    assert stdout == want["stdout"]


if __name__ == "__main__":
    record = {}
    for argv in CASES:
        code, stdout = run(argv)
        record[" ".join(argv)] = {"exit": code, "stdout": stdout}
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(record, indent=1) + "\n")
