"""Solver-backed CLI output and rate series values pinned on the bundled scenarios.

`data/pinned_solver_output.json` holds the stdout and exit code of every
command below, recorded before the root search was rewritten to evaluate
several bisection levels per call.  Any change to the fixed point, its
iteration count, its residual or a region boundary shows up here.
`data/pinned_rate_values.json` holds rate_ccdf values to the last bit over
a grid of availabilities, thresholds and series tolerances, recorded with
one scalar call per value before the series took lanes; the lane call and
the scalar calls must both reproduce them.  Rerun this file as a script to
re-record both, only when an output change is meant.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import harvnet
from harvnet.cli import load_scenario, main
from harvnet.coverage import RateQuery, rate_ccdf

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).resolve().parent / "data" / "pinned_solver_output.json"
PINNED_RATE = PINNED.with_name("pinned_rate_values.json")
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
RATE_RHO = [[r1, r2] for r1 in (0.0, 0.3, 0.7, 1.0) for r2 in (0.0, 0.3, 0.7, 1.0)
            if r1 or r2]
RATE_CASES = [(name, t, tol) for name in SCENARIOS
              for t in (0.001, 0.02, 0.1, 0.5, 2.0) for tol in (1e-10, 1e-13)]


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


def run_fresh(argv):
    """(exit code, stdout, stderr) of `python -m harvnet.cli` from the repo root."""
    src_dir = str(Path(harvnet.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "harvnet.cli", *argv], cwd=ROOT,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    return proc.returncode, proc.stdout, proc.stderr


def test_fresh_processes_match_pinned_and_in_process_output(pinned):
    # a one-shot process loads each layer at its first use, not at import;
    # two processes at a time keep this test near one second
    path = "scenarios/two-tier-baseline.json"
    pinned_cases = [[cmd[0], path, *cmd[1:]] for cmd in COMMANDS]
    own_cases = [["coverage", path], ["rate", path, "--surface"]]
    with ThreadPoolExecutor(2) as pool:
        fresh = list(pool.map(run_fresh, pinned_cases + own_cases))
    for argv, (code, stdout, stderr) in zip(pinned_cases, fresh):
        want = pinned[" ".join(argv)]
        assert (code, stdout, stderr) == (want["exit"], want["stdout"], "")
    for argv, got in zip(own_cases, fresh[len(pinned_cases):]):
        assert got == (*run(argv), "")


def rate_key(name, t, tol):
    return f"{name} T={t!r} tol={tol!r}"


def scalar_rates(name, t, tol):
    scenario, _ = load_scenario(str(ROOT / "scenarios" / f"{name}.json"))
    query = RateQuery(rate_target=t, series_tolerance=tol)
    return scenario, query, [rate_ccdf(scenario, rho, query) for rho in RATE_RHO]


@pytest.fixture(scope="module")
def pinned_rate():
    return json.loads(PINNED_RATE.read_text())


@pytest.mark.parametrize("case", RATE_CASES, ids=lambda c: rate_key(*c))
def test_rate_values_match_pinned(case, pinned_rate):
    want = pinned_rate[rate_key(*case)]
    scenario, query, scalar = scalar_rates(*case)
    assert scalar == want
    assert rate_ccdf(scenario, np.array(RATE_RHO), query).tolist() == want


if __name__ == "__main__":
    record = {}
    for argv in CASES:
        code, stdout = run(argv)
        record[" ".join(argv)] = {"exit": code, "stdout": stdout}
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(record, indent=1) + "\n")
    rates = {rate_key(*case): scalar_rates(*case)[2] for case in RATE_CASES}
    PINNED_RATE.write_text(json.dumps(rates, indent=1) + "\n")
