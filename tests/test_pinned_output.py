"""Solver-backed CLI output and rate series values pinned on the bundled scenarios.

`data/pinned_solver_output.json` holds the stdout and exit code of every
command below.  Values moved by the cancellation-free root search (the
last digits of rho, residuals and boundaries, and the iteration counts)
were re-recorded with it.  Any change to the fixed point, its iteration
count, its residual or a region boundary shows up here.
`data/pinned_rate_values.json` holds rate_ccdf values to the last bit over
a grid of availabilities, thresholds and series tolerances, recorded with
one scalar call per value; the lane call and the scalar calls must both
reproduce them.  They were re-recorded when the series came to be summed
once per tier load and mixed after the sum, which moved 307 of the 600
values by at most 4.1e-11 (tolerance 1e-10) and 4.0e-14 (1e-13).  Each
value must also lie within its series tolerance of the float oracle
`oracles.fsum_rate_ccdf`.
`data/pinned_spatial_output.json` holds the stdout, stderr and exit code
of `validate` and of every `simulate` estimator on the bundled scenarios,
and every `spatial_mc` field of a shadowed, alpha = 3.5 scenario with
over 512 users per replicate; the `validate` lines that print the
distance of the solved rho from the CTMC estimate were re-recorded with
the new root search.
The `availability-ctmc-*` lines of `validate` were re-recorded again when
the cycle sampler came to draw the ON and OFF totals of 1,024 batches of
cycles in place of every cycle's periods, which changes its draws and
its CI; every other line kept its bytes.  The coverage lines (`coverage-mc` of
`validate` and the `simulate --estimator coverage` rows) of two-tier-baseline
and battery-sweep were re-recorded again when the unshadowed user pass came
to tally each user's near-field coverage times a draw against its far
factor; their windows are large enough for that split, the other two
scenarios' are not, and every other line, the shadowed record included,
kept its bytes.  The shadowed record was re-recorded when the window
became a torus everywhere, having run on a guard-band window before;
every CLI line kept its bytes.  Rerun this file as a script to re-record
all three, only when an output change is meant.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import harvnet
from harvnet.cli import load_scenario, main
from harvnet.coverage import RateQuery, rate_ccdf
from harvnet.model import NetworkScenario, ShadowingSpec, TierParams
from harvnet.simulate import SimConfig, sample_network, spatial_mc
from oracles import fsum_rate_ccdf

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).resolve().parent / "data" / "pinned_solver_output.json"
PINNED_RATE = PINNED.with_name("pinned_rate_values.json")
PINNED_SPATIAL = PINNED.with_name("pinned_spatial_output.json")
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
SPATIAL_COMMANDS = (
    ["validate", "--replicates", "2"],
    *(["simulate", "--estimator", kind, "--replicates", "2"]
      for kind in ("coverage", "area", "rate", "association")),
)
# rate-surface is infeasible, so `simulate` there needs an explicit rho.
SPATIAL_CASES = [(cmd[0], f"scenarios/{name}.json", *cmd[1:],
                  *(["--rho", "1,1"] if name == "rate-surface" and cmd[0] == "simulate"
                    else []))
                 for name in SCENARIOS for cmd in SPATIAL_COMMANDS]
# Shadowed and alpha = 3.5: about 500 BSs and 2,560 users per replicate,
# so each pass has full 512-user blocks and a partial one.
SHADOWED = NetworkScenario(
    tiers=(TierParams(1.0, 4.0, 1.0, 5, ShadowingSpec(1.5, 6.0)),
           TierParams(10.0, 0.25, 1.0, 5, ShadowingSpec(0.0, 4.0))),
    path_loss_exp=3.5, sir_target=0.5, user_density=40.0)
SHADOWED_RHO = (0.9, 0.7)
SHADOWED_CONFIG = SimConfig(window_side=8.0, replicates=3, seed=61)
RATE_RHO = [[r1, r2] for r1 in (0.0, 0.3, 0.7, 1.0) for r2 in (0.0, 0.3, 0.7, 1.0)
            if r1 or r2]
RATE_CASES = [(name, t, tol) for name in SCENARIOS
              for t in (0.001, 0.02, 0.1, 0.5, 2.0) for tol in (1e-10, 1e-13)]


def run(argv):
    """(exit code, stdout) of one in-process CLI call from the repo root."""
    return run_with_stderr(argv)[:2]


def run_with_stderr(argv):
    """(exit code, stdout, stderr) of one in-process CLI call from the repo root."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(ROOT / argv[1]), *argv[2:]])
    return code, out.getvalue(), err.getvalue()


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


def test_pinned_rate_values_agree_with_the_float_oracle(pinned_rate):
    # Within the series tolerance, plus 1e-12 for summation rounding, so
    # no re-recording can pin a wrong value.
    oracle = {}
    for name, t, tol in RATE_CASES:
        if (name, t) not in oracle:
            scenario, _ = load_scenario(str(ROOT / "scenarios" / f"{name}.json"))
            oracle[name, t] = [fsum_rate_ccdf(scenario, rho, t) for rho in RATE_RHO]
        got = pinned_rate[rate_key(name, t, tol)]
        assert got == pytest.approx(oracle[name, t], rel=0, abs=tol + 1e-12), (name, t, tol)


def shadowed_fields():
    """Every field of the shadowed scenario's spatial pass, rate included."""
    est = spatial_mc(SHADOWED, SHADOWED_RHO, SHADOWED_CONFIG, rate_target=0.3,
                     area_tiers=(0, 1))
    return {"coverage": asdict(est.coverage),
            "association": [asdict(a) for a in est.association],
            "rate": asdict(est.rate),
            "area": [asdict(est.area[k]) for k in (0, 1)]}


@pytest.fixture(scope="module")
def pinned_spatial():
    return json.loads(PINNED_SPATIAL.read_text())


@pytest.mark.parametrize("argv", SPATIAL_CASES, ids=" ".join)
def test_spatial_cli_output_matches_pinned(argv, pinned_spatial):
    want = pinned_spatial["cli"][" ".join(argv)]
    assert run_with_stderr(argv) == (want["exit"], want["stdout"], want["stderr"])


def test_shadowed_spatial_fields_match_pinned(pinned_spatial):
    for i in range(SHADOWED_CONFIG.replicates):
        real = sample_network(SHADOWED, SHADOWED_RHO, SHADOWED_CONFIG,
                              np.random.default_rng([SHADOWED_CONFIG.seed, i]))
        assert real.users.shape[0] > 512 and real.users.shape[0] % 512
    got = shadowed_fields()
    assert all(math.isfinite(v) for v in (got["coverage"]["ci_halfwidth_99"],
                                           got["rate"]["ci_halfwidth_99"]))
    assert got == pinned_spatial["shadowed"]


if __name__ == "__main__":
    record = {}
    for argv in CASES:
        code, stdout = run(argv)
        record[" ".join(argv)] = {"exit": code, "stdout": stdout}
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(record, indent=1) + "\n")
    rates = {rate_key(*case): scalar_rates(*case)[2] for case in RATE_CASES}
    PINNED_RATE.write_text(json.dumps(rates, indent=1) + "\n")
    spatial = {"cli": {}, "shadowed": shadowed_fields()}
    for argv in SPATIAL_CASES:
        code, stdout, stderr = run_with_stderr(argv)
        spatial["cli"][" ".join(argv)] = {"exit": code, "stdout": stdout,
                                          "stderr": stderr}
    PINNED_SPATIAL.write_text(json.dumps(spatial, indent=1) + "\n")
