#!/usr/bin/env python3
"""Single-shot reference timings of the rows of the ROADMAP baseline table.

Usage, from the root of a source checkout: python3 perfbench/reference.py

Each row is one measurement (no repetition), printed as `name: value`.
These are the reference figures quoted in perfbench/README.md; the
benchmark proper is run.py.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harvnet as hn  # noqa: E402
from harvnet import cli, coverage, markov  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402

BASE = "scenarios/two-tier-baseline.json"


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def cli_wall(argv, threads="1") -> float:
    env = workloads.child_env(ROOT, threads)
    return timed(lambda: subprocess.run([sys.executable, "-m", "harvnet.cli", *argv],
                                        cwd=ROOT, env=env, check=True,
                                        capture_output=True))[0]


def row(name, value):
    print(f"{name}: {value}", flush=True)


def main() -> None:
    env = workloads.child_env(ROOT, "1")
    row("import harvnet, wall of a fresh interpreter (s)",
        round(run._timed_child([sys.executable, "-c", "import harvnet"], env), 3))
    row("import (cumulative, -X importtime, s)",
        {k: round(v, 3) for k, v in run.measure_imports(env).items()})
    for argv in (["availability", BASE], ["region", BASE, "--grid", "101"], ["rate", BASE],
                 ["rate", "scenarios/rate-surface.json", "--surface", "--grid", "10"]):
        row("cli " + " ".join(argv) + " (s)", round(cli_wall(argv), 3))
    for threads in ("1", "2"):
        row(f"cli simulate --estimator coverage, {threads} thread(s) (s)",
            round(cli_wall(["simulate", BASE, "--estimator", "coverage"], threads), 2))
        row(f"cli validate, 16 replicates, {threads} thread(s) (s)",
            round(cli_wall(["validate", BASE], threads), 2))

    scenario, _ = cli.load_scenario(str(ROOT / BASE))
    spec = workloads.read_spec(ROOT / BASE)
    for gamma in (1.1, 1.001, 1.00001):
        s = spec.with_gamma(gamma, spec.pc).program(hn)
        t0 = time.perf_counter()
        try:
            res = hn.solve_availability(s)
            row(f"solve_availability gamma={gamma} (ms, iterations)",
                (round((time.perf_counter() - t0) * 1e3, 2), res.iterations))
        except hn.NonConvergenceError:
            row(f"solve_availability gamma={gamma}", f"NonConvergenceError after "
                f"{time.perf_counter() - t0:.2f} s")
    row("grid_coverage(101) (ms)", round(timed(lambda: hn.grid_coverage(scenario, 101))[0] * 1e3, 1))
    rho = hn.solve_availability(scenario).rho
    getattr(coverage.hyper_f, "cache_clear", lambda: None)()
    query = hn.RateQuery(rate_target=0.1)
    cold = timed(lambda: hn.rate_ccdf(scenario, rho, query))[0]
    warm = timed(lambda: hn.rate_ccdf(scenario, rho, query))[0]
    row("rate_ccdf T=0.1 cold / warm (ms)", (round(cold * 1e3, 1), round(warm * 1e3, 1)))
    config = hn.SimConfig(window_side=12.0, replicates=40, seed=7)
    for threads in ("1", "2"):
        os.environ["HETNET_THREADS"] = threads
        row(f"coverage_mc window 12, 40 replicates, {threads} thread(s) (s)",
            round(timed(lambda: hn.coverage_mc(scenario, rho, config))[0], 2))
    tier = scenario.tiers[0]
    nu = hn.energy_utilization(scenario, rho, 0)
    bd = markov.BirthDeathSpec(tier.harvest_rate, nu, tier.battery)
    row("simulate_on_off 1e5 cycles, tier 1 at the fixed point (s)",
        round(timed(lambda: markov.simulate_on_off(bd, markov.PolicySpec(1), 100_000))[0], 3))


if __name__ == "__main__":
    main()
