"""Fixed points, boundaries and region coverage pinned to the last bit.

`data/pinned_solver_bits.json` holds, as float.hex, every field of
`solve_availability` (rho, bracket, residual, plus iterations and
evaluations), `sweep_boundary` values and `grid_coverage` on the bundled
scenarios and a four-tier scenario, with every harvest rate scaled so that
gamma takes each value of GAMMAS, under S(1), S(N) and a mixed policy.
The CLI pins print 12 digits; these hold every bit, so any change to the
order or the form of the ON-fraction arithmetic shows up here.  Rerun
this file as a script to re-record, only when an output change is meant.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from harvnet.analytic import check_feasibility, solve_availability
from harvnet.cli import load_scenario
from harvnet.markov import PolicySpec
from harvnet.model import NetworkScenario, TierParams
from harvnet.region import grid_coverage, sweep_boundary

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).resolve().parent / "data" / "pinned_solver_bits.json"
BUNDLED = ("two-tier-baseline", "battery-sweep", "gamma-rich", "rate-surface")
# Batteries 1 and 2 and a cutoff of N - 1 give N - c + 1 in {1, 2}; four
# tiers take the stacked kernel and the tier-ordered sums past K = 2.
FOUR_TIER = NetworkScenario(
    tiers=(TierParams(1.0, 1.0, 2.0, 1), TierParams(4.0, 0.2, 1.0, 2),
           TierParams(9.0, 0.05, 0.7, 7), TierParams(0.3, 3.0, 5.0, 64)),
    path_loss_exp=4.0, sir_target=1.0, user_density=20.0)
GAMMAS = (1 + 1e-12, 1 + 1e-9, 1 + 1e-6, 1 + 1e-3, 1.01, 1.1, 1.5, 2.0, 3.0, 6.0,
          30.0, 1e3)
SWEEP_GAMMAS = GAMMAS[::2]
SWEEP_GRID = 17
COVERAGE_GRID = 33


def scenarios():
    named = {name: load_scenario(str(ROOT / "scenarios" / f"{name}.json"))[0]
             for name in BUNDLED}
    named["four-tier"] = FOUR_TIER
    return named


def at_gamma(sc, gamma):
    """sc with every harvest rate scaled so that gamma is (about) `gamma`."""
    factor = gamma / check_feasibility(sc)[1]
    return replace(sc, tiers=tuple(replace(t, harvest_rate=t.harvest_rate * factor)
                                   for t in sc.tiers))


def policies(sc):
    """S(1), S(N) and, per tier, S(N - 1) on even tiers and S(N) on odd ones."""
    n = sc.batteries()
    return {"S1": [PolicySpec(1)] * len(n),
            "SN": [PolicySpec(int(x)) for x in n],
            "mixed": [PolicySpec(int(max(x - 1, 1) if k % 2 == 0 else x))
                      for k, x in enumerate(n)]}


def solve_record(sc, policy):
    res = solve_availability(sc, policy)
    return {"rho": [float(r).hex() for r in res.rho], "bracket": res.bracket.hex(),
            "residual": res.residual.hex(), "iterations": res.iterations,
            "evaluations": res.evaluations, "feasible": res.feasible}


def sweep_record(sc, k, con):
    constraint = PolicySpec(sc.tiers[k].battery) if con == "SN" else None
    return [float(v).hex() for v in sweep_boundary(sc, k, SWEEP_GRID, constraint).values]


def coverage_record(sc, con):
    constraints = {0: PolicySpec(sc.tiers[0].battery)} if con == "SN" else None
    return grid_coverage(sc, COVERAGE_GRID, constraints).hex()


SOLVE_CASES = [(name, gamma, pol) for name in (*BUNDLED, "four-tier")
               for gamma in GAMMAS for pol in ("S1", "SN", "mixed")]
SWEEP_CASES = [(name, gamma, k, con) for name in BUNDLED for gamma in SWEEP_GAMMAS
               for k in (0, 1) for con in ("none", "SN")]
COVERAGE_CASES = [(name, gamma, con) for name in BUNDLED for gamma in SWEEP_GAMMAS
                  for con in ("none", "SN")]


def key(*parts):
    return " ".join(map(str, parts))


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


@pytest.fixture(scope="module")
def named():
    return scenarios()


@pytest.mark.parametrize("name,gamma,pol", SOLVE_CASES, ids=lambda v: str(v))
def test_solve_availability_matches_pinned_bits(name, gamma, pol, pinned, named):
    sc = at_gamma(named[name], gamma)
    assert solve_record(sc, policies(sc)[pol]) == pinned["solve"][key(name, gamma, pol)]


@pytest.mark.parametrize("name,gamma,k,con", SWEEP_CASES, ids=lambda v: str(v))
def test_sweep_boundary_matches_pinned_bits(name, gamma, k, con, pinned, named):
    sc = at_gamma(named[name], gamma)
    assert sweep_record(sc, k, con) == pinned["sweep"][key(name, gamma, k, con)]


@pytest.mark.parametrize("name,gamma,con", COVERAGE_CASES, ids=lambda v: str(v))
def test_grid_coverage_matches_pinned_bits(name, gamma, con, pinned, named):
    sc = at_gamma(named[name], gamma)
    assert coverage_record(sc, con) == pinned["coverage"][key(name, gamma, con)]


if __name__ == "__main__":
    named = scenarios()
    record = {"solve": {}, "sweep": {}, "coverage": {}}
    for name, gamma, pol in SOLVE_CASES:
        sc = at_gamma(named[name], gamma)
        record["solve"][key(name, gamma, pol)] = solve_record(sc, policies(sc)[pol])
    for name, gamma, k, con in SWEEP_CASES:
        record["sweep"][key(name, gamma, k, con)] = sweep_record(at_gamma(named[name], gamma), k, con)
    for name, gamma, con in COVERAGE_CASES:
        record["coverage"][key(name, gamma, con)] = coverage_record(at_gamma(named[name], gamma), con)
    PINNED.write_text(json.dumps(record, indent=1) + "\n")
