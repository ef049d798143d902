"""Print the per-call time of the one-point library calls the figures make.

Each row is the least time per call over N timing rounds (min of N), in
microseconds, on the bundled scenarios:

- solve_availability under S(1) and S(N), two-tier-baseline;
- sweep_boundary of tier 1 on a 101-point grid, with no constraint and
  pinned to S(N), two-tier-baseline;
- rate_ccdf on rate-surface at T = 0.1 and 1.0: scalar calls over the
  10 x 10 (rho1, rho2) surface of `harvnet rate --surface` (the time of
  one call, averaged over the surface), and the one 100-lane call;
- coverage_prob at alpha = 3.98, at one threshold beta and at a new beta
  each call;
- simulate_on_off at 10^5 cycles on tier 1 of two-tier-baseline at its
  fixed point, the CTMC call `harvnet validate` makes, and on a chain with
  N = 2,000 at r = 1, where some batch keeps a positive count up to the
  full level, so the sampler's level loop runs its whole O(N x batches);
- load_scenario of two-tier-baseline: read, parse and check one scenario
  file, as every subcommand does first;
- spatial_mc on two-tier-baseline at its fixed point and its own sim
  block at 4 replicates, with rate target 0.1 and both tiers' areas: the
  spatial pass `harvnet validate` makes (HETNET_THREADS sets its threads).

The minimum rejects most of the host's noise; compare runs made on the
same host.  Usage:

    python scripts/call_costs.py [--repeat N]
"""

import argparse
import sys
import timeit
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import harvnet as hn  # noqa: E402
from harvnet.cli import load_scenario  # noqa: E402


def _path(name):
    return str(ROOT / "scenarios" / f"{name}.json")


def _scenario(name):
    return load_scenario(_path(name))[0]


def cases(repeat):
    """(label, calls per run, run) for every row of the table, for `repeat` runs and a warm one."""
    base, doc = load_scenario(_path("two-tier-baseline"))
    rho_base = hn.solve_availability(base).rho
    sim = hn.SimConfig(**{**doc["sim"], "replicates": 4})
    full = [hn.PolicySpec(int(n)) for n in base.batteries()]
    surface = _scenario("rate-surface")
    grid = np.linspace(0.1, 1.0, 10)
    rho = np.column_stack((np.repeat(grid, grid.size), np.tile(grid, grid.size)))
    rows = [list(r) for r in rho.tolist()]
    alpha = replace(base, path_loss_exp=3.98)
    fresh = iter([replace(alpha, sir_target=1.0 + 1e-9 * i) for i in range(repeat + 1)])
    nu = hn.energy_utilization(base, hn.solve_availability(base).rho, 0)
    chain = hn.BirthDeathSpec(base.tiers[0].harvest_rate, nu, base.tiers[0].battery)
    long_chain = hn.BirthDeathSpec(1.0, 1.0, 2000)
    out = [
        ("solve_availability S(1), two-tier-baseline", 1,
         lambda: hn.solve_availability(base)),
        ("solve_availability S(N), two-tier-baseline", 1,
         lambda: hn.solve_availability(base, policy=full)),
        ("sweep_boundary(tier 1, 101), two-tier-baseline", 1,
         lambda: hn.sweep_boundary(base, 0, 101)),
        ("sweep_boundary(tier 1, 101, S(N)), two-tier-baseline", 1,
         lambda: hn.sweep_boundary(base, 0, 101, full[0])),
    ]
    for t in (0.1, 1.0):
        query = hn.RateQuery(rate_target=t)
        out += [
            (f"rate_ccdf scalar, rate-surface T={t}", len(rows),
             lambda q=query: [hn.rate_ccdf(surface, r, q) for r in rows]),
            (f"rate_ccdf 100 lanes, rate-surface T={t}", 1,
             lambda q=query: hn.rate_ccdf(surface, rho, q)),
        ]
    out += [
        ("coverage_prob alpha=3.98, same beta", 1, lambda: hn.coverage_prob(alpha)),
        ("coverage_prob alpha=3.98, new beta each call", 1,
         lambda: hn.coverage_prob(next(fresh))),
        ("simulate_on_off 1e5 cycles, two-tier-baseline tier 1", 1,
         lambda: hn.simulate_on_off(chain, hn.PolicySpec(1), 100_000, seed=7)),
        ("simulate_on_off 1e5 cycles, N=2000, r=1", 1,
         lambda: hn.simulate_on_off(long_chain, hn.PolicySpec(1), 100_000, seed=7)),
        ("load_scenario, two-tier-baseline", 1,
         lambda: load_scenario(_path("two-tier-baseline"))),
        ("spatial_mc 4 reps, rate 0.1, areas, two-tier-baseline", 1,
         lambda: hn.spatial_mc(base, rho_base, sim, rate_target=0.1, area_tiers=(0, 1))),
    ]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=200,
                        help="timing rounds per row, N (default 200)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error(f"--repeat must be >= 1 (got {args.repeat})")
    print(f"{'call':56} {'us/call':>10}")
    for label, calls, run in cases(args.repeat):
        run()       # warm: imports, memos and plans
        best = min(timeit.repeat(run, number=1, repeat=args.repeat))
        print(f"{label:56} {1e6 * best / calls:10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
