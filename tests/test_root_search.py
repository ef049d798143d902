"""The root search against plain lock-step bisection, bit for bit.

`analytic._outer_root` evaluates several bisection levels per h call;
`oracles.bisect_outer_root` makes one h call per step.  Both must return
the same lo, hi, bracket, steps and unfinished lanes for every input.
"""

from pathlib import Path

import numpy as np
import pytest

from harvnet import analytic, region
from harvnet.analytic import solve_availability
from harvnet.cli import load_scenario
from harvnet.markov import PolicySpec, tier_availability
from harvnet.model import NetworkScenario, TierParams
from oracles import bisect_outer_root

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))
# Every budget where several levels share one h call; many-lane searches
# step one level per call, and a scan of 2,048 lanes is costly.
BUDGETS = {1: [None, *range(1, 41)], 7: [None, *range(1, 41)],
           101: [None, 1, 2, 3, 5, 8, 13, 21, 27, 34, 40],
           2048: [None, 1, 2, 7, 19, 33, 40]}


def lane_mix(n, start=0):
    """Per-lane (root, y scale): lane i is of kind KINDS[(start + i) % 6].

    Kinds: 0, a root inside (0, 1); 1, excess(top) >= 0; 2, no sign
    change; 3, a root deep in the scan's geometric tail.  Scales span six
    decades, so lanes meet the tolerance at different steps.
    """
    rng = np.random.default_rng(n + 17 * start)
    kind = np.array([0, 1, 0, 2, 0, 3])[(start + np.arange(n)) % 6]
    root = np.choose(kind, [rng.uniform(0.01, 0.99, n), np.full(n, 1.5),
                            np.full(n, -1.0), 10.0 ** rng.uniform(-250, -20, n)])
    return root, 10.0 ** rng.uniform(-3, 3, n)


def monotone(n, start):
    root, scale = lane_mix(n, start)

    def h(x):
        return root - x, np.stack([scale * x, 1.0 + x], axis=-1)

    return h


def non_monotone(n, start):
    """Excess (x - r1)(x - r2)(r3 - x), three roots within one scan cell."""
    root, scale = lane_mix(n, start)
    rng = np.random.default_rng(n + 17 * start + 1)
    r1 = root - rng.uniform(0, 0.01, n)
    r2 = (r1 + root) / 2

    def h(x):
        return (x - r1) * (x - r2) * (root - x), (scale * x)[..., None]

    return h


def availability(n, start):
    """The region sweep's h: the S(c) ON fraction at load d + w x, minus x."""
    rng = np.random.default_rng(n + 17 * start + 2)
    d, slope = rng.uniform(0, 2, n), 10.0 ** rng.uniform(-1, 1, n)
    scale, cutoff = 10.0 ** rng.uniform(-3, 3, n), 1 + start % 3

    def h(x):
        return (tier_availability(slope * (d + x), 6, cutoff) - x,
                (scale * x)[..., None])

    return h


def assert_same(got, want):
    assert len(got) == 6
    for g, w in zip(got[:5], want, strict=True):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("family", [monotone, non_monotone, availability])
@pytest.mark.parametrize("lanes,starts", [(1, range(6)), (7, range(2)),
                                          (101, [0]), (2048, [0])])
def test_outer_root_equals_lockstep_bisection(family, lanes, starts):
    for start in starts:
        h = family(lanes, start)
        top = np.ones(lanes)
        # 2^-20: dyadic scan points make some brackets equal it exactly
        for tol in (1e-10, 2.0 ** -20, 1e-300):
            live = []
            for budget in BUDGETS[lanes]:
                want = bisect_outer_root(h, top, tol, budget)
                assert_same(analytic._outer_root(h, top, tol, budget), want)
                live.append(want[4])
            if tol == 1e-10 and lanes >= 7:
                # lanes leave the search at many different steps
                assert np.unique(np.sum(live[1:], axis=0)).size >= 3
        # with tol = 1e-300, lanes still bracketing a root stop on adjacent doubles
        lo, hi, *_ = analytic._outer_root(h, top, 1e-300)
        assert np.all(np.nextafter(lo, 2.0)[lo < hi] == hi[lo < hi])


def lockstep(h, top, tol, max_iter=None):
    return (*bisect_outer_root(h, top, tol, max_iter), 0)


def three_tier(gamma):
    tiers = (TierParams(1.0, 40.0, 3.0, 12), TierParams(4.0, 2.0, 1.0, 6),
             TierParams(12.0, 0.5, 0.4, 3))
    harvested = sum(t.density * t.harvest_rate for t in tiers)
    return NetworkScenario(tiers=tiers, path_loss_exp=4.0, sir_target=1.0,
                           user_density=harvested / (gamma / (1 + np.pi / 4)))


def solver_cases():
    for path in SCENARIOS:
        scenario, _ = load_scenario(str(path))
        yield scenario, None
        yield scenario, [PolicySpec(int(n)) for n in scenario.batteries()]
    for gamma in (1 + 1e-6, 1.05, 4.0):
        yield three_tier(gamma), None
        yield three_tier(gamma), [PolicySpec(2), PolicySpec(6), PolicySpec(3)]


def test_solver_and_boundaries_equal_lockstep_bisection(monkeypatch):
    def results():
        for scenario, policy in solver_cases():
            for tol in (1e-10, 1e-13):
                r = solve_availability(scenario, policy, tolerance=tol)
                yield r.rho, r.iterations, r.residual, r.bracket
            if scenario.k_tiers == 2:
                for k in (0, 1):
                    yield region.sweep_boundary(scenario, k, 41).values,
                    yield region.boundary(scenario, k, [0.37], PolicySpec(2)),

    fast = list(results())
    monkeypatch.setattr(analytic, "_outer_root", lockstep)
    for got, want in zip(fast, results(), strict=True):
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_single_lane_solve_makes_a_third_of_the_lockstep_calls(path):
    scenario, _ = load_scenario(str(path))
    result = solve_availability(scenario)
    # lock-step bisection calls h once for the scan and once per step
    assert result.evaluations < (result.iterations + 1) / 3
    assert result.evaluations >= (result.iterations > 0) + result.feasible
