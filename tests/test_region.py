import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from harvnet import analytic, region
from harvnet.analytic import solve_availability
from harvnet.cli import load_scenario
from harvnet.markov import PolicySpec, tier_availability
from harvnet.model import NetworkScenario, ScenarioError, ShadowingSpec, TierParams
from harvnet.region import boundary, contains, grid_coverage, sweep_boundary
from oracles import (
    mp_on_fraction_closed,
    mp_outer_root,
    mp_tier_constants,
    root_search_contains,
    two_sweep_grid_coverage,
)

PC = 1 / (1 + math.pi / 4)


def one_tier(gamma=1.1, mu=2.0, lam=1.0, battery=10):
    lam_u = lam * mu / (gamma * PC)
    return NetworkScenario(tiers=(TierParams(lam, 1.0, mu, battery),),
                           path_loss_exp=4.0, sir_target=1.0,
                           user_density=lam_u)


def two_tier(gamma=1.1, mus=(2.0, 1.0), lams=(1.0, 10.0), powers=(1.0, 1.0),
             batteries=(10, 8), shadowing=None):
    sh = shadowing or ShadowingSpec(0.0, 0.0)
    tiers = tuple(TierParams(lams[i], powers[i], mus[i], batteries[i], sh)
                  for i in range(2))
    lam_u = sum(l * m for l, m in zip(lams, mus)) / (gamma * PC)
    return NetworkScenario(tiers=tiers, path_loss_exp=4.0, sir_target=1.0,
                           user_density=lam_u)


def test_boundary_single_tier_matches_fixed_point():
    sc = one_tier(gamma=1.1, battery=10)
    res = solve_availability(sc)
    b = boundary(sc, 0, [])
    assert b == pytest.approx(res.rho[0], abs=1e-8)
    # at this over-provisioning the root sits exactly where the load ratio
    # crosses one: rho = N/(N+1)
    assert b == pytest.approx(10 / 11, abs=1e-8)


def test_boundary_with_other_tier_silent():
    # tier 0 alone carries under a tenth of the drain budget: no positive root
    sc = two_tier(gamma=1.1)
    assert boundary(sc, 0, [0.0]) == 0.0
    # give tier 0 nearly all the harvest capacity and it survives alone
    rich = two_tier(gamma=1.1, mus=(50.0, 0.1))
    assert boundary(rich, 0, [0.0]) > 0.5


def test_boundary_approaches_one_when_rich():
    # g stays strictly below 1 for finite load ratios, so the root crowds
    # the upper corner without touching it
    sc = two_tier(gamma=6.0)
    b = boundary(sc, 0, [1.0])
    assert 0.999 < b <= 1.0


def test_membership_on_reference_scenario():
    sc = two_tier()
    rho_max = solve_availability(sc).rho
    assert contains(sc, [0.0, 0.0])
    assert contains(sc, rho_max)
    assert contains(sc, 0.5 * rho_max)
    for k in range(2):
        probe = rho_max.copy()
        probe[k] += 0.01
        assert not contains(sc, probe)


def test_region_is_down_closed_and_inside_componentwise_max():
    sc = two_tier()
    rho_max = solve_availability(sc).rho
    rng = np.random.default_rng(9)
    hits = 0
    for point in rng.uniform(0.0, 1.0, size=(40, 2)):
        if contains(sc, point):
            hits += 1
            assert np.all(point <= rho_max + 2e-6)
            assert contains(sc, 0.5 * point)
    assert hits > 0


def test_contains_rejects_bad_shape_and_flags_out_of_box():
    sc = two_tier()
    with pytest.raises(ScenarioError):
        contains(sc, [0.5, 0.5, 0.5])
    assert not contains(sc, [-0.1, 0.5])
    assert not contains(sc, [1.1, 0.5])


def test_constrained_boundary_inside_unconstrained():
    sc = two_tier()
    for k, battery in ((0, 10), (1, 8)):
        free = sweep_boundary(sc, k, 31)
        pinned = sweep_boundary(sc, k, 31, constraint=PolicySpec(battery))
        assert np.all(pinned.values <= free.values + 1e-9)
        assert np.any(pinned.values < free.values - 1e-3)
        assert pinned.policy_constraint.cutoff == battery
        assert free.policy_constraint is None


def test_boundary_monotone_in_conditioning_availability():
    # the more the other tier keeps its cells ON, the less load lands on
    # this tier, so its achievable availability only grows
    sc = two_tier()
    for k in (0, 1):
        curve = sweep_boundary(sc, k, 31).values
        assert np.all(np.diff(curve) >= -1e-9)


def test_membership_under_policy_constraints():
    sc = two_tier()
    policies = {0: PolicySpec(10), 1: PolicySpec(8)}
    free_max = solve_availability(sc).rho
    pinned_max = solve_availability(
        sc, policy=[PolicySpec(10), PolicySpec(8)]).rho
    assert contains(sc, pinned_max, constraints=policies)
    assert not contains(sc, free_max, constraints=policies)
    assert np.all(pinned_max < free_max)


def test_sweep_validation():
    with pytest.raises(ScenarioError):
        sweep_boundary(one_tier(), 0)
    with pytest.raises(ScenarioError):
        sweep_boundary(two_tier(), 0, grid_resolution=1)


def test_fixed_others_validation():
    sc = two_tier()
    with pytest.raises(ScenarioError):
        boundary(sc, 0, [0.2, 0.3])
    with pytest.raises(ScenarioError):
        boundary(sc, 0, [1.4])


def test_grid_coverage_bounds_and_battery_growth():
    small = two_tier(batteries=(2, 2))
    large = two_tier(batteries=(10, 10))
    frac_small = grid_coverage(small, 21)
    frac_large = grid_coverage(large, 21)
    assert 0.0 < frac_small <= frac_large <= 1.0


def test_sweep_equals_pointwise_boundary():
    sc = two_tier()
    for k, constraint in ((0, None), (1, None), (0, PolicySpec(10)),
                          (1, PolicySpec(8))):
        sweep = sweep_boundary(sc, k, 41, constraint)
        points = [boundary(sc, k, [t], constraint) for t in sweep.grid]
        np.testing.assert_allclose(sweep.values, points, rtol=0, atol=1e-15)


def test_fine_sweep_memory_stays_flat():
    # The root search holds 65 loads per grid lane in each of several
    # arrays, over 10 MB an array for 20,001 lanes at once; the sweep must
    # work in bounded blocks of lanes.
    sc = two_tier()
    tracemalloc.start()
    try:
        sweep = sweep_boundary(sc, 0, 20_001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    for i in (0, 2047, 2048, 12_345, 20_000):
        assert sweep.values[i] == boundary(sc, 0, [sweep.grid[i]])


def three_tier():
    tiers = tuple(TierParams(lam, p, mu, n) for lam, p, mu, n in
                  ((1.0, 1.0, 3.0, 6), (4.0, 0.25, 1.5, 4), (10.0, 0.01, 0.5, 3)))
    lam_u = sum(t.density * t.harvest_rate for t in tiers) / (1.2 * PC)
    return NetworkScenario(tiers=tiers, path_loss_exp=4.0, sir_target=1.0,
                           user_density=lam_u)


def test_three_tier_boundary_matches_mpmath_root():
    sc = three_tier()
    tiers = sc.tiers
    for k, others, cutoff in ((1, [0.6, 0.3], 1), (2, [0.8, 0.5], 3),
                              (0, [0.2, 0.1], 4), (1, [1.0, 0.0], 2)):
        got = boundary(sc, k, others,
                       PolicySpec(cutoff) if cutoff > 1 else None)
        with mp.workdps(60):
            consts = mp_tier_constants(sc)
            d_others = mp.fsum(rho * on for rho, (on, _) in
                               zip(others, consts[:k] + consts[k + 1:]))
            on_k, slope_k = consts[k]

            def excess(x):
                s = slope_k * (d_others + on_k * x)
                return mp_on_fraction_closed(s, tiers[k].battery, cutoff) - x

            want = float(mp_outer_root(excess, 1))
        assert 0.0 < want < 1.0
        assert abs(got - want) <= 1e-10, (k, others, got, want)


SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))
# Offsets from a boundary value: inside, on and just past the 1e-6 slack.
OFFSETS = (0.0, -1e-9, 5e-7, 9.9e-7, 1.01e-6, 2e-6)


def constraint_sets(sc):
    """No constraint, tier 0 at S(N), and both tiers pinned (tier 1 at S(N/2))."""
    n = [t.battery for t in sc.tiers]
    return [None, {0: PolicySpec(n[0])},
            {0: PolicySpec(n[0]), 1: PolicySpec(max(1, n[1] // 2))}]


def probe_points(sc, constraints, rng, random=100, per_tier=9):
    """Uniform points, and points at each boundary offset by OFFSETS.

    The fixed point under `constraints` lies on every tier's boundary at
    once, so it is offset too.  Half the uniform points fill the unit box
    and half the box up to 1.5 times the fixed point, floored at 0.05, as
    do the other tiers' rho at the boundary points: most of the region
    lies there.
    """
    policy = [(constraints or {}).get(k, PolicySpec(1)) for k in range(sc.k_tiers)]
    corner = solve_availability(sc, policy=policy).rho
    high = np.clip(1.5 * corner, 0.05, 1.0)
    points = [*rng.uniform(0.0, 1.0, (random // 2, sc.k_tiers)),
              *rng.uniform(0.0, high, (random // 2, sc.k_tiers)),
              *(corner + offset for offset in OFFSETS)]
    for k in range(sc.k_tiers):
        for others in rng.uniform(0.0, np.delete(high, k), (per_tier, sc.k_tiers - 1)):
            b = boundary(sc, k, others, (constraints or {}).get(k))
            points += [np.insert(others, k, b + offset) for offset in OFFSETS]
    return points


def test_policy_availability_is_one_minus_one_over_q():
    # a(s) = 1 - 1/Q(s), Q(s) = sum_i q_i s^i, q_0 = 1, q_i = min(1, (N-i+1)/c)
    s = np.concatenate([np.linspace(0.0, 3.0, 61), np.geomspace(1e-3, 1e3, 25)])
    for n in (1, 2, 7, 40):
        for c in range(1, n + 1):
            q = [min(1.0, (n - i + 1) / c) for i in range(n + 1)]
            want = 1.0 - 1.0 / np.polynomial.polynomial.polyval(s, q)
            np.testing.assert_allclose(tier_availability(s, n, c), want, rtol=0, atol=1e-15)


def test_availability_is_concave_for_every_cutoff_exactly():
    # a'' <= 0 iff Q Q'' <= 2 Q'^2, which holds on s >= 0 when every
    # coefficient sum_(i+j=m) q_i q_j (m^2 - m - 6ij) is <= 0.  With
    # q_i = num_i / c exactly, a coefficient is Fraction(integer, c^2).
    for n in range(1, 41):
        for c in range(1, n + 1):
            num = [min(c, n - i + 1) for i in range(n + 1)]
            for m in range(2 * n + 1):
                total = sum(num[i] * num[m - i] * (m * m - m - 6 * i * (m - i))
                            for i in range(max(0, m - n), min(m, n) + 1))
                assert Fraction(total, c * c) <= 0, (n, c, m)


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_contains_equals_root_search_membership(path):
    sc, _ = load_scenario(str(path))
    rng = np.random.default_rng(16)
    for constraints in constraint_sets(sc):
        points = probe_points(sc, constraints, rng)
        got = [contains(sc, p, constraints) for p in points]
        assert got == [root_search_contains(sc, p, constraints) for p in points]


def test_three_tier_contains_equals_root_search_membership():
    sc = three_tier()
    rng = np.random.default_rng(3)
    for constraints in (None, {1: PolicySpec(4), 2: PolicySpec(2)}):
        points = probe_points(sc, constraints, rng, random=150, per_tier=6)
        got = [contains(sc, p, constraints) for p in points]
        assert got == [root_search_contains(sc, p, constraints) for p in points]
        assert 0 < sum(got) < len(got), constraints


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_grid_coverage_equals_two_sweep_coverage(path):
    sc, _ = load_scenario(str(path))
    for constraints in constraint_sets(sc):
        for resolution in (21, 101):
            assert (grid_coverage(sc, resolution, constraints)
                    == two_sweep_grid_coverage(sc, resolution, constraints))


def test_membership_runs_no_root_search(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("membership reached a root search")

    for name, owner in (("_load_root", analytic), ("boundary", region),
                        ("sweep_boundary", region), ("_boundaries", region)):
        monkeypatch.setattr(owner, name, forbidden)
    sc = two_tier()
    assert contains(sc, [0.1, 0.1]) and not contains(sc, [0.9, 0.9])
    assert 0.0 < grid_coverage(sc, 101) < 1.0
    assert not contains(three_tier(), [0.9, 0.9, 0.9])


def test_membership_blocks_match_one_evaluation():
    # 301^2 grid lanes take two membership calls; blocks change no lane
    sc = two_tier()
    t = np.linspace(0.0, 1.0, 301)
    lanes = np.column_stack((np.repeat(t, t.size), np.tile(t, t.size)))
    assert grid_coverage(sc, 301) == region._inside(sc, lanes, {}, 1e-6).mean()


def test_contains_takes_a_load_rounded_below_zero_as_zero():
    # With the other tier at 0 and rho_k within the slack, D_others =
    # rho_k lambda_k w_k - lambda_k w_k rho_k can round to about -1e-22;
    # those loads were once rejected as negative load ratios.
    sc, _ = load_scenario(str(SCENARIOS[[p.stem for p in SCENARIOS].index("battery-sweep")]))
    rng = np.random.default_rng(11)
    for tiny in rng.uniform(0.0, 3e-6, 60):
        for rho in ([tiny, 0.0], [0.0, tiny]):
            assert contains(sc, rho) == root_search_contains(sc, rho), rho


def test_contains_reports_nan_as_outside():
    sc = two_tier()
    assert not contains(sc, [math.nan, 0.1])
    assert not contains(sc, [0.1, math.nan])
