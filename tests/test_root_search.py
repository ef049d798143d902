"""The fixed point and the region boundaries against mpmath roots, near gamma = 1.

Both are roots of one load equation, found by `analytic._load_root`.  The
oracles take the solver's own float tier constants, so they give the root
of the very same inputs to 60 digits: any cancellation left in the solver
shows as lost digits once gamma - 1 nears the float resolution.
"""

import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from harvnet import analytic
from harvnet.analytic import (
    check_feasibility,
    energy_outage_bound,
    solve_availability,
)
from harvnet.cli import load_scenario
from harvnet.coverage import coverage_prob
from harvnet.markov import PolicySpec
from harvnet.region import boundary
from oracles import mp_fixed_point, mp_on_fraction_closed, mp_outer_root

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))
BASELINE = SCENARIOS[[p.stem for p in SCENARIOS].index("two-tier-baseline")]


def scaled(sc, factor, tiers=None):
    """sc with the harvest rate of `tiers` (default all) times factor."""
    return replace(sc, tiers=tuple(
        replace(t, harvest_rate=t.harvest_rate * factor) if tiers is None or k in tiers else t
        for k, t in enumerate(sc.tiers)))


def near_one(path, excess):
    """The bundled scenario with every mu scaled so that gamma = 1 + excess."""
    sc, _ = load_scenario(str(path))
    return scaled(sc, (1.0 + excess) / check_feasibility(sc)[1])


def exact_excess(sc, tiers=None):
    """sum_k c_k s_k - 1 over the solver's float tier constants, as a Fraction."""
    c, s = analytic._tier_constants(sc)
    return sum(Fraction(c[k]) * Fraction(s[k]) for k in tiers or range(sc.k_tiers)) - 1


def fixed_point_oracle(sc, cutoffs):
    c, s = analytic._tier_constants(sc)
    return mp_fixed_point(c, s, sc.batteries(), cutoffs)


def boundary_oracle(sc, k, cutoff):
    """Tier k's boundary with every other tier at 0, in mpmath."""
    c, s = (mp.mpf(float(v[k])) for v in analytic._tier_constants(sc))
    with mp.workdps(60):
        return float(mp_outer_root(
            lambda x: mp_on_fraction_closed(s * c * x, sc.tiers[k].battery, cutoff) - x, 1))


@pytest.mark.parametrize("excess", [1e-3, 1e-9, 1e-13, 1e-15])
@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_fixed_point_near_gamma_one_matches_mpmath(path, excess):
    sc = near_one(path, excess)
    n = sc.batteries()
    for cutoffs in ([1] * len(n), [max(1, x // 2) for x in n], list(n)):
        policy = [PolicySpec(c) for c in cutoffs]
        want = fixed_point_oracle(sc, cutoffs)
        assert np.all(want > 0.0)
        # run to adjacent doubles, the solver holds every digit of rho
        full = solve_availability(sc, policy, tolerance=1e-300)
        assert full.feasible
        assert np.all(np.abs(full.rho / want - 1.0) <= 1e-12), (cutoffs, full.rho, want)
        # at the default tolerance, the reported bracket bounds the error
        res = solve_availability(sc, policy)
        assert res.bracket <= 1e-10
        assert np.all(np.abs(res.rho - want) <= res.bracket), (cutoffs, res.rho, want)


@pytest.mark.parametrize("factor", [1e20, 1e250])
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_fixed_point_with_one_tier_far_heavier_than_the_rest(path, k, factor):
    # the heavy tier's c_k s_k b_k, with b_k rounding to 1, once swamped the
    # rest of the sign test: rho_2 of two-tier-baseline read 0.8925 for 0.7604
    sc, _ = load_scenario(str(path))
    heavy = scaled(sc, factor, [k])
    res = solve_availability(heavy)
    want = fixed_point_oracle(heavy, [1] * sc.k_tiers)
    assert res.bracket <= 1e-10
    assert np.all(np.abs(res.rho - want) <= res.bracket), (res.rho, want)


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_feasibility_within_ulps_of_gamma_one(path):
    base = near_one(path, 0.0)
    signs = set()
    for ulps in range(-4, 5):
        sc = scaled(base, 1.0 + ulps * 2.0 ** -52)
        feasible = exact_excess(sc) > 0
        signs.add(feasible)
        assert check_feasibility(sc)[0] == feasible
        res = solve_availability(sc)
        assert res.feasible == feasible
        if feasible:
            assert np.all(res.rho > 0.0) and energy_outage_bound(sc) == 0.0
        else:
            assert res.rho.tolist() == [0.0] * sc.k_tiers
    assert signs == {False, True}


@pytest.mark.parametrize("cutoff", [1, 8])
@pytest.mark.parametrize("k", [0, 1])
def test_lone_tier_boundary_matches_mpmath(k, cutoff):
    # with every other tier at 0, tier k's own c_k s_k - 1 decides the root
    sc, _ = load_scenario(str(BASELINE))
    t = sc.tiers[k]
    unit = sc.user_density * coverage_prob(sc) / (t.density * t.harvest_rate)
    constraint = PolicySpec(cutoff) if cutoff > 1 else None
    for excess in (1e-6, 1e-9, 1e-12):
        lone = scaled(sc, unit * (1.0 + excess), [k])
        got, want = boundary(lone, k, [0.0], constraint), boundary_oracle(lone, k, cutoff)
        assert 0.0 < want < 1.0
        assert abs(got - want) <= 1e-10, (excess, got, want)
    signs = set()
    for ulps in range(-4, 5):
        lone = scaled(sc, unit * (1.0 + ulps * 2.0 ** -52), [k])
        got, positive = boundary(lone, k, [0.0], constraint), exact_excess(lone, [k]) > 0
        signs.add(positive)
        if positive:
            assert 0.0 < got and abs(got - boundary_oracle(lone, k, cutoff)) <= 1e-10
        else:
            assert got == 0.0
    assert signs == {False, True}
    assert boundary(scaled(sc, 0.5 * unit, [k]), k, [0.0], constraint) == 0.0
    # where a_k rounds to 1, the boundary is exactly 1
    rich = scaled(sc, 1e5 * unit, [k])
    assert boundary(rich, k, [0.0], constraint) == boundary(rich, k, [0.5], constraint) == 1.0


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_root_search_ends_within_its_evaluation_bound(path):
    # At tolerance 1e-300 a lane runs to adjacent doubles, its longest path;
    # `_load_root` bounds its splits by ceil((53 + log2(w_0/D*))/6) + 1.
    sc, _ = load_scenario(str(path))
    cases = [near_one(path, excess) for excess in (1e-3, 1e-15)]
    cases += [scaled(sc, factor, [k]) for factor in (1e20, 1e250) for k in (0, 1)]
    for case in cases:
        res = solve_availability(case, tolerance=1e-300)
        c, _ = analytic._tier_constants(case)
        splits = math.ceil((53 + math.log2(c.sum() / (res.rho @ c))) / 6) + 1
        # six bisection levels per split, plus one evaluation at the midpoint
        assert res.iterations % 6 == 0 and res.evaluations == res.iterations // 6 + 1
        assert res.evaluations <= splits + 1, (res.evaluations, splits)
