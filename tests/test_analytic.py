import math

import mpmath as mp
import numpy as np
import pytest

from harvnet import analytic
from harvnet.analytic import (
    check_feasibility,
    energy_outage_bound,
    energy_utilization,
    equivalence_check,
    g,
    load_ratio,
    mean_service_area,
    solve_availability,
)
from harvnet.coverage import coverage_prob
from harvnet.markov import (
    BirthDeathSpec,
    PolicySpec,
    policy_availability,
    tier_availability,
)
from harvnet.model import NetworkScenario, ScenarioError, ShadowingSpec, TierParams
from oracles import (
    mp_fixed_point,
    mp_on_fraction,
    mp_on_fraction_closed,
    mp_tier_constants,
)

PC_BETA1_ALPHA4 = 0.5600991535115574


def one_tier(gamma, battery=10, mu=2.0, lam=1.0):
    lam_u = lam * mu / (gamma * PC_BETA1_ALPHA4)
    return NetworkScenario(
        tiers=(TierParams(lam, 1.0, mu, battery),),
        path_loss_exp=4.0, sir_target=1.0, user_density=lam_u)


def two_tier(gamma=1.1, batteries=(10, 8), mus=(2.0, 1.0), lams=(1.0, 10.0),
             powers=(1.0, 1.0), shadowing=None):
    sh = shadowing or ShadowingSpec(0.0, 0.0)
    tiers = tuple(TierParams(lams[i], powers[i], mus[i], batteries[i], sh)
                  for i in range(2))
    lam_u = sum(l * m for l, m in zip(lams, mus)) / (gamma * PC_BETA1_ALPHA4)
    return NetworkScenario(tiers=tiers, path_loss_exp=4.0, sir_target=1.0,
                           user_density=lam_u)


def test_single_tier_area_is_inverse_density():
    sc = one_tier(1.1, lam=3.0)
    assert mean_service_area(sc, [1.0], 0) == pytest.approx(1 / 3.0, rel=1e-12)


def test_symmetric_tiers_share_area():
    sc = two_tier()
    a0 = mean_service_area(sc, [1.0, 1.0], 0)
    a1 = mean_service_area(sc, [1.0, 1.0], 1)
    assert a0 == pytest.approx(1 / 11.0, rel=1e-12)
    assert a0 == a1


def test_power_imbalance_area_value():
    sc = two_tier(powers=(1.0, 0.1))
    want = 1.0 / (1.0 + 10.0 * 0.1 ** 0.5)
    assert mean_service_area(sc, [1.0, 1.0], 0) == pytest.approx(want, rel=1e-12)


def test_weighted_areas_sum_to_one():
    rng = np.random.default_rng(2)
    for _ in range(30):
        k = int(rng.integers(1, 5))
        tiers = tuple(TierParams(float(rng.uniform(0.2, 10)),
                                 float(rng.uniform(0.01, 5)),
                                 float(rng.uniform(0.2, 5)),
                                 int(rng.integers(1, 20)),
                                 ShadowingSpec(float(rng.uniform(-2, 2)),
                                               float(rng.uniform(0, 8))))
                      for _ in range(k))
        sc = NetworkScenario(tiers=tiers, path_loss_exp=float(rng.uniform(2.5, 6)),
                             sir_target=1.0, user_density=5.0)
        rho = rng.uniform(0.05, 1.0, k)
        total = sum(rho[i] * tiers[i].density * mean_service_area(sc, rho, i)
                    for i in range(k))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_all_off_raises():
    sc = two_tier()
    with pytest.raises(ScenarioError, match="no BS available"):
        mean_service_area(sc, [0.0, 0.0], 0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("quantity", [energy_utilization, mean_service_area])
def test_service_area_and_utilization_past_the_float_range_are_errors(quantity):
    # w_0 = 1e150 over D = 1e-10 * 1e-150: both w_0/D and P_c lambda_u w_0/D overflow
    sc = NetworkScenario(tiers=(TierParams(1.0, 1e300, 1.0, 5), TierParams(1e-10, 1e-300, 1.0, 5)),
                         path_loss_exp=4.0, sir_target=1.0, user_density=100.0)
    with pytest.raises(ScenarioError, match=r"float range \(user_density=100.0, density="):
        quantity(sc, [0.0, 1.0], 0)
    assert math.isfinite(quantity(sc, [0.0, 1.0], 1))


def test_energy_utilization_scales_with_user_density():
    sc = two_tier()
    doubled = NetworkScenario(tiers=sc.tiers, path_loss_exp=4.0, sir_target=1.0,
                              user_density=2 * sc.user_density)
    nu1 = energy_utilization(sc, [0.9, 0.8], 0)
    nu2 = energy_utilization(doubled, [0.9, 0.8], 0)
    assert nu2 == pytest.approx(2 * nu1, rel=1e-12)
    assert energy_utilization(one_tier(1.1), [1.0], 0) == pytest.approx(
        PC_BETA1_ALPHA4 * one_tier(1.1).user_density, rel=1e-12)


def test_energy_utilization_invariant_to_common_shadowing():
    base = two_tier()
    shadowed = two_tier(shadowing=ShadowingSpec(1.5, 8.0))
    for k in range(2):
        assert energy_utilization(base, [0.7, 0.4], k) == pytest.approx(
            energy_utilization(shadowed, [0.7, 0.4], k), abs=1e-12)


def test_g_trivial_fixed_point_and_saturation():
    sc = two_tier()
    assert g(sc, [0.0, 0.0], 0) == 0.0
    assert g(sc, [0.0, 0.0], 1) == 0.0
    # heavy over-provisioning drives the load ratio far above 1, so g
    # saturates just below 1
    rich = two_tier(gamma=4.0)
    for k in range(2):
        val = g(rich, [1.0, 1.0], k)
        assert 0.999 < val <= 1.0


def test_g_lhopital_limit():
    # K=1 with load ratio pinned at exactly 1 when rho = 1
    sc = one_tier(gamma=1.0, battery=10)
    assert g(sc, [1.0], 0) == pytest.approx(10 / 11, rel=1e-12)
    # continuity: approach s=1 from both sides by nudging rho
    lo = g(sc, [1.0 - 1e-6], 0)
    hi = g(sc, [1.0], 0)
    assert abs(lo - hi) < 1e-5


def test_g_monotone_in_every_coordinate():
    sc = two_tier()
    rng = np.random.default_rng(8)
    for _ in range(300):
        a = rng.uniform(0, 1, 2)
        b = np.minimum(a + rng.uniform(0, 1 - a.max(), 2), 1.0)
        for k in range(2):
            assert g(sc, b, k) >= g(sc, a, k) - 1e-14


def test_g_concave_along_segments():
    sc = two_tier()
    rng = np.random.default_rng(9)
    for _ in range(300):
        a = rng.uniform(0, 1, 2)
        b = rng.uniform(0, 1, 2)
        t = float(rng.uniform(0, 1))
        mid = t * a + (1 - t) * b
        for k in range(2):
            left = g(sc, mid, k)
            right = t * g(sc, a, k) + (1 - t) * g(sc, b, k)
            assert left >= right - 1e-12


def test_fixed_point_single_tier_exact_root():
    # gamma = 1.1, N = 10: the fixed point sits exactly at rho = 1/1.1,
    # where the load ratio equals 1 (the continuity branch of g).
    sc = one_tier(1.1)
    res = solve_availability(sc)
    assert res.feasible
    assert res.rho[0] == pytest.approx(10 / 11, abs=1e-10)
    assert res.residual <= 1e-10
    # bisection oracle on h(rho) = g(rho) - rho over (0, 1]
    lo, hi = 1e-9, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(sc, [mid], 0) - mid >= 0:
            lo = mid
        else:
            hi = mid
    assert res.rho[0] == pytest.approx(0.5 * (lo + hi), abs=1e-9)


def test_fixed_point_matches_scalar_bisection_two_tier():
    sc = two_tier()
    res = solve_availability(sc, tolerance=1e-12)
    assert res.feasible and res.residual <= 1e-12
    for k in range(2):
        assert g(sc, res.rho, k) == pytest.approx(res.rho[k], abs=1e-10)


def test_infeasible_returns_zero_vector():
    sc = one_tier(0.99)
    res = solve_availability(sc)
    assert not res.feasible
    assert np.all(res.rho == 0.0)
    feasible, gamma = check_feasibility(sc)
    assert not feasible and gamma == pytest.approx(0.99, rel=1e-12)


def test_feasibility_both_sides_of_threshold():
    assert check_feasibility(one_tier(1.01))[0]
    assert not check_feasibility(one_tier(1.0))[0]
    res = solve_availability(one_tier(1.01))
    assert res.feasible and res.rho[0] > 0


def test_feasibility_single_strong_tier():
    # tier 1 alone over-provisions the network; tier 2 is a heavy drain
    sc = two_tier(gamma=1.3, mus=(20.0, 0.01))
    feasible, gamma = check_feasibility(sc)
    assert feasible and gamma == pytest.approx(1.3, rel=1e-12)


def _huge_tiers(density, harvest_rate, user_density):
    tier = TierParams(density, 1.0, harvest_rate, 10)
    return NetworkScenario((tier, tier), path_loss_exp=4.0, sir_target=1.0,
                           user_density=user_density)


def test_load_past_the_float_range_is_an_error_naming_its_fields():
    # gamma once read inf, after an overflow warning, and the solver failed
    # with "load ratio must be finite ... (got nan)"
    sc = _huge_tiers(1e200, 1e200, 1.0)
    for call in (check_feasibility, solve_availability, energy_outage_bound):
        with pytest.raises(ScenarioError) as err:
            call(sc)
        assert all(name in str(err.value)
                   for name in ("density", "harvest_rate", "user_density")), err.value


def test_overflowing_lambda_mu_with_finite_loads_solves():
    # lambda_k mu_k = 1e320 overflows, but gamma and every load ratio do not
    sc = _huge_tiers(1e160, 1e160, 1e100)
    feasible, gamma = check_feasibility(sc)
    assert feasible and gamma == pytest.approx(2e220 / PC_BETA1_ALPHA4, rel=1e-12)
    res = solve_availability(sc)
    assert res.feasible and np.all(res.rho == 1.0)
    assert energy_outage_bound(sc) == 0.0


def test_availability_increases_with_battery():
    values = [solve_availability(one_tier(1.1, battery=n)).rho[0]
              for n in (1, 2, 5, 10, 20, 50)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] < 1.0


def test_uniqueness_from_random_starts():
    # iterate the map from 100 random positive starting points; every run
    # must land on the same fixed point as the all-ones start
    sc = two_tier()
    ref = solve_availability(sc, tolerance=1e-12).rho
    rng = np.random.default_rng(12)
    for _ in range(100):
        rho = rng.uniform(0.05, 1.0, 2)
        for _ in range(20000):
            nxt = np.array([g(sc, rho, k) for k in range(2)])
            done = np.max(np.abs(nxt - rho)) < 1e-13
            rho = nxt
            if done:
                break
        assert np.max(np.abs(rho - ref)) < 1e-11


def test_policy_solver_reduces_availability():
    sc = two_tier()
    base = solve_availability(sc)
    constrained = solve_availability(sc, policy=[PolicySpec(1), PolicySpec(8)])
    assert constrained.rho[1] < base.rho[1]
    assert constrained.rho[0] < base.rho[0]  # coupling drags tier 1 down too
    # the constrained solution still satisfies its own fixed-point relation
    s = load_ratio(sc, constrained.rho, 1)
    tier = sc.tiers[1]
    want = policy_availability(BirthDeathSpec(tier.harvest_rate,
                                              tier.harvest_rate / s,
                                              tier.battery), PolicySpec(8))
    assert constrained.rho[1] == pytest.approx(want, abs=1e-9)


def test_equivalence_check_tracks_gamma():
    sc = two_tier(gamma=1.1)
    rho = solve_availability(sc).rho
    assert equivalence_check(sc, rho)
    lean = two_tier(gamma=0.9)
    rng = np.random.default_rng(4)
    for _ in range(20):
        probe = rng.uniform(0.05, 1.0, 2)
        assert not equivalence_check(lean, probe)
    with pytest.raises(ScenarioError):
        equivalence_check(sc, [0.0, 0.5])


def test_energy_outage_bound_values():
    assert energy_outage_bound(one_tier(1.1)) == 0.0
    assert energy_outage_bound(one_tier(1.0)) == 0.0
    assert energy_outage_bound(one_tier(0.5)) == pytest.approx(0.5, rel=1e-12)


def test_cross_tier_coupling_increases_g():
    sc = two_tier()
    lo = g(sc, [0.5, 0.2], 0)
    hi = g(sc, [0.5, 0.9], 0)
    assert hi > lo


def test_coverage_prob_used_by_feasibility_is_density_free():
    # same beta and alpha, different densities: gamma scales only through
    # the harvested-energy sum, not through P_c
    sc_a = two_tier(lams=(1.0, 10.0))
    sc_b = two_tier(lams=(3.0, 1.0))
    assert coverage_prob(sc_a) == coverage_prob(sc_b)


LOAD_RATIOS = (1e-300, 1e-12, 1e-6, 0.3, 1 - 1e-9, 1.0, 1 + 1e-9, 40.0, 1e6)


@pytest.mark.parametrize("battery", [1, 2, 8, 1000])
def test_tier_availability_matches_mpmath(battery):
    for cutoff in sorted({1, math.ceil(battery / 2), battery}):
        got = tier_availability(np.array(LOAD_RATIOS), battery, cutoff)
        for s, value in zip(LOAD_RATIOS, got):
            want = mp_on_fraction(s, battery, cutoff)
            with mp.workdps(50):
                closed = mp_on_fraction_closed(s, battery, cutoff)
                assert abs(closed / want - 1) < mp.mpf(10) ** -20
            assert abs(value / float(want) - 1.0) <= 1e-13, (s, cutoff, value)
            assert tier_availability(s, battery, cutoff) == pytest.approx(
                value, rel=1e-15)


@pytest.mark.parametrize("battery", [1, 2, 8, 1000])
def test_g_matches_mpmath_over_load_ratios(battery):
    # one tier at rho = 1 has load ratio equal to its over-provisioning
    for target in LOAD_RATIOS:
        sc = one_tier(target, battery=battery)
        s = load_ratio(sc, [1.0], 0)
        want = float(mp_on_fraction(s, battery))
        assert abs(g(sc, [1.0], 0) / want - 1.0) <= 1e-13, (s, battery)


def test_tier_availability_rejects_bad_inputs():
    with pytest.raises(ScenarioError):
        tier_availability(-0.5, 4)
    with pytest.raises(ScenarioError):
        tier_availability(0.5, 4, cutoff=5)
    with pytest.raises(ScenarioError):
        tier_availability(0.5, 0)


def fixed_point_oracle(sc, cutoffs):
    """mp_fixed_point of the solver's float tier constants, checked in mpmath."""
    c, s = analytic._tier_constants(sc)
    with mp.workdps(30):
        for (on, slope), c_k, s_k in zip(mp_tier_constants(sc), c, s):
            assert abs(c_k / on - 1) < 1e-15 and abs(s_k / slope - 1) < 1e-15
    return mp_fixed_point(c, s, sc.batteries(), cutoffs)


@pytest.mark.parametrize("batteries", [(1, 1), (10, 8), (1000, 500)])
@pytest.mark.parametrize("full_battery", [False, True])
def test_fixed_point_matches_mpmath_scalar_root(batteries, full_battery):
    cutoffs = batteries if full_battery else (1, 1)
    for gamma in (1 + 1e-7, 1 + 1e-5, 1.001, 1.1, 3.0):
        sc = two_tier(gamma=gamma, batteries=batteries)
        res = solve_availability(sc, policy=[PolicySpec(c) for c in cutoffs])
        want = fixed_point_oracle(sc, cutoffs)
        assert res.feasible and np.all(res.rho > 0.0)
        assert np.max(np.abs(res.rho - want)) <= 1e-9, (gamma, res.rho, want)
        assert res.bracket <= 1e-10 and res.residual <= 1e-10


def test_solver_rejects_bad_tolerance():
    sc = two_tier()
    for tol in (0.0, -1.0, float("nan")):
        with pytest.raises(ScenarioError, match="tolerance"):
            solve_availability(sc, tolerance=tol)
