import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

from harvnet import analytic, coverage, markov, region
from harvnet.analytic import solve_availability
from harvnet.cli import load_scenario
from harvnet.coverage import (
    RateQuery,
    _log_nb_table,
    coverage_prob,
    hyper_f,
    load_pmf,
    rate_ccdf,
    tier_association_prob,
)
from harvnet.model import NetworkScenario, ScenarioError, ShadowingSpec, TierParams
from oracles import fsum_rate_ccdf, mp_hyper_f, mp_load_pmf, mp_rate_ccdf

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def scenario(beta=1.0, alpha=4.0, lams=(1.0, 10.0), powers=(1.0, 1.0),
             lam_u=5.0, shadowing=None, mus=(2.0, 1.0), batteries=(10, 8)):
    sh = shadowing or ShadowingSpec(0.0, 0.0)
    tiers = tuple(TierParams(lams[i], powers[i], mus[i], batteries[i], sh)
                  for i in range(len(lams)))
    return NetworkScenario(tiers=tiers, path_loss_exp=alpha, sir_target=beta,
                           user_density=lam_u)


def hyper_f_euler_oracle(beta, alpha):
    """Gauss 2F1 via its Euler integral, evaluated with fixed quadrature."""
    b = 1 - 2 / alpha
    c = 2 - 2 / alpha
    coef = special.gamma(c) / (special.gamma(b) * special.gamma(c - b))
    val, _ = integrate.quad(
        lambda t: t ** (b - 1) * (1 + beta * t) ** (-1.0), 0, 1,
        epsabs=1e-13, epsrel=1e-13, limit=400)
    return (2 * beta / (alpha - 2)) * coef * val


def test_hyper_f_arctan_point():
    # alpha=4 reduces the integrand to 1/(1+u^2), so F(1,4) = arctan(1)
    assert hyper_f(1.0, 4.0) == pytest.approx(math.pi / 4, abs=1e-12)


def test_hyper_f_matches_euler_integral_oracle():
    rng = np.random.default_rng(77)
    for _ in range(25):
        beta = float(np.exp(rng.uniform(np.log(0.01), np.log(100))))
        alpha = float(rng.uniform(2.2, 6.0))
        assert hyper_f(beta, alpha) == pytest.approx(
            hyper_f_euler_oracle(beta, alpha), rel=1e-8)


def test_hyper_f_edge_cases():
    assert hyper_f(0.0, 4.0) == 0.0
    betas = np.linspace(0.01, 30, 40)
    vals = [hyper_f(float(b), 4.0) for b in betas]
    assert all(y > x for x, y in zip(vals, vals[1:]))
    with pytest.raises(ScenarioError):
        hyper_f(-0.5, 4.0)
    with pytest.raises(ScenarioError):
        hyper_f(1.0, 2.0)


F_BETAS = np.concatenate([np.geomspace(1e-300, 1e-10, 30),
                          np.geomspace(1e-9, 1e30, 79), [0.5, 1.0, 2.0]])


@pytest.mark.parametrize("alpha", [2.001, 2.5, 3.0, 4.0, 4.5, 6.0, 8.0])
def test_hyper_f_matches_mpmath_2f1(alpha):
    for beta in F_BETAS:
        want = float(mp_hyper_f(beta, alpha))
        assert hyper_f(float(beta), alpha) == pytest.approx(want, rel=1e-13), beta


def test_mp_hyper_f_alpha4_closed_form_matches_2f1():
    with mp.workdps(40):
        for beta in (1e-6, 1.0, 1e3, 1e12):
            b = mp.mpf(beta)
            via_2f1 = b * mp.hyp2f1(1, mp.mpf(1) / 2, mp.mpf(3) / 2, -b)
            assert abs(mp_hyper_f(beta, 4.0) / via_2f1 - 1) < mp.mpf(10) ** -25


def test_hyper_f_alpha4_closed_form_is_exact():
    assert hyper_f(1.0, 4.0) == math.pi / 4
    for beta in (1e-300, 0.3, 7.0, 1e12, 1e30):
        root = math.sqrt(beta)
        assert hyper_f(beta, 4.0) == root * math.atan(root)


@pytest.mark.parametrize("alpha", [2.7, 4.0])
def test_hyper_f_array_call_equals_scalar_calls(alpha):
    betas = np.concatenate([[0.0], F_BETAS])
    got = hyper_f(betas, alpha)
    assert isinstance(got, np.ndarray) and got.shape == betas.shape
    assert got.tolist() == [hyper_f(float(b), alpha) for b in betas]
    assert isinstance(hyper_f(1.0, alpha), float)
    with pytest.raises(ScenarioError):
        hyper_f(np.array([1.0, -1.0]), alpha)


@pytest.mark.parametrize("beta", [math.nan, math.inf])
def test_hyper_f_rejects_non_finite_thresholds(beta):
    with pytest.raises(ScenarioError):
        hyper_f(beta, 4.0)
    with pytest.raises(ScenarioError):
        hyper_f(beta, 3.0)


def test_coverage_constant_beta1_alpha4():
    sc = scenario()
    assert coverage_prob(sc) == pytest.approx(1 / (1 + math.pi / 4), abs=1e-12)


@pytest.mark.parametrize("alpha", [4.0, 3.98])
def test_coverage_prob_has_the_same_bits_cold_and_warm(alpha):
    sc = scenario(beta=1.7, alpha=alpha)
    want = 1.0 / (1.0 + hyper_f(1.7, alpha))
    coverage._coverage.cache_clear()
    cold = coverage_prob(sc)
    warm = coverage_prob(replace(sc, user_density=9.0))
    assert coverage._coverage.cache_info().hits == 1
    assert cold.hex() == warm.hex() == want.hex()


def test_coverage_is_parameter_invariant():
    # 20 random perturbations of everything except (beta, alpha)
    rng = np.random.default_rng(6)
    ref = coverage_prob(scenario(beta=2.5, alpha=3.7))
    for _ in range(20):
        k = int(rng.integers(1, 4))
        sc = scenario(
            beta=2.5, alpha=3.7,
            lams=tuple(rng.uniform(0.2, 20, k)),
            powers=tuple(rng.uniform(0.01, 10, k)),
            mus=tuple(rng.uniform(0.1, 10, k)),
            batteries=tuple(int(b) for b in rng.integers(1, 30, k)),
            lam_u=float(rng.uniform(0.5, 200)),
            shadowing=ShadowingSpec(float(rng.uniform(-3, 3)),
                                    float(rng.uniform(0, 9))))
        assert coverage_prob(sc) == ref


def test_coverage_vanishes_at_large_beta():
    assert coverage_prob(scenario(beta=1e7)) < 1e-3


def test_association_probabilities():
    sc = scenario()
    probs = tier_association_prob(sc, [1.0, 1.0])
    assert np.allclose(probs, [1 / 11, 10 / 11])
    assert tier_association_prob(sc, [1.0, 1.0], 1) == pytest.approx(10 / 11)
    single = scenario(lams=(2.0,), powers=(1.0,), mus=(1.0,), batteries=(5,))
    assert tier_association_prob(single, [0.3], 0) == 1.0
    with pytest.raises(ScenarioError, match="no BS available"):
        tier_association_prob(sc, [0.0, 0.0])
    assert tier_association_prob(sc, np.ones(2)).sum() == pytest.approx(1.0)


def test_association_survives_on_terms_that_underflow():
    # lambda w = 1e-150 * (1e-100)^(1/2) = 1e-200, so rho lambda w at rho = 1e-200
    # rounds to 0; the terms are rescaled by a power of two, and A = 1
    one = NetworkScenario((TierParams(1e-150, 1e-100, 1.0, 3),), 4.0, 1.0, 1.0)
    assert tier_association_prob(one, [1e-200]).tolist() == [1.0]
    # two tiers: the rescale is exact, so A has the bits of the same network
    # with every density 2^600 times larger, whose terms are normal
    tiers = (TierParams(1e-150, 1e-100, 1.0, 3), TierParams(3e-150, 4e-100, 1.0, 3))
    two = NetworkScenario(tiers, 4.0, 1.0, 1.0)
    big = NetworkScenario(tuple(replace(t, density=t.density * 2.0 ** 600) for t in tiers),
                          4.0, 1.0, 1.0)
    for rho in ([1e-200, 5e-201], [0.0, 1e-250], [1e-200, 1e-250]):
        probs = tier_association_prob(two, rho)
        assert probs.tolist() == tier_association_prob(big, rho).tolist()
        assert probs.sum() == pytest.approx(1.0, abs=1e-15)
    assert tier_association_prob(two, [1e-200, 5e-201]) == pytest.approx([0.25, 0.75],
                                                                          rel=1e-15)
    with pytest.raises(ScenarioError, match="no BS available"):
        tier_association_prob(two, [0.0, 0.0])
    # D itself is 0 there, so the mean load leaves the float range
    with pytest.raises(ScenarioError, match="mean load leaves the float range"):
        rate_ccdf(two, [1e-200, 5e-201], RateQuery(0.1))


def test_association_survives_on_terms_that_overflow():
    # lambda w = 1e200 * (1e300)^(2/2.5) = 1e440 per tier: the ON terms and D
    # overflow, though each A_k and w_k/D ~ 6.7e-201 are normal doubles.  A
    # warning is an error in this suite, so each call must also stay silent.
    tier = TierParams(1e200, 1e300, 1.0, 5)
    sc = NetworkScenario((tier, tier), 2.5, 1.0, 1.0)
    assert tier_association_prob(sc, [1.0, 0.5]) == pytest.approx([2 / 3, 1 / 3], rel=1e-15)
    assert tier_association_prob(sc, [1.0, 0.5], 1) == pytest.approx(1 / 3, rel=1e-15)
    # every load x_k ~ 1e-441 reads as 0: G_T(0) is the coverage at 2^T - 1
    assert rate_ccdf(sc, [1.0, 0.5], RateQuery(0.1)) == pytest.approx(
        1.0 / (1.0 + hyper_f(2.0 ** 0.1 - 1.0, 2.5)), rel=1e-15)
    assert rate_ccdf(sc, [1.0, 0.5], RateQuery(0.0)) == 1.0
    # a value read from D = inf would be 0.0; the float-range error says so
    for call, what in ((analytic.mean_service_area, "mean service area"),
                       (analytic.energy_utilization, "energy utilization")):
        with pytest.raises(ScenarioError, match=f"^{what} leaves the float range"):
            call(sc, [1.0, 0.5], 0)
    # the tier constants overflow too: a load error, not a warning
    with pytest.raises(ScenarioError, match="leaves the float range of the load"):
        solve_availability(sc)


def test_load_pmf_normalizes():
    rng = np.random.default_rng(15)
    ns = np.arange(0, 800)
    for _ in range(20):
        x = float(np.exp(rng.uniform(np.log(0.01), np.log(50))))
        total = float(np.sum(load_pmf(x, ns)))
        assert total == pytest.approx(1.0, abs=1e-8)
    assert load_pmf(0.0, 0) == 1.0
    assert load_pmf(0.0, 3) == 0.0


def test_load_pmf_matches_direct_formula_at_small_n():
    # direct evaluation is safe for small n; the log-space path must agree
    x = 2.7
    for n in range(0, 12):
        direct = (3.5 ** 3.5 / math.factorial(n)
                  * special.gamma(n + 4.5) / special.gamma(3.5)
                  * x ** n * (3.5 + x) ** -(n + 4.5))
        assert load_pmf(x, n) == pytest.approx(direct, rel=1e-12)


def test_load_pmf_broadcasts_over_x_and_n():
    xs = np.array([0.0, 0.4, 7.0, 160.0])
    ns = np.arange(0, 300)
    table = load_pmf(xs, ns[:, None])
    assert table.shape == (ns.size, xs.size)
    for j, x in enumerate(xs):
        assert table[:, j].tolist() == load_pmf(float(x), ns).tolist()
        assert table[5, j] == load_pmf(float(x), 5)
    with pytest.raises(ScenarioError):
        load_pmf(np.array([1.0, -0.5]), 0)


@pytest.mark.parametrize("x", [math.inf, [1.0, math.inf], [math.nan, 2.0]],
                         ids=["scalar", "array-inf", "array-nan"])
def test_load_pmf_rejects_a_non_finite_mean_load(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScenarioError, match="must be finite and >= 0"):
            load_pmf(x, 0)


LOAD_XS = [1e-3, 0.1, 1.0, 10.0, 600.0, 1e4, 1e5]


@pytest.mark.parametrize("ns, rel", [
    ([0, 1, 2, 7, 63, 64, 65, 127, 128, 300, 1000, 1999, 2000], 1e-11),
    ([2001, 4097, 10**4, 10**5 - 1, 10**5, 5 * 10**5, 10**6 - 1, 10**6], 1e-8),
])
def test_load_pmf_matches_mpmath(ns, rel):
    # the 1e-8 bound is set by cancellation in the log space form at n near
    # 1e6, where log Gamma(n+4.5) and n log(3.5+x) each exceed 1e7
    for x in LOAD_XS:
        for n, got in zip(ns, load_pmf(x, np.array(ns))):
            want = float(mp_load_pmf(x, n))
            if want < np.finfo(float).tiny:
                assert got < 1e-300, (x, n)
            else:
                assert got == pytest.approx(want, rel=rel, abs=0), (x, n)


def test_load_pmf_scattered_n_equals_scalar_calls():
    ns = np.array([5, 3, 1000, 10**6])
    for x in LOAD_XS:
        got = load_pmf(x, ns)
        assert got.tolist() == [load_pmf(x, int(n)) for n in ns]
    assert load_pmf(1e5, 10**6) > 0.0
    with pytest.raises(ScenarioError, match="load count"):
        load_pmf(1.0, [3, -1])


def test_load_pmf_rejects_nan_mean_load():
    # NaN fails x >= 0 and must not fall through to the x = 0 point mass
    for x in (np.nan, np.array([1.0, np.nan])):
        with pytest.raises(ScenarioError, match="mean load"):
            load_pmf(x, 0)


@pytest.mark.parametrize("n", [2.7, 3.0, True, 1e30, math.nan, 10**30, 2**63, [1, 2.5],
                               [3, -1]])
def test_load_pmf_refuses_a_count_that_is_not_an_int64_at_least_0(n):
    # A float or bool count was truncated (2.7 gave pmf(2), True pmf(1)),
    # and 1e30 or NaN escaped as numpy's OverflowError or ValueError.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScenarioError, match=re.escape(
                f"load count must be an integer in [0, 2**63) (got {n!r})")):
            load_pmf(1.0, n)


def test_rate_ccdf_matches_mpmath_series_on_rate_surface():
    sc, _ = load_scenario(str(SCENARIOS / "rate-surface.json"))
    got = rate_ccdf(sc, [0.2, 0.1], RateQuery(rate_target=0.1))
    want = mp_rate_ccdf(sc, [0.2, 0.1], 0.1)
    assert want == pytest.approx(0.0248873652, abs=1e-10)
    assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("name", ["battery-sweep", "gamma-rich",
                                  "two-tier-baseline"])
def test_rate_ccdf_matches_mpmath_series_on_bundled_scenarios(name):
    sc, _ = load_scenario(str(SCENARIOS / f"{name}.json"))
    rho = solve_availability(sc).rho
    for t in (0.05, 0.5, 1.95):
        want = mp_rate_ccdf(sc, rho, t)
        assert rate_ccdf(sc, rho, RateQuery(rate_target=t)) == pytest.approx(
            want, abs=1e-9), t


def test_rate_ccdf_away_from_alpha4_matches_mpmath_series():
    sc = scenario(alpha=3.3, lams=(1.0, 2.0), powers=(1.0, 0.01), lam_u=100.0,
                  shadowing=ShadowingSpec(1.0, 4.0))
    for t in (0.02, 0.3):
        want = mp_rate_ccdf(sc, [0.6, 0.3], t)
        assert rate_ccdf(sc, [0.6, 0.3], RateQuery(rate_target=t)) == \
            pytest.approx(want, abs=1e-9), t


def test_rate_ccdf_at_zero_is_exactly_one():
    sc = scenario(lam_u=50.0)
    assert rate_ccdf(sc, [0.7, 0.4], RateQuery(rate_target=0.0)) == 1.0


def test_rate_ccdf_monotone_and_vanishing():
    sc = scenario(lam_u=50.0)
    ts = np.linspace(0.0, 3.0, 50)
    vals = [rate_ccdf(sc, [0.7, 0.4], RateQuery(rate_target=float(t)))
            for t in ts]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[0] == 1.0
    assert vals[-1] < 0.02
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_rate_ccdf_shadowing_invariance():
    base = scenario(lams=(1.0, 2.0), powers=(1.0, 0.01), lam_u=100.0)
    shadowed = scenario(lams=(1.0, 2.0), powers=(1.0, 0.01), lam_u=100.0,
                        shadowing=ShadowingSpec(2.0, 6.0))
    q = RateQuery(rate_target=0.1)
    rho = [0.5, 0.7]
    assert abs(rate_ccdf(base, rho, q) - rate_ccdf(shadowed, rho, q)) < 1e-10


@pytest.mark.parametrize("lam_u, t", [(1e3, 0.01), (1e3, 0.001),
                                       (1e4, 0.01), (1e4, 0.001)])
def test_default_rate_query_converges_where_2000_terms_did_not(lam_u, t):
    # Each needs more than 2,000 terms.  The oracle stops at 1e-12, well
    # inside the 1e-9 compared, to keep its term-by-term mpmath loop short.
    sc, _ = load_scenario(str(SCENARIOS / "rate-surface.json"))
    sc = NetworkScenario(sc.tiers, sc.path_loss_exp, sc.sir_target, lam_u)
    want = mp_rate_ccdf(sc, [1.0, 1.0], t, tol=1e-12)
    assert rate_ccdf(sc, [1.0, 1.0], RateQuery(rate_target=t)) == pytest.approx(
        want, abs=1e-9)


def test_rate_query_validation():
    with pytest.raises(ScenarioError):
        RateQuery(rate_target=-0.1)
    with pytest.raises(ScenarioError):
        RateQuery(rate_target=0.1, series_tolerance=0.0)


@pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan], ids=["zero", "negative", "nan"])
def test_rate_query_rejects_a_tolerance_no_series_can_meet(tol):
    # no term or tail bound is ever below a NaN: the series would not end
    with pytest.raises(ScenarioError, match=re.escape(f"series_tolerance must be finite and > 0 (got {tol})")):
        RateQuery(rate_target=0.1, series_tolerance=tol)


def test_rate_query_refuses_an_infinite_tolerance():
    # Every term and tail bound is below inf, so the series would stop at
    # its first term: 0.3041 for 0.8648 on rate-surface at rho = (1, 1).
    with pytest.raises(ScenarioError, match=r"series_tolerance must be finite and > 0 \(got inf\)"):
        RateQuery(rate_target=0.1, series_tolerance=math.inf)


def test_rate_ccdf_tail_bound_is_honest():
    # truncated value plus rigorous tail bound must bracket a much more
    # precise evaluation of the same series
    sc = scenario(lams=(1.0, 2.0), powers=(1.0, 0.01), lam_u=100.0)
    coarse_q = RateQuery(rate_target=0.1, series_tolerance=1e-4)
    fine_q = RateQuery(rate_target=0.1, series_tolerance=1e-12)
    coarse = rate_ccdf(sc, [1.0, 1.0], coarse_q)
    fine = rate_ccdf(sc, [1.0, 1.0], fine_q)
    assert abs(coarse - fine) < 2e-4


def _three_tier():
    return scenario(lams=(1.0, 5.0, 20.0), powers=(1.0, 0.1, 0.01), lam_u=30.0,
                    mus=(2.0, 1.0, 0.5), batteries=(10, 8, 5),
                    shadowing=ShadowingSpec(1.0, 4.0))


def _lane_scenarios():
    named = {name: load_scenario(str(SCENARIOS / f"{name}.json"))[0]
             for name in ("two-tier-baseline", "battery-sweep", "gamma-rich",
                          "rate-surface")}
    return {**named, "three-tier": _three_tier()}


def _stack(rng, k_tiers, rows=7):
    rho = rng.uniform(0.0, 1.0, (rows, k_tiers))
    rho[0, 0] = 0.0         # rows with a zero component
    rho[1, -1] = 0.0
    rho[2] = 1.0
    return rho


@pytest.mark.parametrize("name", ["two-tier-baseline", "battery-sweep", "gamma-rich",
                                  "rate-surface", "three-tier"])
def test_rate_lanes_equal_scalar_calls(name):
    sc = _lane_scenarios()[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    for t in (1e-3, 0.02, 0.3, 4.0):
        for tol in (1e-6, 1e-10, 1e-13):
            rho = _stack(rng, sc.k_tiers)
            q = RateQuery(rate_target=t, series_tolerance=tol)
            lanes = rate_ccdf(sc, rho, q)
            assert isinstance(lanes, np.ndarray) and lanes.shape == (len(rho),)
            assert lanes.tolist() == [rate_ccdf(sc, row, q) for row in rho], (t, tol)


def test_rate_lanes_in_many_chunks_equal_scalar_calls(monkeypatch):
    # A 256-double budget runs a 4,096-term block one lane at a time.
    sc = _lane_scenarios()["rate-surface"]
    rho = _stack(np.random.default_rng(4), 2, rows=40)
    q = RateQuery(rate_target=0.005)
    want = [rate_ccdf(sc, row, q) for row in rho]
    monkeypatch.setattr(coverage, "_LANE_BUDGET", 256)
    assert rate_ccdf(sc, rho, q).tolist() == want


def test_rate_lanes_shapes_and_zero_target():
    sc = scenario(lam_u=50.0)
    q = RateQuery(rate_target=0.2)
    assert isinstance(rate_ccdf(sc, [0.7, 0.4], q), float)
    assert rate_ccdf(sc, [[0.7, 0.4]], q).tolist() == [rate_ccdf(sc, [0.7, 0.4], q)]
    assert rate_ccdf(sc, np.empty((0, 2)), q).shape == (0,)
    assert rate_ccdf(sc, [[0.7, 0.4], [0.1, 0.0]],
                     RateQuery(rate_target=0.0)).tolist() == [1.0, 1.0]


@pytest.mark.parametrize("rho", [[0.7, 0.4], [[0.0, 1.0], [0.7, 0.4], [0.2, 0.1]]],
                         ids=["scalar", "lanes"])
def test_rate_series_opens_no_block_past_the_zero_coverage_cut(rho, monkeypatch):
    # At the least positive tolerance a lane may end only where its terms
    # and tail bound are exactly 0, as they are once T(n + 1) > _MAX_EXPO:
    # no block of terms starts past that cut.
    sc = scenario(lam_u=50.0)
    t = 0.05
    starts = []
    block = coverage._series_block

    def spy(t_rate, alpha, start, size):
        starts.append(start)
        return block(t_rate, alpha, start, size)

    # The spy sits outside the memo, so it sees the blocks a warm memo serves.
    monkeypatch.setattr(coverage, "_series_block", spy)
    tiny = rate_ccdf(sc, rho, RateQuery(rate_target=t, series_tolerance=5e-324))
    assert starts and t * max(starts) <= coverage._MAX_EXPO
    monkeypatch.undo()
    assert np.allclose(tiny, rate_ccdf(sc, rho, RateQuery(rate_target=t)), rtol=0, atol=1e-9)


def _surface_at_alpha_398():
    sc = replace(_lane_scenarios()["rate-surface"], path_loss_exp=3.98)
    grid = np.linspace(0.1, 1.0, 10)
    rho = np.column_stack((np.repeat(grid, grid.size), np.tile(grid, grid.size)))
    return sc, rho, RateQuery(rate_target=0.1)


def test_scalar_surface_equals_lane_call_with_the_block_memo_cold_and_warm():
    sc, rho, q = _surface_at_alpha_398()
    coverage._series_block.cache_clear()
    lanes = rate_ccdf(sc, rho, q).tolist()
    cold = []
    for row in rho:
        coverage._series_block.cache_clear()
        cold.append(rate_ccdf(sc, row, q))
    coverage._series_block.cache_clear()
    warm = [rate_ccdf(sc, row, q) for row in rho]
    assert coverage._series_block.cache_info().hits > 0
    assert cold == lanes and warm == lanes


def test_scalar_surface_calls_hyper_f_once_per_block_and_once_per_coverage(monkeypatch):
    sc, rho, q = _surface_at_alpha_398()
    blocks, scalars = [], []
    real = coverage.hyper_f

    def spy(beta, alpha):
        if np.ndim(beta):
            blocks.append((beta[0], beta.size, alpha))
        else:
            scalars.append((beta, alpha))
        return real(beta, alpha)

    monkeypatch.setattr(coverage, "hyper_f", spy)
    # The lane call opens every block the longest lane needs, once each.
    coverage._series_block.cache_clear()
    coverage._coverage.cache_clear()
    rate_ccdf(sc, rho, q)
    lane_blocks = set(blocks)
    assert len(lane_blocks) == len(blocks) >= 3 and scalars == [(sc.sir_target, 3.98)]
    # 100 scalar calls with both memos cold: P_c once for its (beta, alpha),
    # and each block the calls need once, however their first passes fall.
    coverage._series_block.cache_clear()
    coverage._coverage.cache_clear()
    blocks.clear()
    scalars.clear()
    for row in rho:
        rate_ccdf(sc, row, q)
    assert len(set(blocks)) == len(blocks) and set(blocks) >= lane_blocks
    assert scalars == [(sc.sir_target, 3.98)]


def test_series_block_memo_is_read_only_and_bounded_as_documented():
    info = coverage._series_block.cache_info()
    assert f"last {info.maxsize} blocks" in coverage._series_block.__doc__
    # The first block of full length: 64 + 128 + ... + 2,048 terms precede it.
    cov, coef = coverage._series_block(1e-3, 3.98, coverage._MAX_BLOCK - coverage._BLOCK,
                                       coverage._MAX_BLOCK)
    assert cov.nbytes + coef.nbytes == 2 * 8 * coverage._MAX_BLOCK
    assert info.maxsize * (cov.nbytes + coef.nbytes) <= 2 * 2**20
    for arr in (cov, coef):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_coverage_and_log_nb_memos_are_bounded_as_documented():
    info = coverage._coverage.cache_info()
    assert f"last {info.maxsize} (beta, alpha) pairs" in coverage._coverage.__doc__
    info = coverage._log_nb_block.cache_info()
    assert f"last {info.maxsize} blocks" in coverage._log_nb_block.__doc__
    coef = coverage._log_nb_block(coverage._MAX_BLOCK - coverage._BLOCK, coverage._MAX_BLOCK)
    assert coef.nbytes == 8 * coverage._MAX_BLOCK and info.maxsize * coef.nbytes <= 2**20
    with pytest.raises(ValueError, match="read-only"):
        coef[0] = 0.0
    # The L(n) block is shared by every (T, alpha) of the same (start, size).
    block = coverage._series_block
    assert block(0.3, 4.0, 64, 128)[1] is block(2.0, 3.5, 64, 128)[1]


def _first_ends(monkeypatch):
    """Record the end of every first pass of the rate series."""
    ends = []
    first_pass_end = coverage._first_pass_end

    def spy(*args):
        ends.append(first_pass_end(*args))
        return ends[-1]

    monkeypatch.setattr(coverage, "_first_pass_end", spy)
    return ends


@pytest.mark.parametrize("t", [0.001, 0.1, 2.0])
def test_scalar_calls_equal_a_lane_call_over_loads_from_half_to_330(t, monkeypatch):
    # One tier, x = 0.5/rho: loads 0.5 to 330 stop after 11 (x = 0.5, T = 2)
    # to 2,966 (x = 330, T = 0.001) terms.  The stack's first pass is one
    # block, while the scalar calls' first passes span up to many blocks.
    sc = NetworkScenario(tiers=(TierParams(1.0, 1.0, 1.0, 5),), path_loss_exp=3.98,
                         sir_target=1.0, user_density=1.0)
    sc = replace(sc, user_density=0.5 / coverage_prob(sc))
    rho = np.geomspace(1.0, 0.5 / 330.0, 25)[:, None]
    q = RateQuery(rate_target=t)
    ends = _first_ends(monkeypatch)
    lanes = rate_ccdf(sc, rho, q).tolist()
    assert ends == [coverage._BLOCK]
    scalar = [rate_ccdf(sc, row, q) for row in rho]
    assert [v.hex() for v in scalar] == [v.hex() for v in lanes]
    if t < 1.0:
        assert max(ends) > 4 * coverage._BLOCK


@pytest.mark.parametrize("t", [1e-3, 0.05, 0.5, 10.0])
def test_first_pass_ends_at_a_block_end_before_the_zero_coverage_cut(t):
    # However large the loads or small the tolerance, the first pass ends
    # at a block end within _LANE_BUDGET terms, and its last block starts
    # where T(n + 1) <= _MAX_EXPO, as the one-block passes do.
    x = np.geomspace(1e-3, 1e6, 40)
    log_q = coverage._pmf_logs(x)[0]
    ends = [0, *coverage._ENDS.tolist()]
    for tol in (5e-324, 1e-13, 1e-6, 0.5):
        for top in (1, 20, 40):
            end = coverage._first_pass_end(t, 3.98, x[-top:], log_q[-top:], tol)
            assert end in ends[1:] and end <= coverage._LANE_BUDGET
            assert t * ends[ends.index(end) - 1] <= coverage._MAX_EXPO, (tol, top, end)


def test_scalar_rate_surface_calls_take_one_pass(monkeypatch):
    # A scalar call opens no block past its first pass, on every point of
    # the rate-surface grid of `harvnet rate --surface` at T = 0.1; the
    # 100-lane call starts with one block, so that no lane pays for the
    # largest load's terms.
    sc = _lane_scenarios()["rate-surface"]
    grid = np.linspace(0.1, 1.0, 10)
    rho = np.column_stack((np.repeat(grid, grid.size), np.tile(grid, grid.size)))
    q = RateQuery(rate_target=0.1)
    ends = _first_ends(monkeypatch)
    rate_ccdf(sc, rho, q)
    assert ends == [coverage._BLOCK]
    block = coverage._series_block
    opened = []
    monkeypatch.setattr(coverage, "_series_block",
                        lambda *key: opened.append(key) or block(*key))
    for row in rho:
        ends.clear()
        opened.clear()
        rate_ccdf(sc, row, q)
        assert max(start + size for _, _, start, size in opened) == ends[0] > coverage._BLOCK


@pytest.mark.parametrize("rho", [[0.5], [[0.5], [1.0]]], ids=["scalar", "lanes"])
def test_rate_ccdf_rejects_a_load_past_the_float_range_before_summing(rho, monkeypatch):
    # P_c lambda_u / (rho lambda) = 1e400 overflows: its NaN terms would
    # never fall below the tolerance, so the series would not end.
    sc = NetworkScenario(tiers=(TierParams(1e-200, 1.0, 1.0, 5, ShadowingSpec(0.0, 0.0)),),
                         path_loss_exp=4.0, sir_target=1.0, user_density=1e200)
    opened = []
    monkeypatch.setattr(coverage, "_series_block", lambda *key: opened.append(key))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScenarioError, match=r"user_density=1e\+200, density=\[1e-200\]"):
            rate_ccdf(sc, rho, RateQuery(0.5))
    assert opened == []


def test_rate_lanes_reject_a_bad_row_as_its_scalar_call_does():
    sc = scenario(lam_u=50.0)
    q = RateQuery(rate_target=0.1)
    for bad in ([0.0, 0.0], [0.5, 1.5], [math.nan, 0.5]):
        with pytest.raises(ScenarioError) as scalar:
            rate_ccdf(sc, bad, q)
        with pytest.raises(ScenarioError) as lanes:
            rate_ccdf(sc, [[0.7, 0.4], bad, [0.0, 0.0]], q)
        assert str(lanes.value) == str(scalar.value)
    with pytest.raises(ScenarioError, match="shape"):
        rate_ccdf(sc, [[0.7, 0.4, 0.1]], q)


def test_zero_rate_target_checks_rho_as_a_positive_target_does():
    # T = 0 returns 1 without summing, but only for availabilities the
    # series itself would accept
    sc = scenario(lam_u=50.0)
    for bad in ([2.0, -1.0], [0.0, 0.0], [0.5, 0.5, 0.5],
                [[0.7, 0.4], [0.0, 0.0]], [[0.7, 0.4], [0.5, 1.5]], [[0.7, 0.4, 0.1]]):
        with pytest.raises(ScenarioError) as positive:
            rate_ccdf(sc, bad, RateQuery(rate_target=0.1))
        with pytest.raises(ScenarioError) as zero:
            rate_ccdf(sc, bad, RateQuery(rate_target=0.0))
        assert str(zero.value) == str(positive.value)


def test_rate_lanes_memory_stays_bounded():
    # 40,000 lanes: per-lane state is a few arrays of 40,000 x K doubles,
    # and each block's temporaries stay within 2^17 doubles per chunk.
    sc, _ = load_scenario(str(SCENARIOS / "two-tier-baseline.json"))
    grid = np.linspace(0.1, 1.0, 200)
    rho = np.column_stack((np.repeat(grid, grid.size), np.tile(grid, grid.size)))
    tracemalloc.start()
    try:
        values = rate_ccdf(sc, rho, RateQuery(rate_target=0.001))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    assert values[0] == rate_ccdf(sc, rho[0], RateQuery(rate_target=0.001))


def test_log_nb_table_rows_equal_one_row_tables():
    first = np.array([0, 64, 640, 4096, 65536])
    table = _log_nb_table(first)
    for row, f in zip(table, first):
        assert row.tolist() == _log_nb_table(np.array([f]))[0].tolist()
    n = np.array([0, 5, 63, 64, 700, 4100, 65600])
    # An error e in L(n) is a relative error e in the load pmf.
    want = [math.lgamma(k + 4.5) - math.lgamma(4.5) - math.lgamma(k + 1.0) for k in n]
    assert coverage._log_nb_coef(n) == pytest.approx(want, rel=0, abs=1e-11)


def test_fsum_rate_oracle_agrees_with_mpmath_series():
    sc = _lane_scenarios()["two-tier-baseline"]
    for s, rho, t in ((sc, [0.6, 0.8], 0.1), (replace(sc, user_density=10.0), [1.0, 0.3], 0.5),
                      (replace(sc, path_loss_exp=3.5), [0.6, 0.8], 0.01),
                      (_three_tier(), [0.2, 0.0, 0.9], 0.3)):
        assert fsum_rate_ccdf(s, rho, t) == pytest.approx(
            mp_rate_ccdf(s, rho, t), abs=1e-14)


@pytest.mark.parametrize("name", ["two-tier-baseline", "rate-surface", "alpha-3.5"])
def test_rate_ccdf_matches_fsum_oracle_over_wide_load_and_threshold(name):
    if name == "alpha-3.5":
        base = replace(_lane_scenarios()["two-tier-baseline"], path_loss_exp=3.5)
    else:
        base = _lane_scenarios()[name]
    rho = np.array([[0.6, 0.8], [1.0, 0.3]])
    for lam_u in (1.0, 1e2, 1e3, 1e4, 1e5):
        sc = replace(base, user_density=lam_u)
        for t in (1e-4, 1e-3, 1e-2, 0.1, 1.0, 4.0):
            want = [fsum_rate_ccdf(sc, row, t) for row in rho]
            q = RateQuery(rate_target=t)
            assert rate_ccdf(sc, rho, q) == pytest.approx(want, rel=0, abs=1e-9), (lam_u, t)
            assert [rate_ccdf(sc, row, q) for row in rho] == pytest.approx(
                want, rel=0, abs=1e-9), (lam_u, t)


@pytest.mark.parametrize("alpha", [4.0, 3.5])
@pytest.mark.parametrize("t", [0.001, 0.1, 2.0])
def test_g_series_is_non_increasing_in_the_load_and_exact_at_zero(t, alpha):
    # G_T decreases in x: c_T(n) decreases in n and NB(4.5, x/(3.5+x)) is
    # stochastically increasing in x.  Each value is within tol of G_T.
    tol = 1e-10
    x = np.concatenate(([0.0], np.logspace(-6, 4, 121), [0.0]))
    g = coverage._g_series(t, alpha, x, tol)
    assert np.diff(g[:-1]).max() <= 2 * tol
    c0 = coverage._series_block(t, alpha, 0, coverage._BLOCK)[0][0]
    assert g[0] == g[-1] == c0
    assert c0 == pytest.approx(1.0 / (1.0 + hyper_f(2.0**t - 1.0, alpha)), rel=1e-15)


def test_rate_ccdf_of_an_underflowing_load_is_the_first_coverage_factor():
    # P_c lambda_u = 0.2 x 5e-324 rounds to 0: every load is 0, all the
    # load mass sits on n = 0, and one tier has A = 1 exactly.
    sc = scenario(beta=10.0, lams=(1.0,), powers=(1.0,), lam_u=5e-324, mus=(2.0,),
                  batteries=(10,))
    assert coverage_prob(sc) * sc.user_density == 0.0
    for t in (0.001, 0.1, 2.0):
        c0 = coverage._series_block(t, 4.0, 0, coverage._BLOCK)[0][0]
        assert rate_ccdf(sc, [0.5], RateQuery(rate_target=t)) == c0


def test_rate_ccdf_ignores_the_load_of_a_tier_no_user_associates_with():
    # At rho = (0, 1), tier 0's load P_c lambda_u w_0 / D is past the float
    # range, but A_0 = 0: the rate is the one-tier rate of tier 1.
    small = TierParams(1e-10, 1e-300, 1.0, 5, ShadowingSpec(0.0, 0.0))
    one = NetworkScenario(tiers=(small,), path_loss_exp=4.0, sir_target=1.0,
                          user_density=100.0)
    two = replace(one, tiers=(TierParams(1.0, 1e300, 1.0, 5, ShadowingSpec(0.0, 0.0)), small))
    for t in (0.001, 0.1, 2.0):
        q = RateQuery(rate_target=t)
        assert rate_ccdf(two, [0.0, 1.0], q) == rate_ccdf(one, [1.0], q) > 0.0, t


def test_equal_weights_give_the_rate_of_d_alone():
    # two-tier-baseline has w = (1, 1), so every tier's load is
    # P_c lambda_u / D and P(R > T) = G_T(x(D)); these rows all have D = 3.5.
    sc = _lane_scenarios()["two-tier-baseline"]
    rho = np.array([[1.0, 0.25], [0.375, 0.3125], [0.0625, 0.34375]])
    assert ((rho * sc.densities()).sum(axis=1) == 3.5).all()
    for t in (0.001, 0.1, 2.0):
        got = rate_ccdf(sc, rho, RateQuery(rate_target=t))
        assert np.ptp(got) <= 1e-15, t


@pytest.mark.parametrize("name, rho", [("battery-sweep", [1e-6, 1.0]),
                                       ("battery-sweep", [1.0, 1e-6]),
                                       ("rate-surface", [1e-6, 1.0])])
def test_rate_ccdf_with_a_lightly_used_tier_matches_fsum_oracle(name, rho):
    # A tier with A_k near 0 stops on its own load's tail bound, where a
    # mixture of the tiers' pmfs would stop on the mixture's.
    sc = _lane_scenarios()[name]
    for t in (0.001, 0.02, 0.1, 0.5, 2.0):
        q = RateQuery(rate_target=t)
        got = rate_ccdf(sc, rho, q)
        assert got == pytest.approx(fsum_rate_ccdf(sc, rho, t), rel=0, abs=1e-9), t
        other = rate_ccdf(sc, [0.5, 0.5], q)
        assert rate_ccdf(sc, [rho, [0.5, 0.5], rho], q).tolist() == [got, other, got], t


# D = sum_k rho_k lambda_k w_k is formed by coverage._on_terms alone; every
# layer that reads rho through D reads the same bits.

def _seeded_rho(name, k_tiers, rows=200):
    return _stack(np.random.default_rng(sum(map(ord, name)) + 1), k_tiers, rows=rows)


@pytest.mark.parametrize("name", ["two-tier-baseline", "battery-sweep", "gamma-rich",
                                  "rate-surface", "three-tier"])
def test_energy_utilization_is_the_load_rate_ccdf_sums(name, monkeypatch):
    sc = _lane_scenarios()[name]
    rho = _seeded_rho(name, sc.k_tiers)
    loads = []
    series = coverage._g_series

    def spy(t_rate, alpha, x, tol):
        loads.append(x.copy())
        return series(t_rate, alpha, x, tol)

    monkeypatch.setattr(coverage, "_g_series", spy)
    for row in rho:
        rate_ccdf(sc, row, RateQuery(rate_target=0.1))
    monkeypatch.undo()
    # A tier with rho_k = 0 has A_k = 0, and its load is handed over as 0.
    for row, x in zip(rho, loads):
        for k in np.flatnonzero(row):
            assert analytic.energy_utilization(sc, row, k) == x[k], (row, k)


@pytest.mark.parametrize("name", ["two-tier-baseline", "battery-sweep", "gamma-rich",
                                  "rate-surface", "three-tier"])
def test_service_area_and_load_ratio_read_d_from_the_one_map(name):
    sc = _lane_scenarios()[name]
    _, slope = analytic._tier_constants(sc)
    for row in _seeded_rho(name, sc.k_tiers):
        d = coverage._on_terms(sc, row)[1]
        for k in range(sc.k_tiers):
            assert analytic.mean_service_area(sc, row, k) == sc.tier_weights()[k] / d
            assert analytic.load_ratio(sc, row, k) == slope[k] * d


@pytest.mark.parametrize("name", ["battery-sweep", "three-tier"])
def test_a_lanes_d_and_region_verdict_do_not_depend_on_its_stack(name, monkeypatch):
    sc = _lane_scenarios()[name]
    rho = _seeded_rho(name, sc.k_tiers, rows=1000)
    ratios = []
    fractions = markov._on_fractions

    def spy(s, plan, with_b=True):
        ratios.append(np.array(s, dtype=float).T)      # tier-major, one row per lane
        return fractions(s, plan, with_b)

    # The load ratios that region._inside tests, in the stack and lane by lane.
    monkeypatch.setattr(markov, "_on_fractions", spy)
    stacked = region._inside(sc, rho, None)
    stacked_s, ratios[:] = np.concatenate(ratios), []
    alone = [bool(region._inside(sc, row[None, :], None)[0]) for row in rho]
    monkeypatch.undo()
    alone_s = np.concatenate(ratios)
    assert stacked.tolist() == alone
    assert stacked_s.tolist() == alone_s.tolist()
    d = coverage._on_terms(sc, rho)[1]
    assert d.tolist() == [coverage._on_terms(sc, row)[1] for row in rho]
