import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

from harvnet.analytic import solve_availability
from harvnet.cli import load_scenario
from harvnet.coverage import (
    RateQuery,
    SeriesTruncationError,
    coverage_prob,
    hyper_f,
    load_pmf,
    rate_ccdf,
    tier_association_prob,
)
from harvnet.model import NetworkScenario, ScenarioError, ShadowingSpec, TierParams
from oracles import mp_hyper_f, mp_load_pmf, mp_rate_ccdf

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
    with pytest.raises(SeriesTruncationError):
        rate_ccdf(sc, [1.0, 1.0], RateQuery(rate_target=t, max_terms=2000))
    want = mp_rate_ccdf(sc, [1.0, 1.0], t, tol=1e-12)
    assert rate_ccdf(sc, [1.0, 1.0], RateQuery(rate_target=t)) == pytest.approx(
        want, abs=1e-9)


def test_rate_ccdf_truncation_error_reports_state():
    sc = scenario(lam_u=50.0)
    with pytest.raises(SeriesTruncationError) as err:
        rate_ccdf(sc, [0.7, 0.4], RateQuery(rate_target=0.05, max_terms=3))
    exc = err.value
    assert exc.terms == 3
    assert 0.0 < exc.partial_sum < 1.0
    assert exc.tail_bound > 0.0


def test_rate_query_validation():
    with pytest.raises(ScenarioError):
        RateQuery(rate_target=-0.1)
    with pytest.raises(ScenarioError):
        RateQuery(rate_target=0.1, series_tolerance=0.0)
    with pytest.raises(ScenarioError):
        RateQuery(rate_target=0.1, max_terms=0)


def test_rate_ccdf_tail_bound_is_honest():
    # truncated value plus rigorous tail bound must bracket a much more
    # precise evaluation of the same series
    sc = scenario(lams=(1.0, 2.0), powers=(1.0, 0.01), lam_u=100.0)
    coarse_q = RateQuery(rate_target=0.1, series_tolerance=1e-4)
    fine_q = RateQuery(rate_target=0.1, series_tolerance=1e-12, max_terms=5000)
    coarse = rate_ccdf(sc, [1.0, 1.0], coarse_q)
    fine = rate_ccdf(sc, [1.0, 1.0], fine_q)
    assert abs(coarse - fine) < 2e-4
