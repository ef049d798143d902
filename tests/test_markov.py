import math
import re
import tracemalloc
from pathlib import Path
from statistics import NormalDist

import mpmath as mp
import numpy as np
import pytest
from scipy.stats import binom, ks_2samp

from harvnet import analytic, markov
from harvnet.cli import load_scenario
from harvnet.markov import (
    BirthDeathSpec,
    PolicySpec,
    _on_totals,
    generator,
    mean_off_time,
    mean_on_time,
    neg_b_inverse,
    policy_availability,
    simulate_on_off,
    stationary,
    tier_availability,
    verify_s1_optimal,
)
from harvnet.model import ScenarioError, _t99
from oracles import (
    hp_mean_on_times,
    hp_neg_b_inverse,
    jump_chain_on_times,
    level_loop_on_times,
    per_tier_on_fractions,
)


def test_generator_smallest_chain():
    a = generator(BirthDeathSpec(2.0, 3.0, 1))
    assert np.allclose(a, [[-2.0, 2.0], [3.0, -3.0]])


def test_generator_middle_row_pattern_and_zero_row_sums():
    a = generator(BirthDeathSpec(2.0, 3.0, 2))
    assert np.allclose(a[1], [3.0, -5.0, 2.0])
    rng = np.random.default_rng(7)
    for _ in range(20):
        spec = BirthDeathSpec(float(rng.uniform(0.1, 10)),
                              float(rng.uniform(0.1, 10)),
                              int(rng.integers(1, 40)))
        a = generator(spec)
        assert np.allclose(a.sum(axis=1), 0.0, atol=1e-12)
        off = a - np.diag(np.diag(a))
        assert np.all(off >= 0)


def test_stationary_uniform_at_ratio_one():
    pi = stationary(BirthDeathSpec(1.5, 1.5, 10))
    assert np.allclose(pi, 1 / 11)
    assert 1 - pi[0] == pytest.approx(10 / 11, rel=1e-12)


def test_stationary_solves_pi_q_zero():
    rng = np.random.default_rng(11)
    for _ in range(25):
        spec = BirthDeathSpec(float(rng.uniform(0.05, 20)),
                              float(rng.uniform(0.05, 20)),
                              int(rng.integers(1, 60)))
        pi = stationary(spec)
        assert pi.min() >= 0 and pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(pi @ generator(spec), 0.0, atol=1e-10)
        r = spec.ratio
        # availability 1 - pi_0 matches the closed form (1-r)/(1-r^(N+1))
        pi0 = (1 - r) / (1 - r ** (spec.battery + 1)) if abs(r - 1) > 1e-9 \
            else 1 / (spec.battery + 1)
        assert pi[0] == pytest.approx(pi0, rel=1e-9)


def test_neg_b_inverse_entries_and_dense_agreement():
    small = neg_b_inverse(BirthDeathSpec(2.0, 4.0, 3))
    assert small[0, 0] == pytest.approx(0.25)
    assert small[0, 1] == pytest.approx(2.0 / 16.0)
    rng = np.random.default_rng(23)
    for _ in range(40):
        mu = float(np.exp(rng.uniform(np.log(0.05), np.log(20))))
        nu = float(np.exp(rng.uniform(np.log(0.05), np.log(20))))
        spec = BirthDeathSpec(mu, nu, int(rng.integers(1, 40)))
        closed = neg_b_inverse(spec)
        dense = hp_neg_b_inverse(spec)
        assert np.max(np.abs(closed - dense) / np.abs(dense)) < 1e-9
        # residual check: (-B) @ closed must be the identity, with the
        # float64 matmul rounding normalized out entry by entry
        neg_b = -generator(spec)[1:, 1:]
        resid = np.abs(neg_b @ closed - np.eye(spec.battery))
        scale = np.abs(neg_b) @ np.abs(closed) + 1.0
        assert np.max(resid / scale) < 1e-12
        # one entry against its sum form (1/nu) sum_{n<=min(i,j)} r^(j-n)
        i = int(rng.integers(1, spec.battery + 1))
        j = int(rng.integers(1, spec.battery + 1))
        entry = sum(spec.ratio ** (j - n) for n in range(1, min(i, j) + 1)) / nu
        assert closed[i - 1, j - 1] == pytest.approx(entry, rel=1e-12)


def test_mean_on_time_is_row_sum_of_inverse():
    rng = np.random.default_rng(5)
    for _ in range(30):
        spec = BirthDeathSpec(float(rng.uniform(0.1, 8)),
                              float(rng.uniform(0.1, 8)),
                              int(rng.integers(1, 30)))
        rows = hp_mean_on_times(spec)
        for i in (1, spec.battery, int(rng.integers(1, spec.battery + 1))):
            assert mean_on_time(spec, i) == pytest.approx(rows[i - 1], rel=1e-9)


def test_policy1_policy2_printed_forms():
    rng = np.random.default_rng(17)
    for _ in range(30):
        mu = float(rng.uniform(0.2, 9))
        nu = float(rng.uniform(0.2, 9))
        if abs(mu / nu - 1) < 1e-3:
            nu *= 1.1
        n = int(rng.integers(1, 20))
        spec = BirthDeathSpec(mu, nu, n)
        r = mu / nu
        p1 = (1 / nu) * (1 - r ** n) / (1 - r)
        assert mean_on_time(spec, 1) == pytest.approx(p1, rel=1e-9)
        if n >= 1 and abs(mu - nu) > 1e-6:
            p2 = mu / (nu * (mu - nu)) * (1 - r ** n) / (1 - r) - n / (mu - nu)
            assert mean_on_time(spec, n) == pytest.approx(p2, rel=1e-9)


def test_mean_on_time_ratio_one_limit():
    # E[J1(i)] -> (i/nu) * (N - (i-1)/2) as r -> 1
    nu = 1.5
    spec = BirthDeathSpec(nu, nu, 10)
    assert mean_on_time(spec, 1) == pytest.approx(10 / nu, rel=1e-12)
    for i in (1, 4, 10):
        want = (i / nu) * (10 - (i - 1) / 2)
        assert mean_on_time(spec, i) == pytest.approx(want, rel=1e-12)
    # continuity across the branch: evaluate just off the limit
    for eps in (1e-7, -1e-7):
        off = BirthDeathSpec(nu * (1 + eps), nu, 10)
        assert mean_on_time(off, 7) == pytest.approx(
            mean_on_time(spec, 7), rel=1e-5)


def test_mean_on_time_increasing_and_ratio_decreasing():
    # strict monotonicity is checked on the 300-digit oracle values; the
    # float64 closed form only has to agree to rounding, since the true
    # increments drop below double resolution for ratios far from one
    rng = np.random.default_rng(31)
    for _ in range(12):
        spec = BirthDeathSpec(float(rng.uniform(0.1, 10)),
                              float(rng.uniform(0.1, 10)),
                              int(rng.integers(2, 80)))
        with mp.workdps(300):
            exact = hp_mean_on_times(spec, as_mpf=True)
            levels = range(1, spec.battery + 1)
            assert all(b > a for a, b in zip(exact, exact[1:]))
            ratios = [e / i for e, i in zip(exact, levels)]
            assert all(b < a for a, b in zip(ratios, ratios[1:]))
        vals = np.array([mean_on_time(spec, i) for i in levels])
        assert np.all(np.diff(vals) >= -1e-12 * vals[1:])


def test_verify_s1_optimal_across_regimes():
    rng = np.random.default_rng(43)
    for _ in range(50):
        spec = BirthDeathSpec(float(rng.uniform(0.05, 15)),
                              float(rng.uniform(0.05, 15)),
                              int(rng.integers(1, 100)))
        assert verify_s1_optimal(spec) == 1
    assert verify_s1_optimal(BirthDeathSpec(0.01, 1.0, 30)) == 1
    assert verify_s1_optimal(BirthDeathSpec(100.0, 1.0, 30)) == 1
    assert verify_s1_optimal(BirthDeathSpec(1.0, 1.0, 1)) == 1
    # hitting times overflow doubles here; the log-space path must still rank
    assert verify_s1_optimal(BirthDeathSpec(100.0, 0.01, 100)) == 1


def test_policy_availability_cutoff_one_matches_stationary():
    rng = np.random.default_rng(3)
    for _ in range(25):
        spec = BirthDeathSpec(float(rng.uniform(0.1, 10)),
                              float(rng.uniform(0.1, 10)),
                              int(rng.integers(1, 50)))
        on = 1.0 - stationary(spec)[0]
        assert abs(policy_availability(spec, PolicySpec(1)) - on) < 1e-12


def test_policy_availability_properties():
    # harvesting 1000x faster than use: availability within rounding of 1
    spec = BirthDeathSpec(1000.0, 1.0, 12)
    for cutoff in (1, 6, 12):
        rho = policy_availability(spec, PolicySpec(cutoff))
        assert 0.999 < rho <= 1.0
    # full-battery policy is strictly worse than S(1)
    spec = BirthDeathSpec(2.0, 1.5, 8)
    assert policy_availability(spec, PolicySpec(8)) < \
        policy_availability(spec, PolicySpec(1))
    with pytest.raises(ScenarioError):
        policy_availability(spec, PolicySpec(9))
    with pytest.raises(ScenarioError):
        policy_availability(spec, PolicySpec(0))


def test_mean_off_time_is_erlang_mean():
    spec = BirthDeathSpec(4.0, 1.0, 6)
    assert mean_off_time(spec, PolicySpec(3)) == pytest.approx(0.75)


GILLESPIE_CASES = [
    (BirthDeathSpec(2.0, 1.0, 10), PolicySpec(1)),
    (BirthDeathSpec(1.0, 1.3, 8), PolicySpec(1)),
    (BirthDeathSpec(2.0, 1.5, 6), PolicySpec(6)),
    (BirthDeathSpec(1.5, 1.5, 5), PolicySpec(3)),
]


def test_gillespie_matches_analytic_availability():
    for i, (spec, pol) in enumerate(GILLESPIE_CASES):
        est = simulate_on_off(spec, pol, cycles=60_000, seed=100 + i)
        want = policy_availability(spec, pol)
        assert est.agrees_with(want), (spec, pol, est, want)
        assert est.samples == 60_000 and est.seed == 100 + i
        assert est.ci_halfwidth_99 < 0.01


def test_confidence_intervals_miss_about_one_percent_of_the_time():
    # 400 seeds per case: the 1,600 CIs must miss the closed form as often
    # as a 99% interval may, within the binomial 99% band around 16.
    misses = 0
    for i, (spec, pol) in enumerate(GILLESPIE_CASES):
        want = policy_availability(spec, pol)
        misses += sum(not simulate_on_off(spec, pol, cycles=10_000, seed=400 * i + s)
                      .agrees_with(want) for s in range(400))
    low, high = binom.interval(0.99, 4 * 400, 0.01)
    assert low <= misses <= high, misses


def test_gillespie_is_reproducible_and_seed_sensitive():
    spec = BirthDeathSpec(2.0, 1.0, 5)
    a = simulate_on_off(spec, PolicySpec(1), cycles=2000, seed=9)
    b = simulate_on_off(spec, PolicySpec(1), cycles=2000, seed=9)
    c = simulate_on_off(spec, PolicySpec(1), cycles=2000, seed=10)
    assert a == b
    assert a.mean != c.mean


def validate_chain(name, k):
    """The battery chain `validate` samples for tier k + 1 of a bundled scenario."""
    path = Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.json"
    scenario, _ = load_scenario(str(path))
    rho = analytic.solve_availability(scenario).rho
    return BirthDeathSpec(scenario.tiers[k].harvest_rate,
                          analytic.energy_utilization(scenario, rho, k),
                          scenario.tiers[k].battery)


def test_simulate_on_off_memory_does_not_grow_with_cycles():
    # The batch count is fixed, so the peak stays flat; holding all 4e5
    # cycles of this chain at once needs about 20 MiB.
    spec = validate_chain("two-tier-baseline", 0)
    simulate_on_off(spec, PolicySpec(1), cycles=2)
    for cycles in (40_000, 400_000):
        tracemalloc.start()
        try:
            simulate_on_off(spec, PolicySpec(1), cycles=cycles, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20, (cycles, peak)


@pytest.mark.parametrize("name", ["two-tier-baseline", "gamma-rich"])
def test_batched_estimate_equals_plain_numpy_estimate(name):
    # Tier 2 has rho near 0.76 on two-tier-baseline, and 1 - rho near 4e-10
    # on gamma-rich, whose CI half-width is about 5e-12.
    spec = validate_chain(name, 1)
    for cycles in (2, 1023, 1024, 1025, 3 * 1024 + 5, 100_000):
        est = simulate_on_off(spec, PolicySpec(1), cycles=cycles, seed=5)
        batches = min(cycles, 1024)
        sizes = np.array([len(b) for b in np.array_split(np.arange(cycles), batches)])
        rng = np.random.default_rng([5, 0x0E])
        on = _on_totals(spec, 1, sizes, rng)
        off = rng.gamma(sizes, 1.0 / spec.harvest_rate)
        total = on.sum() + off.sum()
        q = off.sum() / total
        # on_i - rho (on_i + off_i), with 1 - rho = q kept to full precision
        resid = q * on - (1.0 - q) * off
        var = np.var(resid, ddof=1) * batches / total ** 2
        assert est.mean == pytest.approx(1.0 - q, rel=1e-9), cycles
        assert est.ci_halfwidth_99 == pytest.approx(_t99(batches - 1) * math.sqrt(var),
                                                    rel=1e-9), cycles
        assert est.samples == cycles


def test_batches_keep_the_expected_visits_exact(monkeypatch):
    # r = 2 from level 1 with N = 52: level 51 expects 3 2^50 visits per ON
    # period, so a batch may hold 2 cycles and 5,000 cycles need 2,500
    # batches.  Elsewhere the cycles split into min(cycles, 1024) batches.
    seen = []

    def spy(spec, cutoff, sizes, rng):
        seen.append(sizes)
        return _on_totals(spec, cutoff, sizes, rng)

    monkeypatch.setattr(markov, "_on_totals", spy)
    for spec, cycles, batches in [(BirthDeathSpec(2.0, 1.0, 52), 5000, 2500),
                                  (BirthDeathSpec(2.0, 1.0, 52), 1000, 1000),
                                  (BirthDeathSpec(0.5, 1.0, 8), 100_003, 1024),
                                  (BirthDeathSpec(0.5, 1.0, 8), 2, 2)]:
        est = simulate_on_off(spec, PolicySpec(1), cycles=cycles)
        sizes = seen.pop()
        assert sizes.size == batches and sizes.sum() == cycles == est.samples
        assert sizes.max() - sizes.min() <= 1
    assert sizes.tolist() == [1, 1]


def test_spec_validation():
    with pytest.raises(ScenarioError):
        BirthDeathSpec(0.0, 1.0, 5)
    with pytest.raises(ScenarioError):
        BirthDeathSpec(1.0, -1.0, 5)
    with pytest.raises(ScenarioError):
        BirthDeathSpec(1.0, 1.0, 0)
    with pytest.raises(ScenarioError):
        simulate_on_off(BirthDeathSpec(1.0, 1.0, 5), PolicySpec(1), cycles=1)


@pytest.mark.parametrize("make, field", [
    (lambda: BirthDeathSpec(math.inf, 1.0, 5), "harvest_rate"),
    (lambda: BirthDeathSpec(1.0, math.nan, 5), "utilization_rate"),
    (lambda: BirthDeathSpec(1.0, 1e-320, 5), "harvest_rate/utilization_rate"),   # ratio inf
    (lambda: BirthDeathSpec(1e-320, 1e10, 5), "harvest_rate/utilization_rate"),  # ratio 0
    (lambda: tier_availability(math.nan, 5), "load ratio"),
    (lambda: tier_availability(np.array([0.5, math.inf]), 5), "load ratio"),
], ids=["inf-harvest", "nan-use", "ratio-inf", "ratio-zero", "s-nan", "s-inf"])
def test_non_finite_chain_rates_are_errors(make, field):
    # once nan from policy_availability and mean_on_time, a RuntimeWarning
    # from stationary, or a bare "math domain error"
    with pytest.raises(ScenarioError, match=f"^{re.escape(field)} must be finite"):
        make()


def test_mean_on_time_overflow_saturates_availability():
    # gigantic ratio and battery: E[J1] overflows to inf, availability is 1
    spec = BirthDeathSpec(1e6, 1.0, 200)
    assert math.isinf(mean_on_time(spec, 200))
    assert policy_availability(spec, PolicySpec(200)) == 1.0


# (battery, cutoff) pairs crossed with a ratio r = mu/nu below, at and
# above 1; nu = 1.
ON_CASES = [(n, c, r) for n, c in [(1, 1), (5, 1), (6, 6), (5, 3), (12, 4)]
            for r in (0.6, 1.0, 1.4)]


def on_times(spec, cutoff, cycles, rng):
    """`cycles` ON-period lengths: the batch totals of batches of one cycle."""
    return _on_totals(spec, cutoff, np.ones(cycles, dtype=np.int64), rng)


def test_on_times_match_jump_chain_oracle():
    # two-sample KS per case, 1% family-wise over all cases
    for i, (n, c, r) in enumerate(ON_CASES):
        spec = BirthDeathSpec(r, 1.0, n)
        fast = on_times(spec, c, 4000, np.random.default_rng([7, i]))
        slow = jump_chain_on_times(spec, c, 4000, np.random.default_rng([8, i]))
        p = ks_2samp(fast, slow).pvalue
        assert p > 0.01 / len(ON_CASES), (n, c, r, p)


def test_batch_totals_match_sums_of_jump_chain_periods():
    # two-sample KS per case and batch size, 1% family-wise over all of them
    sizes = (7, 64)
    for i, (n, c, r) in enumerate(ON_CASES):
        spec = BirthDeathSpec(r, 1.0, n)
        for m in sizes:
            fast = _on_totals(spec, c, np.full(1000, m), np.random.default_rng([10, i, m]))
            slow = jump_chain_on_times(spec, c, 1000 * m, np.random.default_rng([11, i, m]))
            p = ks_2samp(fast, slow.reshape(1000, m).sum(axis=1)).pvalue
            assert p > 0.01 / (len(ON_CASES) * len(sizes)), (n, c, r, m, p)


@pytest.mark.parametrize("ratio", [0.3, 0.9, 1.0, 1.1, 2.5])
def test_on_times_skip_zero_counts_bit_for_bit(ratio):
    # Stopping the level loop once every count is 0 leaves every value and
    # the generator state as drawing for all cycles at every level.  Every
    # cutoff from 1 to N ends the counts that stay positive at a different
    # level.
    for battery in (1, 2, 7, 40):
        for cutoff in {c for c in (1, 2, battery // 2, battery - 1, battery)
                       if 1 <= c <= battery}:
            spec = BirthDeathSpec(ratio, 1.0, battery)
            seed = [battery, cutoff, int(10 * ratio)]
            fast_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            fast = on_times(spec, cutoff, 3000, fast_rng)
            loop = level_loop_on_times(spec, cutoff, 3000, loop_rng)
            assert fast.tolist() == loop.tolist(), (battery, cutoff)
            assert fast_rng.bit_generator.state == loop_rng.bit_generator.state


def test_on_time_moments_match_inverse():
    # E[T^k] from level i is entry i of k (-B)^-1 E[T^(k-1)]; the first two
    # sample moments must sit within a 99% family-wise normal bound whose
    # variances come from the exact third and fourth moments
    z = NormalDist().inv_cdf(1 - 0.005 / (2 * len(ON_CASES)))
    size = 20_000
    for i, (n, c, r) in enumerate(ON_CASES):
        spec = BirthDeathSpec(r, 1.0, n)
        inv = hp_neg_b_inverse(spec)
        m = [np.ones(n)]
        for k in range(1, 5):
            m.append(k * inv @ m[-1])
        m1, m2, m4 = m[1][c - 1], m[2][c - 1], m[4][c - 1]
        t = on_times(spec, c, size, np.random.default_rng([9, i]))
        assert abs(t.mean() - m1) <= z * math.sqrt((m2 - m1 ** 2) / size), (n, c, r)
        assert abs(np.mean(t * t) - m2) <= z * math.sqrt((m4 - m2 ** 2) / size), (n, c, r)


@pytest.mark.filterwarnings("error")
def test_simulate_on_off_rejects_unsampleable_input():
    # r = 2 from level 1: level j expects 2^(j-1) descents and 3 2^(j-1)
    # visits below the top, so the counts stay under 2^53 for N = 50 and
    # pass it for N = 55
    est = simulate_on_off(BirthDeathSpec(2.0, 1.0, 50), PolicySpec(1), cycles=100)
    assert est.mean == pytest.approx(1.0)
    for spec in (BirthDeathSpec(2.0, 1.0, 55), BirthDeathSpec(1e6, 1.0, 200)):
        with pytest.raises(ScenarioError, match=re.escape(repr(spec))):
            simulate_on_off(spec, PolicySpec(1), cycles=100)
    for cycles in (1e5, 100.0, "100"):
        with pytest.raises(ScenarioError, match="integer"):
            simulate_on_off(BirthDeathSpec(1.0, 1.0, 5), PolicySpec(1), cycles=cycles)
    for seed in (-1, 2.0, "3"):
        with pytest.raises(ScenarioError, match="seed"):
            simulate_on_off(BirthDeathSpec(1.0, 1.0, 5), PolicySpec(1), cycles=100,
                            seed=seed)


@pytest.mark.filterwarnings("error")
def test_simulate_on_off_does_not_depend_on_the_time_unit():
    # Scaling both rates scales every draw, so the estimate and its CI stay
    # put until the summed time of the cycles passes the float range; the
    # CI once read nan from rates of 1e-80 down, after overflow warnings.
    unit = simulate_on_off(BirthDeathSpec(2.0, 1.0, 5), PolicySpec(2), cycles=100_000, seed=3)
    for rate in (1e-300, 1e-160, 1e160, 1e300):
        est = simulate_on_off(BirthDeathSpec(2.0 * rate, rate, 5), PolicySpec(2),
                              cycles=100_000, seed=3)
        assert est.mean == pytest.approx(unit.mean, rel=1e-14), rate
        assert est.ci_halfwidth_99 == pytest.approx(unit.ci_halfwidth_99, rel=1e-12), rate
    with pytest.raises(ScenarioError, match="100000 cycles leaves the float range"):
        simulate_on_off(BirthDeathSpec(2e-306, 1e-306, 5), PolicySpec(2), cycles=100_000)


# Every battery up to 64 with every cutoff, so N - c + 1 = 2 and expansions
# of every length; loads at 0, at 1 and 1 ulp either side, at 1e+-300, near
# 1 and log-uniform over the whole range.
KERNEL_PAIRS = [(n, c) for n in range(1, 65) for c in range(1, n + 1)]


def kernel_loads():
    rng = np.random.default_rng(2029)
    special = [0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 1e-300, 1e300,
               5e-324, 0.5, 2.0]
    return np.concatenate([special, 1.0 + rng.uniform(-1e-6, 1e-6, 8),
                           np.exp(rng.uniform(math.log(1e-300), math.log(1e300), 40))])


def bits(v):
    return np.asarray(v, dtype=float).view(np.uint64).tolist()


def test_stacked_on_fractions_equal_single_tier_calls_bit_for_bit():
    # One K = 2080 stack, each tier's loads in its own order, against one
    # call per tier and against the per-tier formula the stack replaced.
    s = kernel_loads()
    rng = np.random.default_rng(7)
    rows = np.array([rng.permutation(s) for _ in KERNEL_PAIRS])
    n, c = zip(*KERNEL_PAIRS)
    a, b = markov._on_fractions(rows, markov._plan(n, c))
    assert np.all((a >= 0.0) & (a <= 1.0))
    for k, (n, c) in enumerate(KERNEL_PAIRS):
        a1, b1 = markov._on_fractions(rows[k][None], markov._plan((n,), (c,)))
        ref_a, ref_b = per_tier_on_fractions(rows[k], n, c)
        assert bits(a[k]) == bits(a1[0]) == bits(ref_a), (n, c)
        assert bits(b[k]) == bits(b1[0]) == bits(ref_b), (n, c)
        assert bits(tier_availability(rows[k], n, c)) == bits(ref_a), (n, c)


@pytest.mark.parametrize("battery", [1, 2, 3, 7, 10, 33, 64])
def test_on_fraction_bits_do_not_depend_on_position_or_size(battery):
    s = kernel_loads()
    for cutoff in range(1, battery + 1):
        plan = markov._plan((battery,), (cutoff,))
        a, b = markov._on_fractions(s[None], plan)
        # reversed, inside a wider 3-d block, and every load alone
        ra, rb = markov._on_fractions(s[None, ::-1], plan)
        assert bits(ra[0, ::-1]) == bits(a[0]) and bits(rb[0, ::-1]) == bits(b[0])
        wide = np.stack([np.roll(s, 3), s, s[::-1]])[None]
        wa, wb = markov._on_fractions(wide, plan)
        assert bits(wa[0, 1]) == bits(a[0]) and bits(wb[0, 1]) == bits(b[0])
        alone = [markov._on_fractions(np.array([[v]]), plan) for v in s]
        assert bits([x[0, 0] for x, _ in alone]) == bits(a[0])
        assert bits([y[0, 0] for _, y in alone]) == bits(b[0])
        assert bits([tier_availability(v, battery, cutoff) for v in s]) == bits(a[0])
