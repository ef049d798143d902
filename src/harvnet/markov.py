"""Birth-death CTMC machinery for the per-BS energy queue.

The energy level of a single BS evolves as a birth-death chain on states
0..N: energy units arrive at the harvest rate mu and, while the BS is ON,
depart at the utilization rate nu.  Everything downstream (availabilities,
recharge policies, the S(1) optimality check) reduces to the stationary
distribution of this chain and the mean time to hit level 0, both available
in closed form through the ratio r = mu/nu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ScenarioError, SimEstimate

# z quantile for two-sided 99% confidence intervals.
_Z99 = 2.5758293035489004


@dataclass(frozen=True)
class BirthDeathSpec:
    """(mu, nu, N): harvest rate, utilization rate, battery capacity."""

    harvest_rate: float
    utilization_rate: float
    battery: int

    def __post_init__(self):
        if not self.harvest_rate > 0:
            raise ScenarioError(f"harvest_rate must be > 0 (got {self.harvest_rate})")
        if not self.utilization_rate > 0:
            raise ScenarioError(
                f"utilization_rate must be > 0 (got {self.utilization_rate})")
        if not (isinstance(self.battery, (int, np.integer)) and self.battery >= 1):
            raise ScenarioError(f"battery must be an integer >= 1 (got {self.battery})")

    @property
    def ratio(self) -> float:
        return self.harvest_rate / self.utilization_rate


@dataclass(frozen=True)
class PolicySpec:
    """Recharge policy S(cutoff): turn ON once the battery reaches `cutoff`.

    cutoff = 1 is Policy 1 (turn ON at the first harvested unit); cutoff = N
    is Policy 2 (wait for a full battery).
    """

    cutoff: int = 1

    def check(self, spec: BirthDeathSpec) -> None:
        if not (isinstance(self.cutoff, (int, np.integer))
                and 1 <= self.cutoff <= spec.battery):
            raise ScenarioError(
                f"cutoff must be an integer in [1, {spec.battery}] (got {self.cutoff})")


def generator(spec: BirthDeathSpec) -> np.ndarray:
    """(N+1)x(N+1) CTMC generator, states ordered by energy level 0..N."""
    n = spec.battery
    mu, nu = spec.harvest_rate, spec.utilization_rate
    a = np.zeros((n + 1, n + 1))
    idx = np.arange(n)
    a[idx, idx + 1] = mu          # births: harvest one unit
    a[idx + 1, idx] = nu          # deaths: serve users, only above level 0
    a[np.arange(n + 1), np.arange(n + 1)] = -a.sum(axis=1)
    return a


def stationary(spec: BirthDeathSpec) -> np.ndarray:
    """Stationary distribution pi_i proportional to r^i, computed in log space."""
    n = spec.battery
    logw = np.arange(n + 1) * math.log(spec.ratio)
    w = np.exp(logw - logw.max())
    return w / w.sum()


def neg_b_inverse_entry(spec: BirthDeathSpec, i: int, j: int) -> float:
    """Entry (i, j) of (-B)^-1 where B is the generator minus row/column 0.

    Closed form: (1/nu) * sum_{n=1}^{min(i,j)} r^(j-n), the ratio form of
    nu^-j sum mu^(j-n) nu^(n-1).
    """
    n = spec.battery
    if not (1 <= i <= n and 1 <= j <= n):
        raise ScenarioError(f"indices must lie in [1, {n}] (got i={i}, j={j})")
    r = spec.ratio
    m = min(i, j)
    with np.errstate(over="ignore"):
        powers = r ** (j - np.arange(1, m + 1, dtype=float))
    return float(powers.sum() / spec.utilization_rate)


def neg_b_inverse(spec: BirthDeathSpec) -> np.ndarray:
    """Full NxN matrix of neg_b_inverse_entry, vectorized.

    M[i, j] = (1/nu) * r^(j-m) * S_m with m = min(i, j); the partial sums
    S_m come from a cumulative sum of powers, which is exact at r = 1.
    """
    n = spec.battery
    r = spec.ratio
    with np.errstate(over="ignore"):
        s = np.cumsum(r ** np.arange(n, dtype=float))         # s[m-1] = S_m
        ii = np.arange(1, n + 1)
        m = np.minimum.outer(ii, ii)
        mat = r ** (ii[None, :] - m) * s[m - 1] / spec.utilization_rate
    return mat


def _passage_sum(s, battery: int, cutoff: int) -> np.ndarray:
    """sum_(n=N-c+1..N) S_n, S_n = 1 + s + ... + s^(n-1), vectorized over s.

    S_m = expm1(m log s)/expm1(log s) is exact near s = 0 and s = 1; the
    partial sums F_m of the first m terms double as F_2m = (1 + s^m) F_m +
    m S_m, positive terms only, in O(log c) steps.  Overflows to inf.
    """
    s = np.asarray(s, dtype=float)
    first = battery - cutoff + 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_s, unit = np.log(s), s == 1.0
        em = np.expm1(log_s)

        def geo(m):
            return np.where(unit, float(m), np.expm1(m * log_s) / em)

        m, total = 1, geo(first)
        for bit in bin(cutoff)[3:]:
            s_m = geo(m)            # 1 + s^m = 2 + (s - 1) S_m
            total = (2.0 + em * s_m) * total + m * s_m
            m *= 2
            if bit == "1":
                total = total + geo(first + m)
                m += 1
    return total


def mean_on_time(spec: BirthDeathSpec, start_level: int) -> float:
    """E[J1(i)]: mean time for the ON chain to hit level 0 from level i.

    Row sum of (-B)^-1: falling from level j to j-1 takes S_(N-j+1)/nu on
    average, S_m = 1 + r + ... + r^(m-1).  For start_level=1 this is the
    Policy-1 form (1/nu)(1-r^N)/(1-r); for start_level=N it matches the
    Policy-2 closed form.  Overflows to inf where the value exceeds doubles.
    """
    n, i = spec.battery, start_level
    if not (isinstance(i, (int, np.integer)) and 1 <= i <= n):
        raise ScenarioError(f"start_level must be in [1, {n}] (got {i})")
    return float(_passage_sum(spec.ratio, n, i) / spec.utilization_rate)


def mean_off_time(spec: BirthDeathSpec, policy: PolicySpec) -> float:
    """E[J2]: mean OFF time, i.e. time to harvest `cutoff` units from empty."""
    policy.check(spec)
    return policy.cutoff / spec.harvest_rate


def tier_availability(s, battery: int, cutoff: int = 1):
    """Long-run ON fraction of the battery chain under S(cutoff), vectorized.

    `s` is the load ratio mu/nu.  An ON period lasts E[J1(c)] (see
    mean_on_time) and an OFF period c/mu, so the fraction is x/(1 + x) with
    x = mu E[J1(c)]/c; under S(1) this is the stationary ON probability
    g = s (1 - s^N)/(1 - s^(N+1)).
    """
    if not (isinstance(battery, (int, np.integer))
            and isinstance(cutoff, (int, np.integer)) and 1 <= cutoff <= battery):
        raise ScenarioError(f"need integers 1 <= cutoff <= battery "
                            f"(got cutoff={cutoff}, battery={battery})")
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ScenarioError(f"load ratio must be nonnegative (got {s})")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = s * _passage_sum(s, battery, cutoff) / cutoff
        return np.where(x > 1.0, 1.0 / (1.0 + 1.0 / x), x / (1.0 + x))


def policy_availability(spec: BirthDeathSpec, policy: PolicySpec) -> float:
    """Long-run ON fraction under S(cutoff): 1/(1 + cutoff/(mu E[J1(cutoff)]))."""
    policy.check(spec)
    return float(tier_availability(spec.ratio, spec.battery, policy.cutoff))


def verify_s1_optimal(spec: BirthDeathSpec) -> int:
    """argmax over i of E[J1(i)]/i; equals 1 because the ratio is decreasing.

    Works in log space through the level-passage decomposition
    E[J1(i)] = (1/nu) sum_{j<=i} S_(N-j+1), so battery/ratio combinations
    whose hitting times overflow doubles still compare correctly.  Ties
    below 1e-10 relative (the ratio flattens to float resolution for
    r far from 1) resolve to the smallest level.
    """
    n = spec.battery
    logr = math.log(spec.ratio)
    # log S_m for m = 1..N via cumulative log-sum-exp of the power series
    log_s = np.logaddexp.accumulate(np.arange(n, dtype=float) * logr)
    # log E[J1(i)] accumulates the per-level descent times S_(N-j+1)/nu
    log_e = np.logaddexp.accumulate(log_s[::-1]) - math.log(
        spec.utilization_rate)
    log_ratio = log_e - np.log(np.arange(1, n + 1, dtype=float))
    best = log_ratio.max()
    return int(np.argmax(log_ratio >= best - 1e-10)) + 1


def simulate_on_off(spec: BirthDeathSpec, policy: PolicySpec, cycles: int,
                    seed: int = 0) -> SimEstimate:
    """Estimate availability from `cycles` regenerative ON/OFF cycles.

    ON periods run the exact jump chain (exponential clocks, birth rate mu
    except at the full battery, death rate nu) from the cutoff level until
    level 0, vectorized across cycles.  OFF periods are birth-only, so their
    duration is Erlang(cutoff, mu), drawn directly.  The estimate is
    sum(ON)/(sum(ON)+sum(OFF)) with a delta-method 99% CI.
    """
    policy.check(spec)
    if cycles < 2:
        raise ScenarioError(f"cycles must be >= 2 (got {cycles})")
    rng = np.random.default_rng([seed, 0x0E])
    mu, nu, n = spec.harvest_rate, spec.utilization_rate, spec.battery

    level = np.full(cycles, policy.cutoff, dtype=np.int64)
    on = np.zeros(cycles)
    idx = np.arange(cycles)
    while idx.size:
        lv = level[idx]
        full = lv == n
        rate = np.where(full, nu, mu + nu)
        on[idx] += rng.exponential(1.0, idx.size) / rate
        up = (~full) & (rng.random(idx.size) * rate < mu)
        level[idx] = lv + np.where(up, 1, -1)
        idx = idx[level[idx] > 0]
    off = rng.gamma(policy.cutoff, 1.0 / mu, cycles)

    x, y = on.mean(), off.mean()
    rho = x / (x + y)
    vx = on.var(ddof=1) / cycles
    vy = off.var(ddof=1) / cycles
    cxy = float(np.cov(on, off, ddof=1)[0, 1]) / cycles
    var = (y * y * vx + x * x * vy - 2 * x * y * cxy) / (x + y) ** 4
    return SimEstimate(mean=float(rho), ci_halfwidth_99=float(_Z99 * math.sqrt(max(var, 0.0))),
                       samples=int(cycles), seed=int(seed))
