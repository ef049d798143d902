"""Birth-death CTMC machinery for the per-BS energy queue.

The energy level of a single BS evolves as a birth-death chain on states
0..N: energy units arrive at the harvest rate mu and, while the BS is ON,
depart at the utilization rate nu.  Everything downstream (availabilities,
recharge policies, the S(1) optimality check) reduces to the stationary
distribution of this chain and the mean time to hit level 0, both available
in closed form through the ratio r = mu/nu.

The Monte Carlo check of those forms, simulate_on_off, samples each ON
period level by level, from the number of visits to every level, so its
cost does not grow with the length of a period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import _Z99, ScenarioError, SimEstimate, _check_integer


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
        _check_integer(self.battery, "battery", 1)

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
        _check_integer(self.cutoff, "cutoff", 1, spec.battery)


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


def neg_b_inverse(spec: BirthDeathSpec) -> np.ndarray:
    """(-B)^-1, where B is the generator without level 0's row and column.

    Entry (i, j), 1-based, is (1/nu) sum_{n=1}^{min(i,j)} r^(j-n), the
    ratio form of nu^-j sum mu^(j-n) nu^(n-1): M[i, j] = (1/nu) r^(j-m) S_m
    with m = min(i, j).  The partial sums S_m come from a cumulative sum of
    powers, which is exact at r = 1.
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
    _check_integer(start_level, "start_level", 1, spec.battery)
    return float(_passage_sum(spec.ratio, spec.battery, start_level)
                 / spec.utilization_rate)


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
    _check_integer(battery, "battery", 1)
    _check_integer(cutoff, "cutoff", 1, battery)
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


def _on_times(spec: BirthDeathSpec, cutoff: int, cycles: int,
              rng: np.random.Generator) -> np.ndarray:
    """`cycles` ON-period lengths from level `cutoff` to 0 (see simulate_on_off)."""
    mu, nu, n = spec.harvest_rate, spec.utilization_rate, spec.battery
    r = spec.ratio
    # Counts travel as floats, so the expected visits at each level, d_j
    # (1 + r) below N and d_N at N, must stay exactly representable.
    down = 0.0
    for j in range(1, n + 1):
        down = r * down + (j <= cutoff)
        if not down * (1.0 + r if j < n else 1.0) <= 2.0 ** 53:
            raise ScenarioError(
                f"{spec} with cutoff {cutoff}: level {j} expects more than "
                f"2^53 visits per ON period, too many to sample")

    # Gamma and Poisson draws are taken only where the count is positive:
    # a zero shape or mean gives 0 without consuming bits, so the values and
    # the generator state are those of drawing every cycle.
    down = np.ones(cycles, dtype=np.int64)
    below = np.zeros(cycles)
    for j in range(1, n):
        live = down > 0
        up = np.zeros(cycles, dtype=np.int64)
        up[live] = rng.poisson(rng.gamma(down[live], r))
        below += down
        below += up
        down = up + (j + 1 <= cutoff)
    return rng.gamma(below, 1.0 / (mu + nu)) + rng.gamma(down, 1.0 / nu)


def simulate_on_off(spec: BirthDeathSpec, policy: PolicySpec, cycles: int,
                    seed: int = 0) -> SimEstimate:
    """Estimate availability from `cycles` regenerative ON/OFF cycles.

    Each ON period is sampled exactly, level by level.  Let d_j count its
    descents j -> j-1; d_1 = 1.  Below the full level N a visit ends upward
    with probability mu/(mu+nu), so given d_j the up-moves out of j are
    u_j ~ NegBin(d_j, nu/(mu+nu)), drawn as a gamma-Poisson mixture so that
    d_j = 0 works, and d_(j+1) = u_j + [j+1 <= cutoff].  Level N is left
    only downward, so it has d_N visits.  Visits below N hold Exp(mu+nu)
    and visits at N Exp(nu), so the period is two gamma draws over the
    visit counts: N-1 count draws per cycle, whatever the period's length.
    OFF periods are birth-only, so their duration is Erlang(cutoff, mu).
    The estimate is sum(ON)/(sum(ON)+sum(OFF)) with a delta-method 99% CI.
    Raises ScenarioError for a non-integer `cycles`, a negative or
    non-integer `seed`, and for chains whose expected visits to a level
    exceed 2^53.
    """
    policy.check(spec)
    _check_integer(cycles, "cycles", 2)
    _check_integer(seed, "seed", 0)
    rng = np.random.default_rng([seed, 0x0E])
    on = _on_times(spec, policy.cutoff, cycles, rng)
    off = rng.gamma(policy.cutoff, 1.0 / spec.harvest_rate, cycles)

    x, y = on.mean(), off.mean()
    rho = x / (x + y)
    vx = on.var(ddof=1) / cycles
    vy = off.var(ddof=1) / cycles
    cxy = float(np.cov(on, off, ddof=1)[0, 1]) / cycles
    var = (y * y * vx + x * x * vy - 2 * x * y * cxy) / (x + y) ** 4
    return SimEstimate(mean=float(rho), ci_halfwidth_99=float(_Z99 * math.sqrt(max(var, 0.0))),
                       samples=int(cycles), seed=int(seed))
