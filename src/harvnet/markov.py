"""Birth-death CTMC machinery for the per-BS energy queue.

The energy level of a single BS evolves as a birth-death chain on states
0..N: energy units arrive at the harvest rate mu and, while the BS is ON,
depart at the utilization rate nu.  Everything downstream (availabilities,
recharge policies, the S(1) optimality check) reduces to the stationary
distribution of this chain and the mean time to hit level 0, both available
in closed form through the ratio r = mu/nu.

The Monte Carlo check of those forms, simulate_on_off, samples the ON
time of a whole batch of cycles level by level, from the batch's total
number of visits to every level, so its cost grows neither with the
length of a period nor with the number of cycles in a batch: it is
O(N) draws per batch, over a fixed number of batches.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import (ScenarioError, SimEstimate, _check_integer, _check_nonnegative,
                    _check_positive, _t99)


@dataclass(frozen=True)
class BirthDeathSpec:
    """(mu, nu, N): harvest rate, utilization rate, battery capacity."""

    harvest_rate: float
    utilization_rate: float
    battery: int

    def __post_init__(self):
        for name in ("harvest_rate", "utilization_rate"):
            _check_positive(getattr(self, name), name)
        if not 0 < self.ratio < math.inf:
            raise ScenarioError(
                f"harvest_rate/utilization_rate must be finite and > 0 "
                f"(got {self.harvest_rate}/{self.utilization_rate})")
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


class _Plan:
    """What the ON-fraction kernel does for tiers with batteries N_k and cutoffs c_k.

    Tier k sums S_n over n = f_k..N_k, f_k = N_k - c_k + 1, in one step
    per bit of c_k after the leading one (_passage_sums).  `exponents`
    (P, K, 1) holds every m whose S_m an evaluation reads: f_k, per step m
    and, if a tier adds S_(f+2m), f + 2m, and c_k if any c_k > 1.  Each
    step holds the column of m, the m of every tier, which tiers take it
    (None: all) and which add S_(f+2m) from the next column (None: none).
    A tier whose expansion is shorter keeps its sum on the steps it does
    not take.  `cutoffs` is None where every c_k is 1 and nothing divides;
    `square` marks the tiers with f_k = 2 (None: none).  Per-tier values
    are (K, 1) columns, so they broadcast along a tier's loads.
    """

    def __init__(self, batteries: tuple, cutoffs: tuple):
        first = [n - c + 1 for n, c in zip(batteries, cutoffs)]
        bits = [bin(c)[3:] for c in cutoffs]
        cols, self.steps, m = [first], [], [1] * len(first)
        for j in range(max(map(len, bits))):
            take, add = [j < len(b) for b in bits], [b[j:j + 1] == "1" for b in bits]
            self.steps.append((len(cols), np.array(m, dtype=float)[:, None],
                               None if all(take) else np.array(take)[:, None],
                               np.array(add)[:, None] if any(add) else None))
            cols += [m] + [[f + 2 * i if a else 1 for f, i, a in zip(first, m, add)]] * any(add)
            m = [2 * i + a if t else i for i, a, t in zip(m, add, take)]
        self.cutoffs = np.array(cutoffs, dtype=float)[:, None] if max(cutoffs) > 1 else None
        self.exponents = np.array(cols + [cutoffs] * (self.cutoffs is not None), float)[:, :, None]
        self.square = self.exponents[0] == 2.0 if 2 in first else None


# One plan per (batteries, cutoffs), made on first use.
_plan = functools.lru_cache(maxsize=64)(_Plan)


def _passage_sums(s: np.ndarray, plan: _Plan):
    """sum_(n=N-c+1..N) S_n, S_n = 1 + s + ... + s^(n-1), for every tier row of s (K, L).

    S_m = expm1(m log s)/expm1(log s), and m at s = 1, is exact near s = 0
    and s = 1; the partial sums F_m of the first m terms double as F_2m =
    (1 + s^m) F_m + m S_m, positive terms only, in O(log c) steps.  Every
    S_m of the plan is taken in one pass, in place, as a new array of a
    wide evaluation costs more than the arithmetic on it.  Returns the
    sums, which overflow to inf, and that table of S_m, shape (P, K, L);
    the caller ignores the floating-point errors.
    """
    log_s = np.log(s)
    em = np.expm1(log_s)
    geo = plan.exponents * log_s
    np.divide(np.expm1(geo, out=geo), em, out=geo)
    np.copyto(geo, plan.exponents, where=s == 1.0)
    total = geo[0]
    for col, m, take, add in plan.steps:
        s_m = geo[col]       # 1 + s^m = 2 + (s - 1) S_m
        new = (2.0 + em * s_m) * total + m * s_m
        if add is not None:
            new += np.where(add, geo[col + 1], 0.0)
        total = new if take is None else np.where(take, new, total)
    return total, geo


def mean_on_time(spec: BirthDeathSpec, start_level: int) -> float:
    """E[J1(i)]: mean time for the ON chain to hit level 0 from level i.

    Row sum of (-B)^-1: falling from level j to j-1 takes S_(N-j+1)/nu on
    average, S_m = 1 + r + ... + r^(m-1).  For start_level=1 this is the
    Policy-1 form (1/nu)(1-r^N)/(1-r); for start_level=N it matches the
    Policy-2 closed form.  Overflows to inf where the value exceeds doubles.
    """
    _check_integer(start_level, "start_level", 1, spec.battery)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        total, _ = _passage_sums(np.array([[spec.ratio]]), _plan((spec.battery,), (start_level,)))
    return float(total[0, 0] / spec.utilization_rate)


def mean_off_time(spec: BirthDeathSpec, policy: PolicySpec) -> float:
    """E[J2]: mean OFF time, i.e. time to harvest `cutoff` units from empty."""
    _check_integer(policy.cutoff, "cutoff", 1, spec.battery)
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
    s = _check_nonnegative(s, "load ratio")
    return _on_fractions(s[None], _plan((battery,), (cutoff,)), with_b=False)[0, ...]


def _on_fractions(s: np.ndarray, plan: _Plan, with_b: bool = True):
    """(a, b) for every tier of s (K, ...): the ON fraction a of tier_availability, b = 1 - a/s.

    From a = x/(1 + x), b = s^(N-c+1) S_c/(c (1 + x)) with S_c = 1 + s +
    ... + s^(c-1): positive terms only, so b keeps its relative precision
    where a/s is close to 1.  Where x or that numerator overflows, a
    rounds to 1 and b = 1 - 1/s.  Without `with_b`, a alone.  Row k of s
    holds tier k's loads, so every per-tier value broadcasts along a row;
    each value has the bits of its tier's call alone, wherever it sits.
    """
    # C order, so that a tier's loads are the inner loop of every ufunc.
    shape, s = s.shape, np.ascontiguousarray(s.reshape(plan.exponents.shape[1], -1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        total, geo = _passage_sums(s, plan)
        x = s * total if plan.cutoffs is None else s * total / plan.cutoffs
        one_x = 1.0 + x
        a = np.where(x > 1.0, 1.0 / (1.0 + 1.0 / x), x / one_x).reshape(shape)
        if not with_b:
            return a
        top = np.power(s, plan.exponents[0])
        if plan.square is not None:   # pow may differ from s * s in the last bit
            np.copyto(top, s * s, where=plan.square)
        if plan.cutoffs is not None:
            top = top * np.where(plan.cutoffs > 1.0, geo[-1], 1.0) / plan.cutoffs
        b = np.where(np.maximum(x, top) < math.inf, top / one_x, 1.0 - 1.0 / s)
    return a, b.reshape(shape)


def policy_availability(spec: BirthDeathSpec, policy: PolicySpec) -> float:
    """Long-run ON fraction under S(cutoff): 1/(1 + cutoff/(mu E[J1(cutoff)]))."""
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


def _on_totals(spec: BirthDeathSpec, cutoff: int, sizes: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
    """Total ON time of each batch of sizes[i] cycles from `cutoff` to 0 (see simulate_on_off)."""
    mu, nu, n = spec.harvest_rate, spec.utilization_rate, spec.battery
    # A zero gamma shape or Poisson mean gives 0 without consuming bits, so
    # the loop may stop once every count above the cutoff is 0 (below it,
    # each count is at least the batch size).  `below` adds the two counts
    # one at a time, as the bits of a sum past 2^53 depend on the order.
    down = sizes
    below = np.zeros(sizes.size)
    for j in range(1, n):
        up = rng.poisson(rng.gamma(down, spec.ratio))
        below = below + down + up
        down = up + sizes * (j + 1 <= cutoff)
        if not down.any():
            break
    return rng.gamma(below, 1.0 / (mu + nu)) + rng.gamma(down, 1.0 / nu)


# Batches of simulate_on_off, the units of its confidence interval.
_BATCHES = 1024


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
    visit counts.  Negative binomials with one p add, so the cycles of a
    batch of m have level totals D_j that follow the same chain from
    D_1 = m, adding m at each level up to the cutoff, and the batch's ON
    time is the same two gamma draws over the totals: N-1 count draws per
    batch, whatever its size.  OFF periods are birth-only, so a batch's
    OFF time is Gamma(cutoff m, 1/mu).  The cycles split into
    min(cycles, _BATCHES) batches whose sizes differ by at most 1, more
    where a batch would expect over 2^53 visits to a level; all the ON
    totals are drawn, then all the OFF totals.  The estimate is
    sum(ON)/sum(ON + OFF), with a 99% Student-t CI from the batches as
    units of a ratio estimator.  Raises ScenarioError for a non-integer
    `cycles`, a negative or non-integer `seed`, for chains whose expected
    visits to a level in one ON period exceed 2^53, and where the summed
    time of the cycles passes the float range.
    """
    _check_integer(policy.cutoff, "cutoff", 1, spec.battery)
    _check_integer(cycles, "cycles", 2)
    _check_integer(seed, "seed", 0)
    r = spec.ratio
    # Counts travel as floats, so the expected visits at each level, d_j
    # (1 + r) below N and d_N at N, must stay exactly representable, for a
    # batch as for one period.
    down, most = 0.0, 1.0
    for j in range(1, spec.battery + 1):
        down = r * down + (j <= policy.cutoff)
        visits = down * (1.0 + r if j < spec.battery else 1.0)
        if not visits <= 2.0 ** 53:
            raise ScenarioError(
                f"{spec} with cutoff {policy.cutoff}: level {j} expects more than "
                f"2^53 visits per ON period, too many to sample")
        most = max(most, visits)
    batches = max(min(cycles, _BATCHES), -(-cycles // int(2.0 ** 53 // most)))
    sizes = cycles // batches + (np.arange(batches) < cycles % batches)

    rng = np.random.default_rng([seed, 0x0E])
    on = _on_totals(spec, policy.cutoff, sizes, rng)
    off = rng.gamma(policy.cutoff * sizes, 1.0 / spec.harvest_rate)
    with np.errstate(over="ignore", invalid="ignore"):
        total = on.sum() + off.sum()
    if not total < math.inf:
        raise ScenarioError(f"{spec}: the time of {cycles} cycles leaves the float range")
    rho, off_share = on.sum() / total, off.sum() / total
    # Residuals on_i - rho (on_i + off_i) over the total: a form that does
    # not cancel where rho is near 1, with no product of two totals that
    # could leave the float range.
    resid = (off_share * on - rho * off) / total
    var = (resid @ resid) * batches / (batches - 1)
    return SimEstimate(mean=float(rho),
                       ci_halfwidth_99=float(_t99(batches - 1) * math.sqrt(var)),
                       samples=int(cycles), seed=int(seed))
