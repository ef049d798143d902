"""Reference computations that share no code with harvnet.

Every function here is written from the model's equations alone, so the
benchmark can check the program's outputs against something the program
did not compute.  `self_check()` tests each oracle against a second,
independent derivation and runs before any timing starts.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.special import gammaln, hyp2f1

MP_DPS = 40
_LN10_OVER_5 = math.log(10.0) / 5.0


# --- coverage constant ---------------------------------------------------

def coverage_f_mp(beta: float, alpha: float) -> mp.mpf:
    """F(beta, alpha) = (2 beta/(alpha-2)) 2F1(1, 1-2/a; 2-2/a; -beta), in mpmath."""
    with mp.workdps(MP_DPS):
        b, a = mp.mpf(beta), mp.mpf(alpha)
        if b == 0:
            return mp.mpf(0)
        return 2 * b / (a - 2) * mp.hyp2f1(1, 1 - 2 / a, 2 - 2 / a, -b)


def coverage_prob(beta: float, alpha: float) -> float:
    """P_c = 1/(1 + F(beta, alpha)) from the mpmath hypergeometric function."""
    with mp.workdps(MP_DPS):
        return float(1 / (1 + coverage_f_mp(beta, alpha)))


def coverage_f_fast(beta, alpha: float) -> np.ndarray:
    """F(beta, alpha) from scipy's hyp2f1, vectorized over beta."""
    beta = np.asarray(beta, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        f = 2.0 * beta / (alpha - 2.0) * hyp2f1(
            1.0, 1.0 - 2.0 / alpha, 2.0 - 2.0 / alpha, -beta)
    return np.where(np.isinf(beta), np.inf, f)


# --- per-tier association weights ----------------------------------------

def tier_weight(tx_power: float, mean_db: float, std_db: float,
                alpha: float) -> float:
    """E[X^(2/alpha)] P^(2/alpha) for lognormal shadowing X given in dB."""
    mu = _LN10_OVER_5 * mean_db / alpha
    sd = _LN10_OVER_5 * std_db / alpha
    return math.exp(mu + 0.5 * sd * sd) * tx_power ** (2.0 / alpha)


# --- battery-chain availability ------------------------------------------

def g_on(s, battery: int) -> np.ndarray:
    """Stationary ON probability s(1 - s^N)/(1 - s^(N+1)), cancellation-free.

    Written through expm1 of N log s so that neither s -> 0 nor s -> 1 loses
    digits; the s = 1 limit is N/(N+1).
    """
    s = np.asarray(s, dtype=float)
    n = float(battery)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ls = np.log(s)
        small = s * np.expm1(n * ls) / np.expm1((n + 1.0) * ls)
        large = np.expm1(-n * ls) / np.expm1(-(n + 1.0) * ls)
    out = np.where(s < 1.0, small, large)
    out = np.where(s == 1.0, n / (n + 1.0), out)
    return np.where(s == 0.0, 0.0, out)


def policy_on(s, battery: int, cutoff: int) -> np.ndarray:
    """ON fraction under S(cutoff) at load ratio s = mu/nu.

    Level-passage times: with tau_i = nu * E[time from level i to i-1],
    tau_N = 1 and tau_i = 1 + s tau_(i+1).  The ON period from `cutoff`
    lasts sum_(i<=cutoff) tau_i / nu, the OFF period cutoff/mu, so the ON
    fraction is 1/(1 + cutoff/(s sum tau_i)).  At cutoff = 1 this is g_on.
    """
    s = np.asarray(s, dtype=float)
    tau = np.ones_like(s)
    taus = [tau]
    for _ in range(battery - 1):
        tau = 1.0 + s * tau
        taus.append(tau)
    # taus[j] is tau_(N-j); levels 1..cutoff are the last `cutoff` entries.
    on = np.sum(taus[battery - cutoff:], axis=0)
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(s > 0.0, 1.0 / (1.0 + cutoff / (s * on)), 0.0)


def _policy_on_mp(s: mp.mpf, battery: int, cutoff: int) -> mp.mpf:
    if s == 0:
        return mp.mpf(0)
    tau = mp.mpf(1)
    total = mp.mpf(0)
    for level in range(battery, 0, -1):
        if level <= cutoff:
            total += tau
        tau = 1 + s * tau
    return 1 / (1 + cutoff / (s * total))


def _g_on_mp(s: mp.mpf, battery: int) -> mp.mpf:
    return 1 - 1 / mp.fsum(s ** i for i in range(battery + 1))


# --- the availability fixed point as one scalar root ---------------------

class TwoTierModel:
    """Scalar form of the availability fixed point.

    `tiers` holds (density, weight, harvest_rate, battery) per tier.  Every
    tier sees rho only through D = sum_j rho_j lambda_j w_j, with load ratio
    s_j(D) = mu_j D/(lambda_u P_c w_j), so the fixed point is a root of
    sum_j lambda_j w_j a_j(s_j(D)) = D on (0, sum_j lambda_j w_j].
    """

    def __init__(self, tiers, user_density: float, pc: float):
        self.tiers = [(float(l), float(w), float(m), int(n)) for l, w, m, n in tiers]
        self.user_density = float(user_density)
        self.pc = float(pc)

    def load_ratio(self, d, k: int):
        lam, w, mu, _ = self.tiers[k]
        return mu * d / (self.user_density * self.pc * w)

    def _avail_mp(self, d: mp.mpf, k: int, cutoff: int) -> mp.mpf:
        lam, w, mu, n = self.tiers[k]
        s = mp.mpf(mu) * d / (mp.mpf(self.user_density) * mp.mpf(self.pc) * mp.mpf(w))
        return _g_on_mp(s, n) if cutoff == 1 else _policy_on_mp(s, n, cutoff)

    def _excess_mp(self, d: mp.mpf, cutoffs) -> mp.mpf:
        return mp.fsum(mp.mpf(lam) * mp.mpf(w) * self._avail_mp(d, k, c)
                       for k, ((lam, w, _, _), c) in enumerate(zip(self.tiers, cutoffs))) - d

    def excess(self, d, cutoffs) -> np.ndarray:
        """sum_j lambda_j w_j a_j(s_j(D)) - D in floating point, vectorized over D."""
        d = np.asarray(d, dtype=float)
        total = -d
        for k, ((lam, w, _, n), c) in enumerate(zip(self.tiers, cutoffs)):
            s = self.load_ratio(d, k)
            total = total + lam * w * (g_on(s, n) if c == 1 else policy_on(s, n, c))
        return total

    def largest_root(self, cutoffs, scan: int = 48) -> tuple[float, list[float]]:
        """(D*, rho*) at the largest root, found by mpmath bisection.

        Walks down from D_max = sum lambda_j w_j (where the excess is
        negative because every a_j < 1) over a linear then a geometric grid,
        and bisects the first sign change in mpmath.  Returns (0, zeros)
        when the excess stays negative, i.e. only the trivial fixed point
        exists.
        """
        d_max = sum(lam * w for lam, w, _, _ in self.tiers)
        grid = np.concatenate([np.linspace(d_max, d_max / scan, scan),
                               d_max / scan * 10.0 ** (-np.arange(1, 31) / 2)])
        nonneg = self.excess(grid, cutoffs) >= 0.0
        if not nonneg.any():
            return 0.0, [0.0] * len(self.tiers)
        i = int(np.argmax(nonneg))
        if i == 0:
            raise ValueError("excess is nonnegative at D_max; availabilities round to 1")
        with mp.workdps(MP_DPS):
            lo, hi = mp.mpf(grid[i]), mp.mpf(grid[i - 1])
            if self._excess_mp(lo, cutoffs) < 0 or self._excess_mp(hi, cutoffs) >= 0:
                raise ValueError(f"float and mpmath excess disagree on [{lo}, {hi}]")
            for _ in range(64):
                mid = (lo + hi) / 2
                if self._excess_mp(mid, cutoffs) >= 0:
                    lo = mid
                else:
                    hi = mid
            d_star = (lo + hi) / 2
            rho = [float(self._avail_mp(d_star, k, c)) for k, c in enumerate(cutoffs)]
            return float(d_star), rho

    def boundary(self, k: int, others, cutoff: int = 1, scan: int = 512,
                 bisect: int = 60) -> np.ndarray:
        """Largest rho_k with rho_k = a_k(s_k(D)), other tiers held at `others`.

        Vectorized over the conditioning values of the other tier (two-tier
        scenarios); returns 0 where only the trivial root exists.
        """
        others = np.asarray(others, dtype=float)
        lam_k, w_k = self.tiers[k][0], self.tiers[k][1]
        j = 1 - k
        d_other = others * self.tiers[j][0] * self.tiers[j][1]

        def h(x):
            s = self.load_ratio(d_other + lam_k * w_k * x, k)
            a = g_on(s, self.tiers[k][3]) if cutoff == 1 else \
                policy_on(s, self.tiers[k][3], cutoff)
            return a - x

        at_one = h(np.ones_like(others)) >= 0.0
        xs = np.concatenate([np.linspace(1.0, 1.0 / scan, scan),
                             np.geomspace(1.0 / scan, 1e-13, 40)[1:]])
        vals = np.stack([h(np.full_like(others, x)) for x in xs])
        nonneg = vals >= 0.0
        found = nonneg.any(axis=0)
        first = np.argmax(nonneg, axis=0)
        lo = xs[first]
        hi = xs[np.maximum(first - 1, 0)]
        for _ in range(bisect):
            mid = 0.5 * (lo + hi)
            up = h(mid) >= 0.0
            lo = np.where(up, mid, lo)
            hi = np.where(up, hi, mid)
        out = np.where(found, 0.5 * (lo + hi), 0.0)
        return np.where(at_one, 1.0, out)


# --- rate CCDF -------------------------------------------------------------

def load_pmf(x: float, n_max: int) -> np.ndarray:
    """P(n other users share the serving BS), n = 0..n_max, for mean load x."""
    n = np.arange(n_max + 1, dtype=float)
    if x == 0.0:
        return (n == 0).astype(float)
    logp = (3.5 * math.log(3.5) - gammaln(n + 1.0) + gammaln(n + 4.5)
            - math.lgamma(3.5) + n * math.log(x) - (n + 4.5) * math.log(3.5 + x))
    return np.exp(logp)


def rate_ccdf(rate_target: float, alpha: float, pc: float, user_density: float,
              densities, weights, rho) -> float:
    """P(rate > T): the load series summed directly over a fixed long range.

    Association probabilities are A_k = rho_k lambda_k w_k / sum_j(...);
    tier k's mean load is x_k = P_c lambda_u A_k / (rho_k lambda_k).
    The series runs until the tier's pmf has decayed to 1e-20 of its peak
    (its tail is geometric, so the mass left out is of the same order), with
    F from scipy's hyp2f1.
    """
    if rate_target == 0.0:
        return 1.0
    lam = np.asarray(densities, dtype=float)
    w = np.asarray(weights, dtype=float)
    rho = np.asarray(rho, dtype=float)
    on = rho * lam * w
    assoc = on / on.sum()
    total = 0.0
    for k in range(lam.size):
        if assoc[k] == 0.0:
            continue
        x = pc * user_density * assoc[k] / (rho[k] * lam[k])
        n_max = int(60 + 40 * x)
        pmf = load_pmf(x, n_max)
        while pmf[-1] > 1e-20 * pmf.max():
            n_max *= 2
            if n_max > 10_000_000:
                raise ValueError(f"load pmf at x={x} does not decay")
            pmf = load_pmf(x, n_max)
        expo = rate_target * (np.arange(n_max + 1) + 1.0)
        with np.errstate(over="ignore"):
            beta = np.where(expo > 1000.0, np.inf, np.exp2(np.minimum(expo, 1000.0)) - 1.0)
        cov = 1.0 / (1.0 + coverage_f_fast(beta, alpha))
        total += assoc[k] * float(np.sum(pmf * cov))
    return total


# --- self-checks -----------------------------------------------------------

def self_check() -> None:
    """Cross-check each oracle against a second derivation; raises on mismatch."""
    with mp.workdps(MP_DPS):
        for beta in (1e-3, 0.5, 1.0, 7.0, 1e3, 1e12, 1e30):
            exact = mp.sqrt(beta) * mp.atan(mp.sqrt(beta))
            got = coverage_f_mp(beta, 4.0)
            if abs(got / exact - 1) > mp.mpf(10) ** -30:
                raise AssertionError(f"mpmath F({beta}, 4) = {got}, exact {exact}")
        for alpha in (2.5, 3.0, 4.0, 6.0):
            for beta in (1e-2, 1.0, 10.0, 1e6, 1e15, 1e30):
                ref = float(coverage_f_mp(beta, alpha))
                fast = float(coverage_f_fast(beta, alpha))
                if abs(fast / ref - 1.0) > 1e-13:
                    raise AssertionError(
                        f"scipy F({beta}, {alpha}) = {fast}, mpmath {ref}")
        for n in (1, 2, 8, 20):
            for s in (0.0, 1e-12, 1e-6, 0.3, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.7, 40.0):
                direct = _g_on_mp(mp.mpf(s), n) if s > 0 else mp.mpf(0)
                for got in (float(g_on(s, n)), float(policy_on(s, n, 1)),
                            float(_policy_on_mp(mp.mpf(s), n, 1))):
                    if abs(got - float(direct)) > 1e-14 * max(float(direct), 1e-300):
                        raise AssertionError(f"g_on({s}, {n}) = {got}, direct {direct}")
            for c in range(1, n + 1):
                for s in (0.2, 1.0, 3.0):
                    a, b = float(policy_on(s, n, c)), float(_policy_on_mp(mp.mpf(s), n, c))
                    if abs(a - b) > 1e-13:
                        raise AssertionError(f"policy_on({s}, {n}, {c}): {a} vs {b}")
    for x in (0.0, 0.4, 7.0, 60.0):
        mass = load_pmf(x, int(200 + 60 * x)).sum()
        if abs(mass - 1.0) > 1e-12:
            raise AssertionError(f"load pmf mass at x={x} is {mass}")
    # Single tier, S(1): the root solves g(s(D)) = D/(lambda w) exactly, so
    # the returned rho must reproduce D* through the model equation.
    model = TwoTierModel([(2.0, 1.0, 1.5, 6)], user_density=2.0, pc=0.5)
    d_star, rho = model.largest_root([1])
    if abs(rho[0] * 2.0 - d_star) > 1e-14 or not 0.0 < rho[0] < 1.0:
        raise AssertionError(f"scalar root self-check: D*={d_star} rho={rho}")
    if rate_ccdf(0.0, 4.0, 0.5, 10.0, [1.0], [1.0], [1.0]) != 1.0:
        raise AssertionError("rate CCDF at T=0 must be 1")
