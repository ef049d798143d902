"""Oracles shared by the test modules.

The restricted generator -B of the battery birth-death chain has condition
number growing like (mu/nu)^N, so float64 LAPACK inversion cannot certify
nine-digit agreement over the parameter ranges exercised here.  These helpers
run the standard tridiagonal LU elimination in 300-digit arithmetic instead.
They share no code with the closed-form summation under test.
`hypot_link_gains` recomputes the spatial simulator's link gains one link at
a time in plain floats.  `mp_hyper_f` and `mp_rate_ccdf` evaluate the
coverage constant and the rate series in mpmath, straight from the model
equations.  `jump_chain_on_times` steps the battery chain one transition at
a time, as a trajectory oracle for the ON-period sampler.
`level_loop_on_times` is the ON-period sampler's level loop as it was
before it skipped zero counts, drawing for every cycle at every level.
`fsum_rate_ccdf` sums the rate series in float64 from scipy's negative
binomial pmf and hyp2f1, with math.fsum.
`bisect_outer_root` is the root search as one h call per bisection step.
`associate` gives each user its strongest-average BS one whole 512-user
block at a time, drawing the block's shadowing as the user pass does.
`probe_service_areas` estimates service areas from uniform probe points
instead of the simulator's users, and `raw_fading_coverage` estimates SIR
coverage from one Rayleigh fading draw per link instead of the simulator's
conditional coverage.
"""

import math
from statistics import NormalDist

import mpmath as mp
import numpy as np
from scipy.special import hyp2f1
from scipy.stats import nbinom

from harvnet.analytic import _SCAN
from harvnet.model import ScenarioError
from harvnet.simulate import (
    _USER_CHUNK,
    Realization,
    SimConfig,
    _bs_field,
    _chunk_gains,
    _shadow_factors,
    sample_network,
)


def _factor(spec):
    """LU pivots and multipliers of -B (states 1..N, no pivoting needed:
    the matrix is a weakly diagonally dominant M-matrix)."""
    n = spec.battery
    mu = mp.mpf(spec.harvest_rate)
    nu = mp.mpf(spec.utilization_rate)
    diag = [mu + nu] * (n - 1) + [nu]
    sub = -nu
    sup = -mu
    piv = [mp.mpf(0)] * n
    mult = [mp.mpf(0)] * max(n - 1, 0)
    piv[0] = diag[0]
    for i in range(1, n):
        mult[i - 1] = sub / piv[i - 1]
        piv[i] = diag[i] - mult[i - 1] * sup
    return piv, mult, sup


def _solve(piv, mult, sup, y):
    n = len(piv)
    for i in range(1, n):
        y[i] -= mult[i - 1] * y[i - 1]
    x = [mp.mpf(0)] * n
    x[n - 1] = y[n - 1] / piv[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = (y[i] - sup * x[i + 1]) / piv[i]
    return x


def hp_neg_b_inverse(spec, dps=300):
    """(-B)^-1 column by column via forward/back substitution."""
    n = spec.battery
    with mp.workdps(dps):
        piv, mult, sup = _factor(spec)
        out = np.empty((n, n), dtype=float)
        for j in range(n):
            y = [mp.mpf(0)] * n
            y[j] = mp.mpf(1)
            x = _solve(piv, mult, sup, y)
            for i in range(n):
                out[i, j] = float(x[i])
        return out


def hp_mean_on_times(spec, dps=300, as_mpf=False):
    """Row sums of the high-precision inverse: mean ON time from each level."""
    n = spec.battery
    with mp.workdps(dps):
        piv, mult, sup = _factor(spec)
        x = _solve(piv, mult, sup, [mp.mpf(1)] * n)
        if as_mpf:
            return x
        return np.array([float(v) for v in x])


def jump_chain_on_times(spec, cutoff, cycles, rng):
    """ON-period lengths from the jump chain, one transition per step.

    Exponential clocks: birth rate mu except at the full battery, death
    rate nu; each period runs from `cutoff` until level 0, vectorized
    across cycles.
    """
    mu, nu, n = spec.harvest_rate, spec.utilization_rate, spec.battery
    level = np.full(cycles, cutoff, dtype=np.int64)
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
    return on


def level_loop_on_times(spec, cutoff, cycles, rng):
    """ON-period lengths, the level-by-level sampler drawing at every level.

    Gamma-Poisson up-move counts for all cycles at each level below N, zero
    counts included, then the two gamma holding-time sums.
    """
    mu, nu, n = spec.harvest_rate, spec.utilization_rate, spec.battery
    r = spec.ratio
    down = np.ones(cycles)
    below = np.zeros(cycles)
    for j in range(1, n):
        up = rng.poisson(rng.gamma(down, r))
        below += down
        below += up
        down = up + (j + 1 <= cutoff)
    return rng.gamma(below, 1.0 / (mu + nu)) + rng.gamma(down, 1.0 / nu)


def mp_on_fraction(s, battery, cutoff=1):
    """ON fraction of the battery chain under S(cutoff) at load ratio s.

    Level passage: tau_N = 1 and tau_i = 1 + s tau_(i+1) is nu times the
    mean time to fall from level i to i-1.  The ON period from `cutoff`
    lasts sum_(i<=cutoff) tau_i / nu and the OFF period cutoff/mu, so the
    fraction is x/(1 + x) with x = s sum tau_i / cutoff.  O(battery) steps.
    """
    with mp.workdps(50):
        s = mp.mpf(s)
        tau, total = mp.mpf(1), mp.mpf(0)
        for level in range(battery, 0, -1):
            if level <= cutoff:
                total += tau
            tau = 1 + s * tau
        x = s * total / cutoff
        return x / (1 + x)


def mp_on_fraction_closed(s, battery, cutoff=1):
    """mp_on_fraction from the geometric-sum closed form, O(1) in the battery.

    sum_(i<=c) tau_i = (s^(N-c+1) (s^c - 1)/(s - 1) - c)/(s - 1), whose
    cancellation near s = 1 the working precision absorbs.  Evaluates at
    the caller's precision.
    """
    s = mp.mpf(s)
    n, c = battery, cutoff
    if s == 1:
        total = mp.mpf(c * (2 * n - c + 1)) / 2
    else:
        total = (s ** (n - c + 1) * (s ** c - 1) / (s - 1) - c) / (s - 1)
    x = s * total / c
    return x / (1 + x)


def mp_outer_root(excess, top, dps=60, steps=110):
    """Largest x in (0, top] with excess(x) >= 0, in mpmath.

    Scans down from top (64 linear steps, then decades down to 1e-60 of
    top) for the first nonnegative excess and bisects the sign change.
    Returns 0 when the excess stays negative.
    """
    with mp.workdps(dps):
        top = mp.mpf(top)
        grid = [top * (64 - i) / 64 for i in range(64)]
        grid += [top / 64 / mp.mpf(10) ** j for j in range(1, 60)]
        hi = None
        for lo in grid:
            if excess(lo) >= 0:
                break
            hi = lo
        else:
            return mp.mpf(0)
        if hi is None:
            return top
        for _ in range(steps):
            mid = (lo + hi) / 2
            if excess(mid) >= 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def bisect_outer_root(h, top, tol, max_iter=None):
    """analytic._outer_root as plain lock-step bisection, one h call per step.

    Same scan and stop rule; returns (lo, hi, bracket, steps, live).
    """
    top = np.asarray(top, dtype=float)
    lanes = np.arange(top.size)
    grid = _SCAN[:, None] * top
    excess, y = h(grid)
    nonneg = excess >= 0.0
    found = nonneg.any(axis=0)
    first = np.argmax(nonneg, axis=0)      # 0 where nothing is found
    above = np.maximum(first - 1, 0)
    lo, hi = np.where(found, grid[np.stack([first, above]), lanes], 0.0)
    y_lo, y_hi = y[first, lanes], y[above, lanes]
    steps = 0
    while True:
        bracket = np.max(np.abs(y_hi - y_lo), axis=-1)
        mid = 0.5 * (lo + hi)
        live = (bracket > tol) & (lo < mid) & (mid < hi)
        if steps == max_iter or not live.any():
            return lo, hi, bracket, steps, live
        excess, y_mid = h(mid)
        up = live & (excess >= 0.0)
        down = live & ~up
        lo = np.where(up, mid, lo)
        hi = np.where(down, mid, hi)
        y_lo = np.where(up[:, None], y_mid, y_lo)
        y_hi = np.where(down[:, None], y_mid, y_hi)
        steps += 1


def mp_tier_constants(scenario):
    """Per tier (lambda_j w_j, mu_j/(lambda_u P_c w_j)) in mpmath.

    With these, D = sum_j rho_j (first) and s_j = (second) D.  Only for
    unshadowed scenarios at alpha = 4, beta = 1, where w_j = sqrt(P_j) and
    P_c = 1/(1 + pi/4); evaluates at the caller's precision.
    """
    assert scenario.path_loss_exp == 4.0 and scenario.sir_target == 1.0
    assert all(t.shadowing.mean_db == t.shadowing.std_db == 0.0
               for t in scenario.tiers)
    pc = 1 / (1 + mp.pi / 4)
    out = []
    for t in scenario.tiers:
        w = mp.sqrt(t.tx_power)
        out.append((t.density * w,
                    t.harvest_rate / (mp.mpf(scenario.user_density) * pc * w)))
    return out


def hypot_link_gains(bs_xy, tier_of, pts, powers, alpha, period=None,
                     shadow_db=None):
    """Average received power of every (BS, point) link, one link at a time.

    Distance is math.hypot of the coordinate differences, each wrapped to
    min(d, period - d) when a period is given, floored at 1e-9; the gain
    is P d^-alpha, times 10^(shadow_db/10) for the link when given.
    """
    out = np.empty((len(bs_xy), len(pts)))
    for i, (bx, by) in enumerate(bs_xy):
        for j, (px, py) in enumerate(pts):
            dx, dy = abs(bx - px), abs(by - py)
            if period is not None:
                dx, dy = min(dx, period - dx), min(dy, period - dy)
            gain = powers[tier_of[i]] * max(math.hypot(dx, dy), 1e-9) ** -alpha
            if shadow_db is not None:
                gain *= 10.0 ** (shadow_db[i, j] / 10.0)
            out[i, j] = gain
    return out


def mp_hyper_f(beta, alpha, dps=40):
    """F(beta, alpha) = (2 beta/(alpha-2)) 2F1(1, 1-2/alpha; 2-2/alpha; -beta).

    At alpha = 4 the 2F1 is atan(sqrt(beta))/sqrt(beta), so F is
    sqrt(beta) atan(sqrt(beta)), which mpmath evaluates far faster.
    """
    with mp.workdps(dps):
        b, a = mp.mpf(beta), mp.mpf(alpha)
        if a == 4:
            return mp.sqrt(b) * mp.atan(mp.sqrt(b))
        return 2 * b / (a - 2) * mp.hyp2f1(1, 1 - 2 / a, 2 - 2 / a, -b)


def mp_load_pmf(x, n, dps=40):
    """(3.5^3.5/n!) (Gamma(n+4.5)/Gamma(3.5)) x^n (3.5+x)^-(n+4.5), term by term."""
    with mp.workdps(dps):
        x, n, c = mp.mpf(x), mp.mpf(n), mp.mpf(3.5)
        return (c ** c / mp.factorial(n) * mp.gamma(n + c + 1) / mp.gamma(c)
                * x ** n * (c + x) ** -(n + c + 1))


def mp_rate_ccdf(scenario, rho, rate_target, tol=1e-16, dps=30):
    """P(rate > T) for the 3.5-law load model, summed term by term in mpmath.

    Tier k serves the typical user with probability A_k proportional to
    rho_k lambda_k w_k, w_k = E[X^(2/alpha)] P_k^(2/alpha); its load has
    mean parameter x_k = P_c lambda_u A_k/(rho_k lambda_k) and the pmf
    p_0 = (3.5/(3.5+x))^4.5, p_(n+1) = p_n (n+4.5)/(n+1) x/(3.5+x).  Term n
    is the pmf mass times 1/(1 + F(2^(T(n+1)) - 1)); the sum stops once
    (1 - mass so far) times the current, decreasing, coverage factor
    bounds the rest below `tol`.
    """
    with mp.workdps(dps):
        alpha = mp.mpf(scenario.path_loss_exp)
        pc = 1 / (1 + mp_hyper_f(scenario.sir_target, scenario.path_loss_exp, dps))
        c = mp.log(10) / 5
        on = []
        for r, t in zip(rho, scenario.tiers):
            w = (mp.exp(c * t.shadowing.mean_db / alpha
                        + (c * t.shadowing.std_db / alpha) ** 2 / 2)
                 * mp.mpf(t.tx_power) ** (2 / alpha))
            on.append(mp.mpf(r) * t.density * w)
        tiers = []
        for r, t, o in zip(rho, scenario.tiers, on):
            if o > 0:
                a_k = o / sum(on)
                x = pc * scenario.user_density * a_k / (mp.mpf(r) * t.density)
                tiers.append([a_k, (3.5 / (3.5 + x)) ** mp.mpf(4.5), x / (3.5 + x)])
        total = mass = mp.mpf(0)
        n = 0
        while True:
            beta = mp.mpf(2) ** (mp.mpf(rate_target) * (n + 1)) - 1
            cov = 1 / (1 + mp_hyper_f(beta, scenario.path_loss_exp, dps))
            p_n = sum(a_k * p for a_k, p, _ in tiers)
            total += cov * p_n
            mass += p_n
            if (1 - mass) * cov < tol:
                return float(total)
            for entry in tiers:
                entry[1] *= (n + mp.mpf(4.5)) / (n + 1) * entry[2]
            n += 1


def fsum_rate_ccdf(scenario, rho, rate_target):
    """P(rate > T) in float64: scipy's NB(4.5, 3.5/(3.5+x)) pmf and hyp2f1.

    Tier k serves with probability A_k proportional to rho_k lambda_k w_k,
    w_k = E[X^(2/alpha)] P_k^(2/alpha), and has mean load parameter
    x_k = P_c lambda_u A_k/(rho_k lambda_k).  Each tier's terms
    A_k pmf_k(n)/(1 + F(2^(T(n+1)) - 1)), with F = (2 beta/(alpha-2))
    2F1(1, 1-2/alpha; 2-2/alpha; -beta), are added by math.fsum until the
    pmf's upper tail drops below 1e-17 or T(n+1) passes 30 alpha + 10.
    Beyond that point F(beta) > beta^(2/alpha) > 2^60, so the coverage
    factor, which decreases in n, bounds the rest below 1e-18.
    """
    if rate_target == 0.0:
        return 1.0
    alpha = scenario.path_loss_exp
    a = 1.0 - 2.0 / alpha

    def f(beta):
        return 2.0 / (alpha - 2.0) * beta * hyp2f1(1.0, a, 1.0 + a, -beta)

    pc = 1.0 / (1.0 + f(scenario.sir_target))
    c = math.log(10.0) / 5.0
    on = [r * t.density * math.exp(c * t.shadowing.mean_db / alpha
                                   + (c * t.shadowing.std_db / alpha) ** 2 / 2)
          * t.tx_power ** (2.0 / alpha)
          for r, t in zip(rho, scenario.tiers)]
    terms = []
    for r, t, o in zip(rho, scenario.tiers, on):
        if o == 0.0:
            continue
        a_k = o / math.fsum(on)
        x = pc * scenario.user_density * a_k / (r * t.density)
        p = 3.5 / (3.5 + x)
        last = min(nbinom.isf(1e-17, 4.5, p), (30.0 * alpha + 10.0) / rate_target)
        n = np.arange(int(last) + 1)
        cov = 1.0 / (1.0 + f(np.exp2(rate_target * (n + 1.0)) - 1.0))
        terms.append(a_k * nbinom.pmf(n, 4.5, p) * cov)
    return math.fsum(np.concatenate(terms))


def associate(realization, scenario, rng, config=None):
    """Serving (tier, within-tier index) per user: max average received power.

    Each block of _USER_CHUNK users draws its shadowing from `rng` in the
    user pass's order and takes, per user, the first BS of largest gain.
    """
    if not realization.tier_counts.any():
        raise ScenarioError("no BS available: realization has no ON BS")
    if config is None:
        config = SimConfig(window_side=realization.window_side, replicates=1)
    bs = _bs_field(realization, scenario, config)
    users = realization.users
    serving = np.empty(users.shape[0], dtype=np.int64)
    for lo in range(0, users.shape[0], _USER_CHUNK):
        pts = users[lo:lo + _USER_CHUNK]
        gains = _chunk_gains(bs, pts, _shadow_factors(bs, pts.shape[0], rng))
        serving[lo:lo + pts.shape[0]] = np.argmax(gains, axis=0)
    tiers = bs.tier_of[serving]
    offsets = np.concatenate([[0], np.cumsum(realization.tier_counts)])
    return tiers, serving - offsets[tiers]


def probe_service_areas(scenario, rho, config, tiers):
    """Per-tier mean service area and 99% halfwidth from uniform probes.

    Replicate i samples a network from default_rng([seed, i]) with
    `sample_network`, drops 4096 uniform points on the window (the
    inner square in guard mode) and associates them with `associate`.  Tier
    k's area is the square's area times its probe share over its BS count
    in the square; a replicate without such a BS is left out.
    """
    g = config.guard_margin if config.boundary == "guard" else 0.0
    lo, hi = g, config.window_side - g
    vals = {k: [] for k in tiers}
    for i in range(config.replicates):
        rng = np.random.default_rng([config.seed, i])
        real = sample_network(scenario, rho, config, rng)
        pts = Realization(real.bs_pos, rng.uniform(lo, hi, (4096, 2)),
                          config.window_side)
        served, _ = associate(pts, scenario, rng, config)
        for k in tiers:
            xy = real.bs_pos[k]
            count = np.sum(np.all((xy >= lo) & (xy <= hi), axis=1))
            if count:
                vals[k].append((hi - lo) ** 2 * np.mean(served == k) / count)
    z99 = NormalDist().inv_cdf(0.995)
    return {k: (float(np.mean(v)), z99 * float(np.std(v, ddof=1)) / math.sqrt(len(v)))
            for k, v in vals.items()}


def raw_fading_coverage(scenario, rho, config):
    """Mean and 99% halfwidth of the share of users whose faded SIR > beta.

    Replicate i samples a network from default_rng([seed, i]) with
    `sample_network`.  Each link's average gain is P d^-alpha from np.hypot
    of the (wrapped, in toroidal mode) coordinate differences, times
    lognormal shadowing; each user is served by its strongest link.  Every
    gain is then multiplied by an exponential fading draw, and the user is
    covered when its serving power exceeds beta times the sum of the rest.
    A replicate with no BS or no user is left out.
    """
    side, beta = config.window_side, scenario.sir_target
    vals = []
    for i in range(config.replicates):
        rng = np.random.default_rng([config.seed, i])
        real = sample_network(scenario, rho, config, rng)
        bs = np.vstack(real.bs_pos)
        if not len(bs) or not len(real.users):
            continue
        tier_of = np.repeat(np.arange(scenario.k_tiers), real.tier_counts)
        d = np.abs(bs[:, None, :] - real.users[None, :, :])
        if config.boundary == "toroidal":
            d = np.minimum(d, side - d)
        dist = np.maximum(np.hypot(d[..., 0], d[..., 1]), 1e-9)
        power = np.array([t.tx_power for t in scenario.tiers])[tier_of]
        mean_db = np.array([t.shadowing.mean_db for t in scenario.tiers])[tier_of]
        std_db = np.array([t.shadowing.std_db for t in scenario.tiers])[tier_of]
        shadow_db = mean_db[:, None] + std_db[:, None] * rng.standard_normal(dist.shape)
        gain = power[:, None] * dist ** -scenario.path_loss_exp * 10.0 ** (shadow_db / 10.0)
        serving = np.argmax(gain, axis=0)
        faded = gain * rng.exponential(1.0, gain.shape)
        signal = faded[serving, np.arange(faded.shape[1])]
        vals.append(np.mean(signal > beta * (faded.sum(axis=0) - signal)))
    z99 = NormalDist().inv_cdf(0.995)
    return float(np.mean(vals)), z99 * float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
