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
`level_loop_on_times` is the ON-period sampler's level loop for batches
of one cycle as it was before it stopped at zero counts, drawing for
every cycle at every level.
`fsum_rate_ccdf` sums the rate series in float64 from scipy's negative
binomial pmf and hyp2f1, with math.fsum.
`mp_fixed_point` is the availability fixed point of given float tier
constants, in mpmath.
`per_tier_on_fractions` is the float ON fraction and b = 1 - a/s of one
tier as it was computed before the tiers were stacked into one array
pass: its own binary expansion, Python-int exponents and cutoff, for
bit-for-bit comparison.
`row_weight_user_pass` is the spatial user pass with its gain kernel and
serving pick as they were before the per-tier path loss and the argmax
pick, on tiles of one row per BS, for bit-for-bit comparison; its rate
tally still draws one Rayleigh fade per link.  `full_matrix_rate_events`
decides each user's rate event from the whole gain matrix and a direct
product of its SIR CCDF.
`root_search_contains` and `two_sweep_grid_coverage` decide region
membership from the root-searched boundaries, rho_k <= boundary + tol.
`associate` gives each user its strongest-average BS one whole 512-user
block at a time, drawing the block's shadowing as the user pass does.
`probe_service_areas` estimates service areas from uniform probe points
instead of the simulator's users, and `raw_fading_coverage` estimates SIR
coverage from one Rayleigh fading draw per link instead of the simulator's
conditional coverage.
"""

import itertools
import math
from statistics import NormalDist

import mpmath as mp
import numpy as np
from scipy.special import hyp2f1
from scipy.stats import nbinom

from harvnet.model import ScenarioError
from harvnet.region import boundary, sweep_boundary
from harvnet.simulate import (
    _USER_CHUNK,
    Realization,
    SimConfig,
    _bs_field,
    _chunk_gains,
    _tile_width,
    _tiles,
    _workspace,
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


def _per_tier_passage_sum(s, battery, cutoff):
    first = battery - cutoff + 1
    log_s, unit = np.log(s), s == 1.0
    em = np.expm1(log_s)

    def geo(m):
        return np.where(unit, float(m), np.expm1(m * log_s) / em)

    m, total = 1, geo(first)
    for bit in bin(cutoff)[3:]:
        s_m = geo(m)
        total = (2.0 + em * s_m) * total + m * s_m
        m *= 2
        if bit == "1":
            total = total + geo(first + m)
            m += 1
    return total


def per_tier_on_fractions(s, battery, cutoff):
    """(a, b) of one tier at load ratios s, one tier at a time (see above)."""
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = s * _per_tier_passage_sum(s, battery, cutoff) / cutoff
        a = np.where(x > 1.0, 1.0 / (1.0 + 1.0 / x), x / (1.0 + x))
        s_c = _per_tier_passage_sum(s, cutoff, 1) if cutoff > 1 else 1.0
        top = s ** (battery - cutoff + 1) * s_c / cutoff
        b = np.where((x < math.inf) & (top < math.inf), top / (1.0 + x), 1.0 - 1.0 / s)
    return a, b


def mp_outer_root(excess, top, dps=60, steps=110, decades=59):
    """Largest x in (0, top] with excess(x) >= 0, in mpmath.

    Scans down from top (64 linear steps, then `decades` decades, down to
    1e-60 of top by default) for the first nonnegative excess and bisects
    the sign change.  Returns 0 when the excess stays negative.
    """
    with mp.workdps(dps):
        top = mp.mpf(top)
        grid = itertools.chain((top * (64 - i) / 64 for i in range(64)),
                               (top / 64 / mp.mpf(10) ** j for j in range(1, decades + 1)))
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


def mp_fixed_point(c, s, batteries, cutoffs, dps=60, decades=59):
    """rho at the positive root of sum_k c_k a_k(s_k D) = D, in mpmath.

    c_k = lambda_k w_k and s_k = mu_k/(lambda_u P_c w_k) are taken as given,
    floats included, so this is the root of the caller's own inputs; a_k is
    mp_on_fraction_closed.  The root is searched for down to 1e-(decades+1)
    of sum_k c_k (`mp_outer_root`).  Returns float zeros when no positive
    root exists there.
    """
    with mp.workdps(dps):
        tiers = [(mp.mpf(ck), mp.mpf(sk), n, cut)
                 for ck, sk, n, cut in zip(c, s, batteries, cutoffs)]

        def avail(d):
            return [mp_on_fraction_closed(sk * d, n, cut) for _, sk, n, cut in tiers]

        def excess(d):
            return mp.fsum(ck * a for (ck, *_), a in zip(tiers, avail(d))) - d

        d_star = mp_outer_root(excess, mp.fsum(t[0] for t in tiers), dps, decades=decades)
        return np.array([float(a) for a in avail(d_star)])


def root_search_contains(scenario, rho, constraints=None, tol=1e-6):
    """True iff rho is in the unit box and rho_k <= boundary_k + tol for every k.

    Each boundary_k is one root search (`region.boundary`) at the other
    tiers' rho; `constraints` maps tier index to a PolicySpec.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0.0) or np.any(rho > 1.0):
        return False
    constraints = constraints or {}
    return all(rho[k] <= boundary(scenario, k, np.delete(rho, k), constraints.get(k)) + tol
               for k in range(scenario.k_tiers))


def two_sweep_grid_coverage(scenario, resolution, constraints=None, tol=1e-6):
    """Share of the K=2 grid inside the region, from one boundary sweep per tier.

    Point (t_i, t_j) is inside iff t_i <= boundary_0(t_j) + tol and
    t_j <= boundary_1(t_i) + tol.
    """
    constraints = constraints or {}
    b0, b1 = (sweep_boundary(scenario, k, resolution, constraints.get(k)) for k in (0, 1))
    t = b0.grid
    in0 = t[:, None] <= b0.values[None, :] + tol
    in1 = t[None, :] <= b1.values[:, None] + tol
    return float((in0 & in1).mean())


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


def _shadow_block(bs, n_pts, rng):
    """Lognormal factors 10^(Z/10), (n_bs, n_pts), or None unshadowed.

    The normals Z are drawn from `rng` in (n_bs, n_pts) order and turned
    into factors in the user pass's operation order: times the dB std,
    plus the dB mean, over 10, then 10 to that power.
    """
    if bs.shadow is None:
        return None
    mean_db, std_db = bs.shadow
    db = rng.standard_normal((bs.x.size, n_pts))
    db *= std_db
    db += mean_db
    db /= 10.0
    return np.power(10.0, db, out=db)


def _shadowed(gains, factors):
    """The gain block times its shadowing factors, in place; as is without."""
    if factors is not None:
        gains *= factors
    return gains


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
        work = np.empty((3, pts.shape[0] * bs.x.size))
        gains = _shadowed(_chunk_gains(bs, pts, work).T, _shadow_block(bs, pts.shape[0], rng))
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
    g = config.guard_margin
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
        if not config.guard_margin:
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


def _row_weight_axis_sq(bs_coord, pts_coord, period, out, tmp):
    d = np.subtract.outer(bs_coord, pts_coord, out=out)
    np.abs(d, out=d)
    if period is not None:
        np.minimum(d, np.subtract(period, d, out=tmp), out=d)
    return np.multiply(d, d, out=d)


def _row_weight_gains(bs, power, pts, shadow, work):
    """Link gains with the power broadcast as an (n_bs, 1) column."""
    shape = (bs.x.size, pts.shape[0])
    w, tmp, aux = (row[:shape[0] * shape[1]].reshape(shape) for row in work)
    _row_weight_axis_sq(bs.x, pts[:, 0], bs.period, w, tmp)
    w += _row_weight_axis_sq(bs.y, pts[:, 1], bs.period, aux, tmp)
    np.maximum(w, 1e-18, out=w)
    if bs.alpha == 4.0:
        np.divide(power, np.multiply(w, w, out=w), out=w)
    else:
        np.power(w, -0.5 * bs.alpha, out=w)
        w *= power
    if shadow is not None:
        w *= shadow
    return w


def _row_weight_strongest(w, work):
    """First maximal row per column: its rows weighted by descending row numbers."""
    rows = w.shape[0]
    dtype = np.int16 if rows < 32767 else np.int64
    mask, weighted = (row.view(t)[:w.size].reshape(w.shape)
                      for row, t in ((work[1], np.bool_), (work[2], dtype)))
    np.equal(w, w.max(axis=0), out=mask)
    desc = np.arange(rows, 0, -1, dtype=dtype)[:, None]
    return rows - np.multiply(mask, desc, out=weighted).max(axis=0).astype(np.int64)


def row_weight_user_pass(real, scenario, config, rng, rate_target):
    """`simulate._user_pass` with the earlier gain kernel and serving pick.

    Path loss is multiplied by an (n_bs, 1) power column in one broadcast,
    each tile reads the strided columns of the user array, and the serving
    BS is the largest descending row weight among each column's maxima.
    The draws, tiles and reductions are the user pass's own.
    """
    n_users = real.users.shape[0]
    if not real.tier_counts.any() or n_users == 0:
        nan = np.full(scenario.k_tiers, math.nan)
        return math.nan, nan, nan, math.nan
    bs = _bs_field(real, scenario, config)
    power = np.array([t.tx_power for t in scenario.tiers])[bs.tier_of[:, None]]
    n_bs, beta = bs.x.size, scenario.sir_target
    serving = np.empty(n_users, dtype=np.int64)
    cover = np.empty(n_users)
    fading = None if rate_target is None else rng.spawn(1)[0]
    sir = np.empty(n_users)
    width = _tile_width(n_bs)
    work = _workspace(n_bs, n_users)
    fade_buf = None if fading is None else np.empty(n_bs * min(_USER_CHUNK, n_users))
    for lo in range(0, n_users, _USER_CHUNK):
        m = min(_USER_CHUNK, n_users - lo)
        shadow = _shadow_block(bs, m, rng)
        if fading is not None:
            fade = fading.standard_exponential(
                out=fade_buf[:n_bs * m].reshape(n_bs, m))
        for a, b in _tiles(m, width):
            users = slice(lo + a, lo + b)
            w = _row_weight_gains(bs, power, real.users[users],
                                  None if shadow is None else shadow[:, a:b], work)
            srv = serving[users] = _row_weight_strongest(w, work)
            link = (srv, np.arange(b - a))
            if fading is not None:
                faded = np.multiply(fade[:, a:b], w,
                                    out=work[1, :w.size].reshape(w.shape))
                sig = faded[link]
                sir[users] = sig / np.maximum(faded.sum(axis=0) - sig, 1e-300)
            w *= beta / w[link]
            w += 1.0
            w[link] = 1.0
            with np.errstate(over="ignore"):
                cover[users] = 1.0 / w.prod(axis=0)
    assoc = np.bincount(bs.tier_of[serving], minlength=scenario.k_tiers) / n_users
    g = config.guard_margin
    top = config.window_side - g
    inner = (bs.x >= g) & (bs.x <= top) & (bs.y >= g) & (bs.y <= top)
    counts = np.bincount(bs.tier_of[inner], minlength=scenario.k_tiers)
    area = np.full(scenario.k_tiers, math.nan)
    np.divide((top - g) ** 2 * assoc, counts, out=area, where=counts > 0)
    if rate_target is None:
        return float(cover.mean()), assoc, area, math.nan
    covered = sir > beta
    covered_load = np.bincount(serving[covered], minlength=bs.tier_of.size)
    others = covered_load[serving] - covered.astype(np.int64)
    rate = np.log2(1.0 + sir) / (others + 1)
    return float(cover.mean()), assoc, area, float(np.mean(rate > rate_target))


def full_matrix_rate_events(real, scenario, config, rng, rate_target):
    """Each user's rate event U < C(theta_u), from the whole gain matrix at once.

    Every user's gains come from one `_chunk_gains` call, with the
    shadowing of each 512-user block drawn from `rng` in the user pass's
    order; the uniforms U come from rng's first spawned child.  The serving
    BS is np.argmax of the user's column, C(theta) = prod_(j != s)
    1/(1 + theta w_j/w_s) is a product of reciprocals over that column,
    a user is covered when U < C(beta), and theta_u = 2^(T (o + 1)) - 1
    with o the covered other users on its BS.  No bound is used.
    """
    bs = _bs_field(real, scenario, config)
    n = real.users.shape[0]
    w = _chunk_gains(bs, real.users, np.empty((3, n * bs.x.size))).T
    if bs.shadow is not None:
        w *= np.hstack([_shadow_block(bs, min(_USER_CHUNK, n - lo), rng)
                        for lo in range(0, n, _USER_CHUNK)])
    cols = np.arange(n)
    serving = np.argmax(w, axis=0)
    ratio = w / w[serving, cols]
    ratio[serving, cols] = 0.0

    def ccdf(theta):
        return np.prod(1.0 / (1.0 + theta * ratio), axis=0)

    u = rng.spawn(1)[0].random(n)
    covered = u < ccdf(scenario.sir_target)
    load = np.bincount(serving[covered], minlength=w.shape[0])
    return u < ccdf(np.exp2(rate_target * (load[serving] - covered + 1.0)) - 1.0)
