"""High-precision linear-algebra oracles shared by the test modules.

The restricted generator -B of the battery birth-death chain has condition
number growing like (mu/nu)^N, so float64 LAPACK inversion cannot certify
nine-digit agreement over the parameter ranges exercised here.  These helpers
run the standard tridiagonal LU elimination in 300-digit arithmetic instead.
They share no code with the closed-form summation under test.
"""

import mpmath as mp
import numpy as np


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
