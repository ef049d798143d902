"""Closed-form availability analysis for K-tier harvesting networks.

Ties together the geometric side (mean service areas, energy utilization
rates) and the temporal side (per-BS birth-death chains) into the coupled
fixed-point system for the availability vector rho.  Every tier sees rho
only through the weighted ON density D = sum_j rho_j lambda_j w_j, so the
K-dimensional fixed point is the root of one scalar equation in D, which
has a positive root iff the energy-conservation condition gamma > 1
holds.  `_load_root` finds that root, and the region boundaries, for many
lanes at once.  It tests the load balance in a form where no two large
terms cancel, with gamma - 1 formed exactly, so each sign is right even
with gamma a few ulps above 1 or one tier's load far above the rest; the
tested side is monotone in D, so the root is unique and plain
multisection of [0, top] brackets it, with no scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import markov
from .coverage import _association, _float_range_error, _on_terms, _tier_loads, coverage_prob
from .model import (NetworkScenario, ScenarioError, _check_integer, _check_positive,
                    check_availability_vector)

# Bisection levels per evaluation of the load test: 2^6 = 64 cells per lane.
_LEVELS = 6
_CELLS = np.arange(2 ** _LEVELS + 1)[:, None] / 2 ** _LEVELS


@dataclass(frozen=True)
class FixedPointResult:
    """Availability fixed point plus solver diagnostics.

    `iterations`: bisection levels taken, where one evaluation that splits
    the bracket of D into 2^l cells counts l; `evaluations`: calls of the
    vectorized tier availabilities, one per split plus one at the final
    midpoint; `residual`: max_k |a_k(s_k(D(rho))) - rho_k|; `bracket`:
    max_k |rho_k(D_hi) - rho_k(D_lo)| over the final bracket [D_lo, D_hi]
    of the root.  The bracket holds the root, as the sign test that
    narrows it has no cancellation, and rho_k is monotone in D, so
    `bracket` bounds the error of every rho_k, up to the rounding of a_k.
    """

    rho: np.ndarray
    iterations: int
    residual: float
    feasible: bool
    bracket: float = 0.0
    evaluations: int = 0


def mean_service_area(scenario: NetworkScenario, rho, k: int) -> float:
    """Mean service-region area of an ON tier-k BS.

    w_k / D, D = sum_j rho_j lambda_j w_j (coverage._on_terms), with w
    the shadowing-power weights; the areas weighted by rho_k lambda_k sum
    to one over tiers.  A value past the float range is a ScenarioError
    naming user_density and density.
    """
    return _at_density(scenario, rho, k, lambda _, d, w: w / d, "mean service area")


def energy_utilization(scenario: NetworkScenario, rho, k: int) -> float:
    """nu_k: mean energy units consumed per second by an ON tier-k BS.

    nu_k = P_c lambda_u w_k / D, the mean load x_k that coverage.rate_ccdf
    sums for tier k, bit for bit (coverage._tier_loads).  A value past the
    float range is a ScenarioError naming user_density and density.
    """
    return _at_density(scenario, rho, k, _tier_loads, "energy utilization")


def _at_density(scenario: NetworkScenario, rho, k: int, form, what: str) -> float:
    """form(scenario, D, w)[0, k], D of one availability vector (1, 1), after the checks.

    The tier k and rho are checked, and w holds the tier weights w_k.  A
    value past the float range, or a D past it, is a ScenarioError naming
    `what`.
    """
    _check_integer(k, "tier", 0, scenario.k_tiers - 1)
    rho = check_availability_vector(rho, scenario.k_tiers)
    with np.errstate(divide="ignore", over="ignore"):
        _, d, w = _association(scenario, rho[None, :])
        value = form(scenario, d, w)[0, k]
    if not (np.isfinite(value) and np.isfinite(d[0, 0])):
        raise _float_range_error(scenario, what)
    return float(value)


def _tier_constants(scenario: NetworkScenario) -> tuple[np.ndarray, np.ndarray]:
    """(c_j, slope_j) = (lambda_j w_j, mu_j/(lambda_u P_c w_j)): s_j = slope_j D.

    D = sum_j rho_j c_j is formed by coverage._on_terms alone.

    A load past the float range, where some lambda_j w_j or the load
    ratios at rho = 1 sum to more than a double holds (or lambda_u P_c
    rounds to 0), is a ScenarioError naming the fields that set it.
    """
    demand = scenario.user_density * coverage_prob(scenario)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        on_weight = scenario.densities() * scenario.tier_weights()
        slope = scenario.harvest_rates() / (demand * scenario.tier_weights())
        top = slope.sum() * on_weight.sum()
    if not np.isfinite(on_weight).all():
        k = int(np.argmin(np.isfinite(on_weight)))
        tier = scenario.tiers[k]
        raise ScenarioError(
            f"tiers[{k}] density times association weight leaves the float range of "
            f"the load (density={tier.density}, tx_power={tier.tx_power})")
    if not np.isfinite(top):
        raise ScenarioError(
            f"effective demand lambda_u P_c = {demand:.3g} leaves the float range "
            f"of the load on the tiers' density and harvest_rate (user_density="
            f"{scenario.user_density}, sir_target={scenario.sir_target}, "
            f"path_loss_exp={scenario.path_loss_exp})")
    return on_weight, slope


def load_ratio(scenario: NetworkScenario, rho, k: int) -> float:
    """s_k = mu_k / nu_k(rho), the birth-death ratio of tier k at load rho."""
    _check_integer(k, "tier", 0, scenario.k_tiers - 1)
    rho = check_availability_vector(rho, scenario.k_tiers)
    return float(_tier_constants(scenario)[1][k] * _on_terms(scenario, rho)[1])


def g(scenario: NetworkScenario, rho, k: int) -> float:
    """Right-hand side of the tier-k availability fixed-point equation.

    s_k (1 - s_k^N_k)/(1 - s_k^(N_k+1)) with s_k the load ratio at rho;
    equals the stationary ON probability of the tier-k energy chain.
    Continuous at s_k = 1 with value N/(N+1).
    """
    return float(markov.tier_availability(load_ratio(scenario, rho, k),
                                          scenario.tiers[k].battery))


def check_feasibility(scenario: NetworkScenario) -> tuple[bool, float]:
    """(gamma > 1, gamma): gamma = sum lambda_k mu_k / (lambda_u P_c).

    gamma is the over-provisioning factor, total harvested energy per unit
    area and time over effective demand, formed as sum_k c_k s_k from the
    tier constants so that it is finite wherever the loads are.  A positive
    availability fixed point exists iff gamma exceeds one.  That is decided
    from gamma - 1 = sum_k c_k s_k - 1 taken exactly (`_load_excess`), as
    the solver does.
    """
    on_weight, slope = _tier_constants(scenario)
    return _load_excess(on_weight, slope) > 0.0, float(on_weight @ slope)


def energy_outage_bound(scenario: NetworkScenario) -> float:
    """Lower bound on the fraction of users that must be dropped: max(0, 1-gamma).

    0 for every scenario `check_feasibility` finds feasible.
    """
    feasible, gamma = check_feasibility(scenario)
    return 0.0 if feasible else max(0.0, 1.0 - gamma)


def equivalence_check(scenario: NetworkScenario, rho) -> bool:
    """True iff mu_k/nu_k(rho) > rho_k for every tier (all rho_k > 0).

    At the fixed point this holds exactly when gamma > 1; it is the
    per-tier form of the energy conservation principle.
    """
    rho = check_availability_vector(rho, scenario.k_tiers)
    if np.any(rho <= 0.0):
        raise ScenarioError("equivalence check requires strictly positive rho")
    return bool(np.all(_tier_constants(scenario)[1] * _on_terms(scenario, rho)[1] > rho))


def _cutoffs(scenario: NetworkScenario, policy) -> list[int]:
    """Per-tier cutoffs from a {tier: PolicySpec} map; an unlisted tier, or None, is S(1).

    A key outside 0..K-1, a value that is not a PolicySpec or a cutoff
    outside [1, N_k] is a ScenarioError.  This is the one check of a
    policy argument, for the solver, the region and the command line.
    """
    cutoffs = [1] * scenario.k_tiers
    for k, p in (policy or {}).items():
        _check_integer(k, "tier", 0, scenario.k_tiers - 1)
        if p is not None:
            if not isinstance(p, markov.PolicySpec):
                raise ScenarioError(f"tier {k} policy must be a PolicySpec (got {p!r})")
            _check_integer(p.cutoff, "cutoff", 1, scenario.tiers[k].battery)
            cutoffs[k] = p.cutoff
    return cutoffs


def _load_inputs(scenario: NetworkScenario, policy, free=None):
    """(c_k, slope_k, plan) of the tiers `free` (default all): what _load_root takes.

    `policy` is a {tier: PolicySpec} map, checked by `_cutoffs`; plan is
    the markov._plan of those tiers' batteries and cutoffs.  The one setup
    of the fixed point, the region boundary and region membership.
    """
    cutoffs = np.array(_cutoffs(scenario, policy))
    c, slope = _tier_constants(scenario)
    free = slice(None) if free is None else free
    plan = markov._plan(tuple(scenario.batteries()[free].tolist()), tuple(cutoffs[free].tolist()))
    return c[free], slope[free], plan


def _load_excess(c: np.ndarray, s: np.ndarray) -> float:
    """sum_k c_k s_k - 1 for the floats c_k, s_k, rounded once.

    The products and the sum are taken exactly, as integer ratios, so the
    sign is right and the digits survive however close gamma is to 1.
    """
    num, den = -1, 1
    for (p, q), (r, t) in zip(map(float.as_integer_ratio, c), map(float.as_integer_ratio, s)):
        num, den = num * q * t + p * r * den, den * q * t
    return num / den if num < den << 1023 else np.inf   # int / int rounds once


def _load_root(d: np.ndarray, c: np.ndarray, slope: np.ndarray, plan, tol: float):
    """Largest load D in [d, d + sum_k c_k] inside the balance of the free tiers, per lane.

    `c` and `slope` hold c_k and s_k of the free tiers, `plan` their
    markov._plan, d the fixed density of each lane.  D is inside iff
    E(D) = d + sum_k c_k a_k(s_k D) - D >= 0.  One markov._on_fractions
    call gives a_k and b_k = 1 - a_k/s_k of every tier at every load of an
    evaluation; with them c_k a_k/D = c_k s_k (1 - b_k), and the sign is
    tested as
        E/D = excess + (d + sum_big c_k a_k)/D - sum_small c_k s_k b_k >= 0,
    with excess = sum_small c_k s_k - 1 formed exactly (`_load_excess`).
    A tier is big where c_k s_k > 2.  At any root sum_k c_k a_k <= D, so a
    big tier's b_k exceeds 1/2 there, and its c_k s_k b_k would cancel
    against the excess far below their rounding; each term of a small tier
    is at most 2, so no large term cancels.  b does not decrease, as a is
    concave (region.py), so E/D falls with D: the root is unique.  d is
    inside; so is d + sum_k c_k where every a_k rounds to 1; a lane with
    d = 0 and gamma <= 1 has its root at d.  Each evaluation splits each live
    lane's bracket into 2^_LEVELS = 64 cells and keeps the one cell where
    the test turns: 2^l cells are l bisection steps.  A lane stops once
    its a_k at the bracket ends differ by at most tol, or its ends are
    adjacent doubles.  It always stops: the cell ends are rounded from a
    grid of step w/64 on a bracket of width w, so each evaluation leaves
    at most w/64 plus an ulp, and once w is under 64 ulps the grid meets
    every double in the bracket.  A lane whose root D* lies in a first
    bracket of width w_0 thus takes at most ceil((53 + log2(w_0/D*))/6) + 1
    splits, and no lane more than 351, as no bracket is wider than 2^1024
    and no two doubles are closer than 2^-1074.
    Returns (a_k at the bracket midpoints, bracket, steps, evaluations),
    the final midpoint counted as one evaluation.
    """
    cs = c * slope
    big = cs > 2.0
    excess = _load_excess(c[~big], slope[~big])
    big_k, small_k = np.flatnonzero(big).tolist(), np.flatnonzero(~big).tolist()

    def tier_sum(ks, f, v):
        # Term by term in tier order: a reduction over the tier axis would
        # associate three or more terms differently.
        parts = [f[k] * v[k] for k in ks]
        return sum(parts[1:], parts[0]) if parts else 0.0

    lo, hi = d.copy(), d + c.sum()
    hi = np.where((d == 0.0) & (excess <= 0.0) & (not big.any()), lo, hi)
    bracket = np.where(lo < hi, np.inf, 0.0)
    steps = calls = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            mid = 0.5 * (lo + hi)
            live = np.flatnonzero((bracket > tol) & (lo < mid) & (mid < hi))
            if not live.size:
                a = markov._on_fractions(np.multiply.outer(slope, mid), plan, with_b=False)
                return a.T, bracket, steps, calls + 1
            x = lo[live] + (hi[live] - lo[live]) * _CELLS
            a, b = markov._on_fractions(np.multiply.outer(slope, x), plan)
            inside = excess + (d[live] + tier_sum(big_k, c, a)) / x >= tier_sum(small_k, cs, b)
            inside |= (a == 1.0).all(axis=0)
            inside[0] = True
            # The last point inside and the next: lo stays inside, hi outside.
            end = len(x) - 1 - np.argmax(inside[::-1], axis=0)
            nxt, cols = np.minimum(end + 1, len(x) - 1), np.arange(live.size)
            lo[live], hi[live] = x[end, cols], x[nxt, cols]
            bracket[live] = np.abs(a[:, nxt, cols] - a[:, end, cols]).max(axis=0)
            steps, calls = steps + _LEVELS, calls + 1


def solve_availability(scenario: NetworkScenario, policy=None,
                       tolerance: float = 1e-10) -> FixedPointResult:
    """Largest solution of rho_k = a_k(s_k(rho)) for all tiers, as a scalar root.

    Tier k sees rho only through D = sum_j rho_j lambda_j w_j, at load
    ratio s_k = mu_k D/(lambda_u P_c w_k), so rho_k = a_k(s_k(D*)) at the
    positive root D* of sum_j lambda_j w_j a_j(s_j(D)) = D, which exists
    and is unique iff gamma > 1.  a_k is the availability under the tier's
    cutoff in `policy` (default S(1), g).  `_load_root` narrows a bracket
    of D* from [0, sum_j lambda_j w_j] until the rho at its ends differ by
    at most `tolerance` or the ends are adjacent doubles, six bisection
    levels per evaluation; rho is taken at the midpoint.  Infeasible
    scenarios (gamma <= 1) return all zeros.
    """
    _check_positive(tolerance, "tolerance")
    if policy is not None and len(policy) != scenario.k_tiers:
        raise ScenarioError(
            f"policy list must have {scenario.k_tiers} entries (got {len(policy)})")
    on_weight, slope, plan = _load_inputs(scenario, dict(enumerate(policy or ())))
    if not _load_excess(on_weight, slope) > 0.0:
        return FixedPointResult(rho=np.zeros(scenario.k_tiers), iterations=0,
                                residual=0.0, feasible=False)
    (rho,), bracket, steps, calls = _load_root(np.zeros(1), on_weight, slope, plan, tolerance)
    a = markov._on_fractions(slope * _on_terms(scenario, rho)[1], plan, with_b=False)
    return FixedPointResult(rho=rho, iterations=steps, residual=float(np.max(np.abs(a - rho))),
                            feasible=True, bracket=float(bracket[0]), evaluations=calls)
