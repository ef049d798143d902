"""Availability region: which availability vectors are jointly achievable.

The region boundary for tier k given the other tiers' availabilities is
the root of rho_k = a_k(s_k(D)), D = D_others + lambda_k w_k rho_k: the
fixed-point solver's scalar equation with the other tiers held fixed.
`boundary` and the sweeps find it with the solver's own root search,
`analytic._load_root`, tier k free and D_others fixed; a sweep solves all
its grid points as lanes of one search.  With D_others = 0 the boundary
is exactly 0 unless slope_k lambda_k w_k > 1, taken exactly.  A tier can
also be pinned to a recharge policy S(c), which shrinks the region.

Membership needs no root.  With h_k(x) = a_k(s_k(D_others + lambda_k w_k x))
- x, rho is inside iff h_k(rho_k) >= 0 for every k: one evaluation of
markov._on_fractions covers every tier.  a(s) is concave for every battery N and cutoff c, so h_k, a concave
function of a load affine in x minus x, is concave with h_k(0) >= 0, and
{x in [0, 1]: h_k(x) >= 0} = [0, boundary].  Why a(s) is concave:
- under S(c), a(s) = 1 - 1/Q(s) with Q(s) = sum_(i=0..N) q_i s^i, q_0 = 1
  and q_i = min(1, (N - i + 1)/c);
- a'' = (Q Q'' - 2 Q'^2)/Q^3, and the s^(m-2) coefficient of
  Q Q'' - 2 Q'^2 is half of sum_(i+j=m) q_i q_j (m^2 - m - 6ij);
- q is log-concave, so q_i q_(m-i) falls away from the middle of the
  range of i, while the weights m^2 - m - 6i(m-i) rise away from it; the
  weights sum to 0 over i = 0..m, and to at most 0 over the range
  m-N..N that m > N leaves, which drops the largest;
- so by Chebyshev's sum inequality every coefficient is <= 0: a'' <= 0
  on s >= 0.
As a(0) = 0, concavity also makes a(s)/s non-increasing, so the b(s) =
1 - a(s)/s of the root search's sign test does not decrease.
A membership test has a slack of _MEMBER_TOL in rho units: it tests
h_k(max(rho_k - _MEMBER_TOL, 0)) >= 0, i.e. rho_k <= boundary + _MEMBER_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analytic, markov
from .coverage import _on_terms
from .model import NetworkScenario, _two_tier_grid, check_availability_vector

_TOL = 1e-10          # bracket width on rho_k
_MEMBER_TOL = 1e-6    # slack for membership tests at the boundary itself
_LANE_BLOCK = 2048    # grid lanes per root search
_GRID_BLOCK = 1 << 16  # grid lanes per membership evaluation


@dataclass(frozen=True)
class RegionBoundary:
    """Sampled boundary curve rho_k*(other availability) for a two-tier network."""

    tier: int
    grid: np.ndarray
    values: np.ndarray
    policy_constraint: markov.PolicySpec | None = None


def _boundaries(scenario: NetworkScenario, k: int, others: np.ndarray,
                constraint: markov.PolicySpec | None) -> np.ndarray:
    """Tier-k boundary for each row of `others`, the other tiers' rho."""
    c, slope, plan = analytic._load_inputs(scenario, {k: constraint}, [k])
    # D with rho_k = 0 put in: adding its +0.0 term changes no bit.
    d_others = _on_terms(scenario, np.insert(others, k, 0.0, axis=1))[1]
    # A search holds 2^6 + 1 loads of every live lane; blocks cap its memory.
    return np.concatenate([
        analytic._load_root(d, c, slope, plan, _TOL)[0][:, 0]
        for d in np.split(d_others, range(_LANE_BLOCK, d_others.size, _LANE_BLOCK))])


def boundary(scenario: NetworkScenario, k: int, fixed_others,
             constraint: markov.PolicySpec | None = None) -> float:
    """Largest rho_k in [0, 1] with rho_k = g_k(rho), others held fixed.

    Returns 0.0 when no positive root exists (the tier cannot be ON at all
    given the conditioning load) and 1.0 when g_k rounds to 1 there.  With
    `constraint`, the S(cutoff) availability formula replaces g_k; a tier
    k outside 0..K-1, a constraint that is not a PolicySpec or a cutoff
    outside [1, N_k] is a ScenarioError.
    """
    others = check_availability_vector(fixed_others, scenario.k_tiers - 1)
    return float(_boundaries(scenario, k, others[None, :], constraint)[0])


def _inside(scenario: NetworkScenario, rho, constraints) -> np.ndarray:
    """Which lanes of rho (L, K) lie in the region, to slack _MEMBER_TOL in each rho_k."""
    on_weight, slope, plan = analytic._load_inputs(scenario, constraints)
    # Tier-major (K, L), the layout of markov._on_fractions.
    tiers = np.ascontiguousarray(rho.T)
    x = np.maximum(tiers - _MEMBER_TOL, 0.0)
    # s_k with rho_k moved to x_k: slope_k (D_others + lambda_k w_k x_k)
    s = slope[:, None] * (_on_terms(scenario, rho)[1] + on_weight[:, None] * (x - tiers))
    # A load that rounds below 0 where D_others is 0 is 0.
    return (markov._on_fractions(np.maximum(s, 0.0, out=s), plan, with_b=False) >= x).all(axis=0)


def contains(scenario: NetworkScenario, rho, constraints=None) -> bool:
    """True iff every rho_k is at most its conditional boundary value + _MEMBER_TOL.

    The region lives inside the unit box, so any point with a component
    outside [0, 1] is reported as not contained rather than rejected; that
    keeps perturbation probes just past a boundary at 1 well defined.
    `constraints` maps tier index to a PolicySpec for tiers pinned to a
    recharge policy; unlisted tiers use the unconstrained boundary.  A key
    outside 0..K-1, a value that is not a PolicySpec or a cutoff outside
    [1, N_k] is a ScenarioError, inside the box or out.
    """
    rho = np.asarray(rho, dtype=float)
    box = (rho >= 0.0) & (rho <= 1.0)     # NaN is outside
    # The shape rule, and the constraints, are checked outside the box too.
    check_availability_vector(np.where(box, rho, 0.0), scenario.k_tiers)
    analytic._cutoffs(scenario, constraints)
    if not box.all():
        return False
    return bool(_inside(scenario, rho[None, :], constraints)[0])


def sweep_boundary(scenario: NetworkScenario, k: int,
                   grid_resolution: int = 101,
                   constraint: markov.PolicySpec | None = None) -> RegionBoundary:
    """Boundary curve of tier k against the other tier's availability (K=2).

    A tier k outside {0, 1} or a `constraint` cutoff outside [1, N_k] is a
    ScenarioError, as in `boundary`.
    """
    grid = _two_tier_grid(scenario, grid_resolution)
    return RegionBoundary(k, grid, _boundaries(scenario, k, grid[:, None], constraint),
                          constraint)


def grid_coverage(scenario: NetworkScenario, resolution: int = 101,
                  constraints=None) -> float:
    """Fraction of the [0,1]^2 availability grid inside the region (K=2).

    `constraints` is checked as in `contains`: a key outside {0, 1}, a
    value that is not a PolicySpec or a cutoff outside [1, N_k] is a
    ScenarioError.
    """
    t = _two_tier_grid(scenario, resolution)
    # Whole grid rows, at most about _GRID_BLOCK lanes per call, bound the memory.
    rows = np.array_split(t, -(-t.size ** 2 // _GRID_BLOCK))
    return sum(int(_inside(scenario, np.column_stack((np.repeat(r, t.size), np.tile(t, r.size))),
                           constraints).sum()) for r in rows) / t.size ** 2
