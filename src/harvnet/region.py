"""Availability region: which availability vectors are jointly achievable.

The region boundary for tier k given the other tiers' availabilities is
the largest root of rho_k = a_k(s_k(D)), D = D_others + lambda_k w_k rho_k:
the fixed-point solver's scalar equation with the other tiers held fixed.
Membership compares each coordinate with its conditional boundary; a sweep
solves all its grid points as lanes of one root search.  A tier can also
be pinned to a recharge policy S(c), which shrinks the region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analytic, markov
from .model import NetworkScenario, ScenarioError, check_availability_vector

_TOL = 1e-10          # bisection width on rho_k
_MEMBER_TOL = 1e-6    # slack for membership tests at the boundary itself
_LANE_BLOCK = 2048    # grid lanes per root search


@dataclass(frozen=True)
class RegionBoundary:
    """Sampled boundary curve rho_k*(other availability) for a two-tier network."""

    tier: int
    grid: np.ndarray
    values: np.ndarray
    policy_constraint: markov.PolicySpec | None = None


def _boundaries(scenario: NetworkScenario, k: int, others: np.ndarray,
                constraint: markov.PolicySpec | None, tol: float) -> np.ndarray:
    """Tier-k boundary for each row of `others`, the other tiers' rho."""
    on_weight, slope = analytic._tier_constants(scenario)
    d_others = others @ np.delete(on_weight, k)
    battery, cutoff = scenario.tiers[k].battery, getattr(constraint, "cutoff", 1)

    def block(d):
        def h(x):
            s = slope[k] * (d + on_weight[k] * x)
            return markov.tier_availability(s, battery, cutoff) - x, x[..., None]

        lo, hi, *_ = analytic._outer_root(h, np.ones(d.size), tol)
        return 0.5 * (lo + hi)

    # The root scan holds a full scan column per lane; blocks cap its memory.
    # A sweep's many lanes bisect one level per call; a single `boundary`
    # lane gets the next six levels from each call.
    return np.concatenate([block(d_others[i:i + _LANE_BLOCK])
                           for i in range(0, d_others.size, _LANE_BLOCK)])


def boundary(scenario: NetworkScenario, k: int, fixed_others,
             constraint: markov.PolicySpec | None = None,
             tol: float = _TOL) -> float:
    """Largest rho_k in [0, 1] with rho_k = g_k(rho), others held fixed.

    Returns 0.0 when no positive root exists (the tier cannot be ON at all
    given the conditioning load) and 1.0 when g_k rounds to 1 there.  With
    `constraint`, the S(cutoff) availability formula replaces g_k.
    """
    if not tol > 0:
        raise ScenarioError(f"tol must be > 0 (got {tol})")
    others = check_availability_vector(fixed_others, scenario.k_tiers - 1)
    return float(_boundaries(scenario, k, others[None, :], constraint, tol)[0])


def contains(scenario: NetworkScenario, rho, constraints=None,
             tol: float = _MEMBER_TOL) -> bool:
    """True iff every rho_k is at most its conditional boundary value.

    The region lives inside the unit box, so any point with a component
    outside [0, 1] is reported as not contained rather than rejected; that
    keeps perturbation probes just past a boundary at 1 well defined.
    `constraints` maps tier index to a PolicySpec for tiers pinned to a
    recharge policy; unlisted tiers use the unconstrained boundary.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (scenario.k_tiers,):
        raise ScenarioError(
            f"expected {scenario.k_tiers} availabilities (got shape {rho.shape})")
    if np.any(rho < 0.0) or np.any(rho > 1.0):
        return False
    constraints = constraints or {}
    return all(rho[k] <= boundary(scenario, k, np.delete(rho, k),
                                  constraints.get(k)) + tol
               for k in range(scenario.k_tiers))


def sweep_boundary(scenario: NetworkScenario, k: int,
                   grid_resolution: int = 101,
                   constraint: markov.PolicySpec | None = None) -> RegionBoundary:
    """Boundary curve of tier k against the other tier's availability (K=2)."""
    if scenario.k_tiers != 2:
        raise ScenarioError(
            f"boundary sweeps require exactly 2 tiers (got {scenario.k_tiers})")
    if grid_resolution < 2:
        raise ScenarioError(f"grid_resolution must be >= 2 (got {grid_resolution})")
    grid = np.linspace(0.0, 1.0, grid_resolution)
    values = _boundaries(scenario, k, grid[:, None], constraint, _TOL)
    return RegionBoundary(tier=k, grid=grid, values=values,
                          policy_constraint=constraint)


def grid_coverage(scenario: NetworkScenario, resolution: int = 101,
                  constraints=None) -> float:
    """Fraction of the [0,1]^2 availability grid inside the region (K=2)."""
    constraints = constraints or {}
    b0 = sweep_boundary(scenario, 0, resolution, constraints.get(0))
    b1 = sweep_boundary(scenario, 1, resolution, constraints.get(1))
    t = b0.grid
    # Point (t[i], t[j]) is inside iff t[i] clears the tier-0 boundary at
    # rho_1 = t[j] and t[j] clears the tier-1 boundary at rho_0 = t[i].
    in0 = t[:, None] <= b0.values[None, :] + _MEMBER_TOL
    in1 = t[None, :] <= b1.values[:, None] + _MEMBER_TOL
    return float((in0 & in1).mean())
