"""Closed-form availability analysis for K-tier harvesting networks.

Ties together the geometric side (mean service areas, energy utilization
rates) and the temporal side (per-BS birth-death chains) into the coupled
fixed-point system for the availability vector rho.  Every tier sees rho
only through the weighted ON density D = sum_j rho_j lambda_j w_j, so the
K-dimensional fixed point is the largest root of one scalar equation in D,
which has a positive root whenever the energy-conservation condition
gamma > 1 holds.  `_outer_root` finds such roots for many lanes at once,
bisecting with one vectorized call per several levels; the region
boundaries use it too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import markov
from .coverage import coverage_prob
from .model import (
    NetworkScenario,
    ScenarioError,
    _check_integer,
    check_availability_vector,
    validate,
)

# Descending scan for the outermost root, as fractions of the range: linear
# steps, then a geometric tail towards 0 for roots vanishing like gamma - 1.
_SCAN = np.concatenate([np.linspace(1.0, 1.0 / 64, 64),
                        np.geomspace(1.0 / 64, 1e-300, 150)[1:]])
# Bisection points per h call: each call takes as many levels as keep
# lanes * (2^levels - 1) within this; six for one lane, one (plain
# bisection) from 33 lanes on.
_TREE_POINTS = 64


class NonConvergenceError(RuntimeError):
    """The fixed-point bisection ran out of steps; carries the last state."""

    def __init__(self, rho: np.ndarray, residual: float, iterations: int):
        self.rho = rho
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"no fixed point within {iterations} iterations "
            f"(residual {residual:.3e})")


@dataclass(frozen=True)
class FixedPointResult:
    """Availability fixed point plus solver diagnostics.

    `iterations`: bisection steps after the scan; `evaluations`: calls of
    the vectorized fixed-point map, the scan included; `residual`:
    max_k |a_k(s_k(D(rho))) - rho_k|; `bracket`: max_k |rho_k(D_hi) -
    rho_k(D_lo)| over the final bracket of the root, a bound on the error.
    """

    rho: np.ndarray
    iterations: int
    residual: float
    feasible: bool
    bracket: float = 0.0
    evaluations: int = 0


def mean_service_area(scenario: NetworkScenario, rho, k: int) -> float:
    """Mean service-region area of an ON tier-k BS.

    w_k / sum_j rho_j lambda_j w_j with w the shadowing-power weights; the
    areas weighted by rho_k lambda_k sum to one over tiers.
    """
    rho = check_availability_vector(rho, scenario.k_tiers)
    denom = rho @ (scenario.densities() * scenario.tier_weights())
    if denom <= 0.0:
        raise ScenarioError("no BS available: weighted ON density is zero")
    return float(scenario.tier_weights()[k] / denom)


def energy_utilization(scenario: NetworkScenario, rho, k: int) -> float:
    """nu_k: mean energy units consumed per second by an ON tier-k BS."""
    pc = coverage_prob(scenario)
    return pc * scenario.user_density * mean_service_area(scenario, rho, k)


def _tier_constants(scenario: NetworkScenario) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_j w_j, mu_j/(lambda_u P_c w_j)): D = rho @ first, s_j = second_j D."""
    w = scenario.tier_weights()
    slope = scenario.harvest_rates() / (
        scenario.user_density * coverage_prob(scenario) * w)
    return scenario.densities() * w, slope


def load_ratio(scenario: NetworkScenario, rho, k: int) -> float:
    """s_k = mu_k / nu_k(rho), the birth-death ratio of tier k at load rho."""
    rho = check_availability_vector(rho, scenario.k_tiers)
    on_weight, slope = _tier_constants(scenario)
    return float(slope[k] * (rho @ on_weight))


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
    area and time over effective demand.  A positive availability fixed
    point exists iff gamma exceeds one.
    """
    validate(scenario)
    harvested = float(np.sum(scenario.densities() * scenario.harvest_rates()))
    gamma = harvested / (scenario.user_density * coverage_prob(scenario))
    return gamma > 1.0, gamma


def energy_outage_bound(scenario: NetworkScenario) -> float:
    """Lower bound on the fraction of users that must be dropped: max(0, 1-gamma)."""
    _, gamma = check_feasibility(scenario)
    return max(0.0, 1.0 - gamma)


def equivalence_check(scenario: NetworkScenario, rho) -> bool:
    """True iff mu_k/nu_k(rho) > rho_k for every tier (all rho_k > 0).

    At the fixed point this holds exactly when gamma > 1; it is the
    per-tier form of the energy conservation principle.
    """
    rho = check_availability_vector(rho, scenario.k_tiers)
    if np.any(rho <= 0.0):
        raise ScenarioError("equivalence check requires strictly positive rho")
    return all(
        load_ratio(scenario, rho, k) > rho[k] for k in range(scenario.k_tiers))


def _cutoffs(scenario: NetworkScenario, policy) -> list[int]:
    """Per-tier cutoffs from None (S(1) everywhere) or one PolicySpec per tier."""
    if policy is None:
        return [1] * scenario.k_tiers
    if len(policy) != scenario.k_tiers:
        raise ScenarioError(
            f"policy list must have {scenario.k_tiers} entries (got {len(policy)})")
    for p, tier in zip(policy, scenario.tiers):
        _check_integer(p.cutoff, "cutoff", 1, tier.battery)
    return [p.cutoff for p in policy]


def _outer_root(h, top, tol: float, max_iter: int | None = None):
    """Outermost root of h below `top` in every lane: scan, then bisection.

    h maps points x to (excess, y): excess >= 0 just below the outermost
    root, < 0 above it; y (shape x.shape + (M,)) grows with x.  Lanes are
    bisected in lock step until max |y(hi) - y(lo)| <= tol or lo, hi are
    adjacent doubles; lo = hi = top if excess(top) >= 0, lo = hi = 0 if no
    sign change.  After the scan, each h call evaluates the tree of
    midpoints of the next few levels (up to _TREE_POINTS points), each the
    0.5 * (a + b) of its own parent bracket, and the lanes walk it; so lo,
    hi and the step count equal one-midpoint bisection's bit for bit.  With
    many lanes the tree is one level: plain bisection.  Returns (lo, hi,
    bracket, steps, unfinished lanes, h calls).
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
    depth = max(1, int(np.log2(_TREE_POINTS // top.size + 1)))
    steps, calls = 0, 1
    while True:
        bracket = np.abs(y_hi - y_lo).max(axis=-1)
        mid = 0.5 * (lo + hi)
        live = (bracket > tol) & (lo < mid) & (mid < hi)
        if steps == max_iter or not live.any():
            return lo, hi, bracket, steps, live, calls
        calls += 1
        levels = depth if max_iter is None else min(depth, max_iter - steps)
        if levels == 1:
            excess, y_mid = h(mid)
            up = live & (excess >= 0.0)
            down = live & ~up
            lo = np.where(up, mid, lo)
            hi = np.where(down, mid, hi)
            y_lo = np.where(up[:, None], y_mid, y_lo)
            y_hi = np.where(down[:, None], y_mid, y_hi)
            steps += 1
            continue
        # Breakpoints x of `levels` nested bisections of [lo, hi], in order.
        x = np.stack([lo, hi])
        for _ in range(levels):
            finer = np.empty((2 * len(x) - 1, top.size))
            finer[::2], finer[1::2] = x, 0.5 * (x[:-1] + x[1:])
            x = finer
        excess, y_in = h(x[1:-1])
        y = np.concatenate([y_lo[None], y_in, y_hi[None]])
        # Tree node i spans [x[left[i]], x[right[i]]] with midpoint x[c[i]];
        # its step goes to child 2i + 1 ([lo, mid]) or 2i + 2 ([mid, hi]).
        left, right = _heap_spans(levels)
        n = 2 ** levels - 1                        # nodes with a midpoint
        a, b = left[:n], right[:n]
        c = (a + b) // 2
        node_live = ((np.abs(y[b] - y[a]).max(axis=-1) > tol)
                     & (x[a] < x[c]) & (x[c] < x[b]))
        i = np.arange(n)[:, None]
        child = np.where(node_live, 2 * i + 1 + (excess[c - 1] >= 0.0), i)
        node = np.zeros(top.size, dtype=np.intp)
        for _ in range(levels):
            node = child[node, lanes]
        # A level is a step while any lane takes it: the deepest one reached.
        steps += int(node.max() + 1).bit_length() - 1
        lo, hi = x[left[node], lanes], x[right[node], lanes]
        y_lo, y_hi = y[left[node], lanes], y[right[node], lanes]


def _heap_spans(levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoint indices (left, right) of every node of a bisection tree.

    Heap order, root first, over `levels` levels plus the leaves' children;
    a node at level l spans 2^(levels - l) of the 2^levels finest intervals.
    """
    n = np.arange(1, 2 ** (levels + 1))
    width = 2 ** (levels + 1) >> np.frexp(n)[1]
    left = n * width - 2 ** levels
    return left, left + width


def solve_availability(scenario: NetworkScenario, policy=None,
                       tolerance: float = 1e-10,
                       max_iter: int = 100_000) -> FixedPointResult:
    """Largest solution of rho_k = a_k(s_k(rho)) for all tiers, as a scalar root.

    Tier k sees rho only through D = sum_j rho_j lambda_j w_j, at load
    ratio s_k = mu_k D/(lambda_u P_c w_k), so rho_k = a_k(s_k(D*)) at the
    largest root D* of sum_j lambda_j w_j a_j(s_j(D)) = D.  a_k is the
    availability under the tier's cutoff in `policy` (default S(1), g).
    D* is bisected until the rho at the bracket ends differ by at most
    `tolerance` or the ends are adjacent doubles; rho is taken at the
    midpoint.  Each evaluation of the tier availabilities covers the next
    six bisection levels, so `evaluations` is the scan plus about a sixth
    of `iterations`.  Infeasible scenarios (gamma <= 1) return all zeros.
    """
    if not tolerance > 0:
        raise ScenarioError(f"tolerance must be > 0 (got {tolerance})")
    _check_integer(max_iter, "max_iter", 1)
    feasible, _ = check_feasibility(scenario)
    cutoffs = _cutoffs(scenario, policy)
    if not feasible:
        return FixedPointResult(rho=np.zeros(scenario.k_tiers), iterations=0,
                                residual=0.0, feasible=False)
    on_weight, slope = _tier_constants(scenario)
    tiers = list(zip(slope, scenario.batteries(), cutoffs))

    def availabilities(d):
        return np.stack([markov.tier_availability(s * d, n, c)
                         for s, n, c in tiers], axis=-1)

    def h(d):
        rho = availabilities(d)
        return rho @ on_weight - d, rho

    lo, hi, bracket, steps, live, calls = _outer_root(
        h, [on_weight.sum()], tolerance, max_iter)
    rho = availabilities(0.5 * (lo[0] + hi[0]))
    residual = float(np.max(np.abs(availabilities(rho @ on_weight) - rho)))
    if live[0]:
        raise NonConvergenceError(rho, residual, steps)
    return FixedPointResult(rho=rho, iterations=steps, residual=residual,
                            feasible=True, bracket=float(bracket[0]),
                            evaluations=calls)
