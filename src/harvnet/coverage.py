"""SIR coverage probability and downlink rate distribution.

The coverage probability of the max-average-power cell selection model in an
interference-limited K-tier network collapses to Pc = 1/(1 + F(beta, alpha)),
independent of the tier densities, powers, shadowing and availabilities.
F has the closed form (2 beta/(alpha-2)) 2F1(1, 1-2/alpha; 2-2/alpha; -beta)
and reduces to sqrt(beta) arctan(sqrt(beta)) at alpha = 4; both evaluate
over arrays of beta, so nothing is cached.  The rate CCDF combines per-tier
association probabilities with a 3.5-law load model in which only covered
users (effective density Pc*lambda_u) consume base-station resources.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, hyp2f1, xlogy

from .model import NetworkScenario, ScenarioError, check_availability_vector

# log(3.5^3.5 / Gamma(3.5)), the constant of the 3.5-law load pmf.
_LOG_PMF_CONST = 3.5 * math.log(3.5) - math.lgamma(3.5)
# Terms of the rate series evaluated per array pass.
_BLOCK = 64
# 2^1000 - 1 is the largest SIR threshold the series evaluates; beyond it
# the coverage factor is taken as zero.
_MAX_EXPO = 1000.0


class SeriesTruncationError(RuntimeError):
    """Rate series hit max_terms before the tail bound fell below tolerance."""

    def __init__(self, partial_sum: float, tail_bound: float, terms: int):
        self.partial_sum = partial_sum
        self.tail_bound = tail_bound
        self.terms = terms
        super().__init__(
            f"rate series not converged after {terms} terms: "
            f"partial_sum={partial_sum!r}, tail_bound={tail_bound!r}")


def hyper_f(beta, alpha: float):
    """F(beta, alpha) = (2 beta/(alpha-2)) 2F1[1, 1-2/a; 2-2/a; -beta].

    Takes a scalar or an array of thresholds beta >= 0 and returns the
    same shape (a float for a scalar).  At alpha = 4 the exact form
    sqrt(beta) arctan(sqrt(beta)) is used, which keeps F(1, 4) = pi/4 to
    the last bit; elsewhere scipy's hyp2f1, multiplied by beta before the
    constant 2/(alpha-2), so that 2 beta never forms and overflows.
    """
    if not alpha > 2:
        raise ScenarioError(f"path_loss_exp must exceed 2 (got {alpha})")
    b = np.asarray(beta, dtype=float)
    if not np.all(np.isfinite(b) & (b >= 0)):
        raise ScenarioError(f"sir threshold must be finite and >= 0 (got {beta})")
    if alpha == 4.0:
        root = np.sqrt(b)
        f = root * np.arctan(root)
    else:
        f = 2.0 / (alpha - 2.0) * (
            b * hyp2f1(1.0, 1.0 - 2.0 / alpha, 2.0 - 2.0 / alpha, -b))
    return float(f) if f.ndim == 0 else f


def coverage_prob(scenario: NetworkScenario) -> float:
    """P(SIR > beta) for the typical user; independent of the availabilities."""
    return 1.0 / (1.0 + hyper_f(scenario.sir_target, scenario.path_loss_exp))


def tier_association_prob(scenario: NetworkScenario, rho, k: int | None = None):
    """Probability the typical user is served by tier k, given availabilities.

    Returns the full length-K vector when k is omitted; the entries are
    proportional to rho_k lambda_k times the shadowing-power weight and
    sum to one.
    """
    rho = check_availability_vector(rho, scenario.k_tiers)
    w = rho * scenario.densities() * scenario.tier_weights()
    total = w.sum()
    if total <= 0:
        raise ScenarioError("no BS available: weighted ON density is zero")
    probs = w / total
    return probs if k is None else float(probs[k])


def load_pmf(x, n):
    """3.5-law pmf of the number of other users sharing the serving BS.

    P(Psi - 1 = n) = (3.5^3.5/n!) (Gamma(n+4.5)/Gamma(3.5)) x^n (3.5+x)^-(n+4.5)
    with mean-load parameter x >= 0; broadcasts over x and n and returns a
    float when both are scalars.  Computed in log space: Gamma(n+4.5)
    overflows doubles near n = 170.  At x = 0 all mass sits on n = 0.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ScenarioError(f"mean load parameter must be >= 0 (got {x})")
    n = np.asarray(n, dtype=np.int64)
    logp = (_LOG_PMF_CONST - gammaln(n + 1.0) + gammaln(n + 4.5)
            + xlogy(n, x) - (n + 4.5) * np.log(3.5 + x))
    out = np.exp(logp)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class RateQuery:
    """Target rate (bps/Hz) plus series controls for the rate CCDF."""

    rate_target: float
    series_tolerance: float = 1e-10
    max_terms: int = 2000

    def __post_init__(self):
        if not self.rate_target >= 0:
            raise ScenarioError(f"rate_target must be >= 0 (got {self.rate_target})")
        if self.series_tolerance <= 0 or self.max_terms < 1:
            raise ScenarioError("series_tolerance must be > 0 and max_terms >= 1")


def rate_ccdf(scenario: NetworkScenario, rho, query: RateQuery) -> float:
    """P(R > T) where R = (1/Psi) log2(1 + SIR) with equal resource sharing.

    Series over the load n of the serving BS; the n-th term multiplies the
    coverage factor 1/(1 + F(2^(T(n+1)) - 1, alpha)) by the association-mixed
    load pmf.  Truncation uses the rigorous tail bound
    (1 - accumulated pmf mass) * current coverage factor, which dominates the
    remaining terms because the coverage factor decreases in n; this never
    truncates before the raw term has itself fallen below tolerance.
    """
    t_rate = query.rate_target
    if t_rate == 0.0:
        # Every coverage factor is 1 and the load pmf sums to 1.
        return 1.0
    rho = check_availability_vector(rho, scenario.k_tiers)
    assoc = tier_association_prob(scenario, rho)
    alpha = scenario.path_loss_exp
    pc = coverage_prob(scenario)
    active = assoc > 0
    pmf_w = assoc[active]
    pmf_x = pc * scenario.user_density * pmf_w / (
        rho[active] * scenario.densities()[active])

    # Blocks of _BLOCK terms at a time.  The running sums are seeded with
    # the previous block's totals and accumulate in term order, exactly as
    # a term-by-term loop would.
    total, cum_mass = 0.0, 0.0
    for start in range(0, query.max_terms, _BLOCK):
        n = np.arange(start, min(start + _BLOCK, query.max_terms))
        expo = t_rate * (n + 1)
        beta = np.exp2(np.minimum(expo, _MAX_EXPO)) - 1.0
        cov = np.where(expo > _MAX_EXPO, 0.0, 1.0 / (1.0 + hyper_f(beta, alpha)))
        mass = (load_pmf(pmf_x, n[:, None]) * pmf_w).sum(axis=1)
        term = cov * mass
        sums = np.cumsum(np.concatenate(([total], term)))[1:]
        masses = np.cumsum(np.concatenate(([cum_mass], mass)))[1:]
        tail = (1.0 - masses) * cov
        done = (tail < query.series_tolerance) & (term < query.series_tolerance)
        if done.any():
            return float(sums[np.argmax(done)])
        total, cum_mass = float(sums[-1]), float(masses[-1])
    raise SeriesTruncationError(total, float(tail[-1]), query.max_terms)
