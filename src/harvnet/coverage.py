"""SIR coverage probability and downlink rate distribution.

The coverage probability of the max-average-power cell selection model in an
interference-limited K-tier network collapses to Pc = 1/(1 + F(beta, alpha)),
independent of the tier densities, powers, shadowing and availabilities.  The
rate CCDF combines per-tier association probabilities with a 3.5-law load
model in which only covered users (effective density Pc*lambda_u) consume
base-station resources.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .model import NetworkScenario, ScenarioError, check_availability_vector

_LGAMMA_3_5 = math.lgamma(3.5)
_LOG_3_5 = math.log(3.5)


class SeriesTruncationError(RuntimeError):
    """Rate series hit max_terms before the tail bound fell below tolerance."""

    def __init__(self, partial_sum: float, tail_bound: float, terms: int):
        self.partial_sum = partial_sum
        self.tail_bound = tail_bound
        self.terms = terms
        super().__init__(
            f"rate series not converged after {terms} terms: "
            f"partial_sum={partial_sum!r}, tail_bound={tail_bound!r}")


@lru_cache(maxsize=4096)
def hyper_f(beta: float, alpha: float) -> float:
    """F(beta, alpha) = (2 beta/(alpha-2)) 2F1[1, 1-2/a; 2-2/a; -beta].

    Evaluated through the Euler integral after the substitution
    u = t^((alpha-2)/alpha), which removes the endpoint singularity:

        F = (2 beta/(alpha-2)) * int_0^1 du / (1 + beta u^(alpha/(alpha-2))).

    The integrand is smooth; a quadrature break point at the knee
    u = beta^(-(alpha-2)/alpha) keeps large beta accurate.
    """
    if alpha <= 2:
        raise ScenarioError(f"path_loss_exp must exceed 2 (got {alpha})")
    if beta < 0:
        raise ScenarioError(f"sir threshold must be >= 0 (got {beta})")
    if beta == 0:
        return 0.0
    from scipy.integrate import quad  # loads scipy.optimize: not at import
    p = alpha / (alpha - 2.0)
    pts = None
    if beta > 1.0:
        knee = beta ** (-1.0 / p)
        if 0.0 < knee < 1.0:
            pts = [knee]
    val, _ = quad(lambda u: 1.0 / (1.0 + beta * u ** p), 0.0, 1.0,
                  epsabs=1e-13, epsrel=1e-13, limit=200, points=pts)
    return 2.0 * beta / (alpha - 2.0) * val


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


def load_pmf(x: float, n: int | np.ndarray):
    """3.5-law pmf of the number of other users sharing the serving BS.

    P(Psi - 1 = n) = (3.5^3.5/n!) (Gamma(n+4.5)/Gamma(3.5)) x^n (3.5+x)^-(n+4.5)
    with mean-load parameter x >= 0.  Computed in log space: Gamma(n+4.5)
    overflows doubles near n = 170.
    """
    if x < 0:
        raise ScenarioError(f"mean load parameter must be >= 0 (got {x})")
    narr = np.atleast_1d(np.asarray(n, dtype=np.int64))
    if x == 0.0:
        out = np.where(narr == 0, 1.0, 0.0)
    else:
        logp = (3.5 * _LOG_3_5 - gammaln(narr + 1.0) + gammaln(narr + 4.5)
                - _LGAMMA_3_5 + narr * math.log(x)
                - (narr + 4.5) * math.log(3.5 + x))
        out = np.exp(logp)
    return out if np.ndim(n) else float(out[0])


@dataclass(frozen=True)
class RateQuery:
    """Target rate (bps/Hz) plus series controls for the rate CCDF."""

    rate_target: float
    series_tolerance: float = 1e-10
    max_terms: int = 2000

    def __post_init__(self):
        if self.rate_target < 0:
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
    lam = scenario.densities()
    active = assoc > 0
    x = np.zeros(scenario.k_tiers)
    x[active] = pc * scenario.user_density * assoc[active] / (rho[active] * lam[active])

    total = 0.0
    cum_mass = 0.0
    for n in range(query.max_terms):
        expo = t_rate * (n + 1)
        if expo > 1000.0:
            cov = 0.0  # beta overflows; coverage is numerically zero
        else:
            cov = 1.0 / (1.0 + hyper_f(2.0 ** expo - 1.0, alpha))
        mass = float(np.sum(assoc[active] * load_pmf_vector(x[active], n)))
        term = cov * mass
        total += term
        cum_mass += mass
        tail = (1.0 - cum_mass) * cov
        if tail < query.series_tolerance and term < query.series_tolerance:
            return total
    raise SeriesTruncationError(total, (1.0 - cum_mass) * cov, query.max_terms)


def load_pmf_vector(xs: np.ndarray, n: int) -> np.ndarray:
    """load_pmf evaluated at a fixed n for an array of load parameters."""
    xs = np.asarray(xs, dtype=float)
    out = np.zeros_like(xs)
    zero = xs == 0.0
    out[zero] = 1.0 if n == 0 else 0.0
    pos = ~zero
    if np.any(pos):
        xp = xs[pos]
        logp = (3.5 * _LOG_3_5 - math.lgamma(n + 1.0) + math.lgamma(n + 4.5)
                - _LGAMMA_3_5 + n * np.log(xp) - (n + 4.5) * np.log(3.5 + xp))
        out[pos] = np.exp(logp)
    return out
