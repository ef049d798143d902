"""SIR coverage probability and downlink rate distribution.

The coverage probability of the max-average-power cell selection model in an
interference-limited K-tier network collapses to Pc = 1/(1 + F(beta, alpha)),
independent of the tier densities, powers, shadowing and availabilities.
F has the closed form (2 beta/(alpha-2)) 2F1(1, 1-2/alpha; 2-2/alpha; -beta)
and reduces to sqrt(beta) arctan(sqrt(beta)) at alpha = 4; both evaluate
over arrays of beta, and hyper_f caches nothing; coverage_prob keeps P_c
per (beta, alpha) in a memo (_coverage).  Every rho-dependent quantity
sees rho only through D = sum_k rho_k lambda_k w_k, which _on_terms alone
forms, for this module and for analytic and region; the
association A_k = rho_k lambda_k w_k / D and the tier loads x_k = Pc
lambda_u w_k / D (_tier_loads, also the energy utilization nu_k) are formed
here too.  The rate CCDF is P(R > T) = sum_k A_k G_T(x_k): the A_k mix one
series G_T per tier load x_k of a 3.5-law load model in which only covered
users (effective density Pc*lambda_u) consume base-station resources.
The series' rho-independent blocks sit in two more memos: _series_block's
coverage factors per (T, alpha) and _log_nb_block's load-pmf coefficients.
Each memo keeps a bounded number of entries, stated in its docstring (at
most 3 MiB in all), and returns the same value computed or recalled.
Only hyper_f at alpha != 4 needs scipy (for 2F1), and imports it there, so
the alpha = 4 path never loads scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import (NetworkScenario, ScenarioError, _check_integer, _check_nonnegative,
                    _check_path_loss_exp, _check_positive, check_availability_vector)

# 4.5 log 3.5 and log Gamma(4.5), constants of the 3.5-law load pmf.
_LOG_PMF_CONST = 4.5 * math.log(3.5)
_LGAMMA_4P5 = math.lgamma(4.5)
# Terms of the rate series' first array pass; also the block length of the
# load pmf's log-gamma ratio.  Later passes double, up to _MAX_BLOCK terms.
_BLOCK = 64
_MAX_BLOCK = 64 * _BLOCK
_STEPS = np.arange(1.0, _BLOCK)
# Largest temporary, in doubles, of one chunk of rate series loads.
_LANE_BUDGET = 1 << 17
# Every block end within _LANE_BUDGET terms: where a first pass may end.
_ENDS = np.cumsum([min(_BLOCK << i, _MAX_BLOCK) for i in range(64)])
_ENDS = _ENDS[_ENDS <= _LANE_BUDGET]
# The fixed cost of one pass of the rate series, in terms of one load.
_PASS_TERMS = 2048
# The least normal double: a sum of ON terms below it has lost digits.
_TINY = np.finfo(float).tiny
# 2^1000 - 1 is the largest SIR threshold the series evaluates; beyond it
# the coverage factor is taken as zero.
_MAX_EXPO = 1000.0


def hyper_f(beta, alpha: float):
    """F(beta, alpha) = (2 beta/(alpha-2)) 2F1[1, 1-2/a; 2-2/a; -beta].

    Takes a scalar or an array of thresholds beta >= 0 and returns the
    same shape (a float for a scalar).  At alpha = 4 the exact form
    sqrt(beta) arctan(sqrt(beta)) is used, which keeps F(1, 4) = pi/4 to
    the last bit; elsewhere scipy's hyp2f1, multiplied by beta before the
    constant 2/(alpha-2), so that 2 beta never forms and overflows.  An F
    past the float range is inf, which makes the coverage probability 0.
    """
    _check_path_loss_exp(alpha)
    b = _check_nonnegative(beta, "sir threshold")
    if alpha == 4.0:
        root = np.sqrt(b)
        f = root * np.arctan(root)
    else:
        from scipy.special import hyp2f1
        with np.errstate(over="ignore"):
            f = 2.0 / (alpha - 2.0) * (
                b * hyp2f1(1.0, 1.0 - 2.0 / alpha, 2.0 - 2.0 / alpha, -b))
    return float(f) if f.ndim == 0 else f


def coverage_prob(scenario: NetworkScenario) -> float:
    """P(SIR > beta) for the typical user; independent of the availabilities."""
    return _coverage(scenario.sir_target, scenario.path_loss_exp)


@functools.lru_cache(maxsize=256)
def _coverage(beta: float, alpha: float) -> float:
    """1/(1 + F(beta, alpha)), the memo behind coverage_prob.

    It keeps the last 256 (beta, alpha) pairs, one float each, so a few
    tens of KiB with their keys; a value is the same float whether
    computed or recalled.
    """
    return 1.0 / (1.0 + hyper_f(beta, alpha))


def _on_terms(scenario: NetworkScenario, rho: np.ndarray):
    """(rho_k lambda_k w_k, D, w) along the last axis of rho: D sums the terms, w the weights.

    The one place D is formed.  Products and a plain sum, no matmul, so a
    lane's D has the same bits inside any stack as alone.
    """
    weights = scenario.tier_weights()
    terms = rho * scenario.densities() * weights
    return terms, terms.sum(axis=-1), weights


def _association(scenario: NetworkScenario, rho: np.ndarray):
    """Association probabilities of validated lanes rho (L, K), row by row.

    Returns (A, D, w): A_k = rho_k lambda_k w_k / D, each row's D from
    _on_terms, shape (L, 1), and the tier weights w.  A row whose D is not
    a normal positive double has terms that under- or overflowed: its A_k
    are the ratios of the terms scaled by a power of two from the factors'
    exponents, which is exact, and its D stays as formed.
    """
    terms, total, weights = _on_terms(scenario, rho)
    share = total
    # Each row's D, if any, is a normal positive double: the plain ratios stand.
    if not _TINY <= total.min(initial=_TINY) <= total.max(initial=_TINY) < math.inf:
        lost = ~((total >= _TINY) & (total < math.inf))
        (m_r, e_r), (m_d, e_d), (m_w, e_w) = map(np.frexp, (rho[lost], scenario.densities(),
                                                            weights))
        # A tier with rho_k = 0 takes no part in the row's largest exponent.
        expo = np.where(m_r > 0, e_r + e_d + e_w, np.iinfo(np.int32).min // 2)
        terms[lost] = np.ldexp(m_r * m_d * m_w, expo - expo.max(axis=1, keepdims=True))
        share = terms.sum(axis=1)     # the other rows sum as in _on_terms
        if not (share > 0).all():
            raise ScenarioError("no BS available: weighted ON density is zero")
    return terms / share[:, None], total[:, None], weights


def _tier_loads(scenario: NetworkScenario, total: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """x_k = P_c lambda_u w_k / D for each D of `total` (L, 1), shape (L, K).

    The mean load on a serving tier-k BS, which is also its energy
    utilization nu_k; a load past the float range is inf.  `weights`
    holds the w_k.
    """
    return coverage_prob(scenario) * scenario.user_density * weights / total


def _float_range_error(scenario: NetworkScenario, what: str) -> ScenarioError:
    """The error for a value past the float range, naming the fields that set it."""
    return ScenarioError(f"{what} leaves the float range (user_density="
                         f"{scenario.user_density}, density={scenario.densities().tolist()})")


def tier_association_prob(scenario: NetworkScenario, rho, k: int | None = None):
    """Probability the typical user is served by tier k, given availabilities.

    Returns the full length-K vector when k is omitted; the entries are
    proportional to rho_k lambda_k times the shadowing-power weight and
    sum to one.
    """
    if k is not None:
        _check_integer(k, "tier", 0, scenario.k_tiers - 1)
    rho = check_availability_vector(rho, scenario.k_tiers)
    # ON terms that overflow are rescaled by _association.
    with np.errstate(over="ignore"):
        probs = _association(scenario, rho[None, :])[0][0]
    return probs if k is None else float(probs[k])


def _log_nb_table(first: np.ndarray) -> np.ndarray:
    """L(n) = log[Gamma(n+4.5) / (Gamma(4.5) n!)] for n = first[i] + j, j < _BLOCK.

    Row i holds the _BLOCK values from the aligned first[i]: one lgamma pair
    at its start (none at 0) plus a running sum of log((k+4.5)/(k+1)), so
    each value depends on n alone.
    """
    out = np.empty((first.size, _BLOCK))
    out[:, 0] = [math.lgamma(f + 4.5) - _LGAMMA_4P5 - math.lgamma(f + 1.0) if f else 0.0
                 for f in first.tolist()]
    np.cumsum(np.log1p(3.5 / (first[:, None] + _STEPS)), axis=1, out=out[:, 1:])
    out[:, 1:] += out[:, :1]
    return out


def _log_nb_coef(n: np.ndarray) -> np.ndarray:
    """L(n) for an int64 array n >= 0, from one table row per distinct n // _BLOCK."""
    block, offset = np.divmod(n, _BLOCK)
    anchors = np.unique(block)
    table = _log_nb_table(anchors * _BLOCK).ravel()
    return table[np.searchsorted(anchors, block) * _BLOCK + offset]


def _pmf_logs(x: np.ndarray):
    """Per-x parts of the log load pmf: log q and the constant.

    log q = log x - log(3.5+x), with log x read as 0 at x = 0, and the
    constant is 4.5 log 3.5 - 4.5 log(3.5+x); see load_pmf.
    """
    log_s = np.log(3.5 + x)
    return np.log(np.where(x > 0, x, 1.0)) - log_s, _LOG_PMF_CONST - 4.5 * log_s


def load_pmf(x, n):
    """3.5-law pmf of the number of other users sharing the serving BS.

    P(Psi - 1 = n) = (3.5^3.5/n!) (Gamma(n+4.5)/Gamma(3.5)) x^n (3.5+x)^-(n+4.5)
    with finite mean-load parameter x >= 0 and integer n >= 0; broadcasts over x
    and n and returns a float when both are scalars.  This is the negative binomial
    NB(4.5, x/(3.5+x)), computed in log space because Gamma(n+4.5)
    overflows doubles near n = 170:
    log p = L(n) + n (log x - log(3.5+x)) + 4.5 log 3.5 - 4.5 log(3.5+x).
    At x = 0 all mass sits on n = 0.
    """
    x = _check_nonnegative(x, "mean load parameter")
    count = np.asarray(n)
    # An integer dtype only: a float, bool or Python int past int64 is refused.
    if count.dtype.kind not in "iu" or (count.astype(np.int64) < 0).any():
        raise ScenarioError(f"load count must be an integer in [0, 2**63) (got {n!r})")
    n = count.astype(np.int64)
    log_q, const = _pmf_logs(x)
    out = np.where(x > 0, np.exp(_log_nb_coef(n) + n * log_q + const), n == 0)
    return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=32)
def _series_block(t_rate: float, alpha: float, start: int, size: int):
    """The load-independent parts of G_T's terms n = start .. start+size-1.

    Returns two read-only 1-D arrays (cov, coef), shared by every load:
    cov[j] = c_T(n) = 1/(1 + F(2^(T(n+1)) - 1, alpha)), 0 once T(n+1) >
    _MAX_EXPO, and coef[j] = L(n) (_log_nb_block), for n = start + j.
    Calls with the same (T, alpha) share cov through this memo, keyed by
    (t_rate, alpha, start, size).  It keeps the last 32 blocks, each at
    most _MAX_BLOCK doubles (32 KiB) of its own plus a coef that may
    outlive _log_nb_block's memo, so at most 2 MiB; a block is the same
    array whether computed or recalled, so no result depends on the memo.
    """
    expo = t_rate * np.arange(start + 1, start + size + 1)
    beta = np.exp2(np.minimum(expo, _MAX_EXPO)) - 1.0
    cov = np.where(expo > _MAX_EXPO, 0.0, 1.0 / (1.0 + hyper_f(beta, alpha)))
    cov.flags.writeable = False
    return cov, _log_nb_block(start, size)


@functools.lru_cache(maxsize=32)
def _log_nb_block(start: int, size: int) -> np.ndarray:
    """L(n) for n = start .. start+size-1 (_log_nb_table), read-only.

    Independent of T and alpha, so every _series_block of the same
    (start, size) shares it.  It keeps the last 32 blocks, each at most
    _MAX_BLOCK doubles (32 KiB), so at most 1 MiB.
    """
    coef = _log_nb_table(np.arange(start, start + size, _BLOCK)).ravel()
    coef.flags.writeable = False
    return coef


def _first_pass_end(t_rate: float, alpha: float, x, log_q, tol: float) -> int:
    """The term where _g_series's first pass over the loads x ends, a block end.

    Past the mean 4.5 x/3.5 of the load law, a term shrinks by about q =
    x/(3.5+x) per step and the coverage factor by about 2^(-2T/alpha), so
    a load stops near n = 4.5 x/3.5 + log(1/tol)/(-log q + 2T log 2/alpha),
    and by n = (alpha/2) log2(1/tol)/T, where c_T(n) < tol, at the latest;
    on loads 0.05 to 1,000, T 1e-3 to 5, alpha 2.5 to 6 and tol 1e-6 to
    1e-13 that estimate is 0.7 to 1.5 times the stop (plus one).  The pass
    covers every load's estimate if the terms it sums past the estimates
    cost no more than the passes it saves, _PASS_TERMS terms each, else it
    is one block.  It opens no block past the zero-coverage cut and spans
    at most _LANE_BUDGET terms.
    """
    rate = 2.0 * math.log(2.0) * t_rate / alpha
    cap = min(-alpha / 2.0 * math.log2(tol) / t_rate, _MAX_EXPO / t_rate - 1.0, _ENDS[-1] - 1)
    stop = np.minimum(x * (4.5 / 3.5) - math.log(tol) / (rate - log_q), cap)
    saved = int(np.searchsorted(_ENDS, stop.max(), side="right"))   # passes saved
    end = int(_ENDS[saved])
    return end if saved and end * x.size - stop.sum() <= saved * _PASS_TERMS else _BLOCK


def _g_series(t_rate: float, alpha: float, x: np.ndarray, tol: float) -> np.ndarray:
    """G_T(x) = sum_n c_T(n) NB(n; 4.5, x/(3.5+x)) for each load of the flat array x.

    c_T(n) is _series_block's coverage factor and NB the load pmf
    (load_pmf).  Each load ends at its first term n where the term and the
    tail bound (1 - pmf mass up to n) c_T(n) are both below tol; the bound
    dominates the remaining terms because c_T decreases in n, so each value
    is within tol of G_T(x).  The series always ends: once T(n+1) >
    _MAX_EXPO every coverage factor, and so every term and the bound, is 0.
    A zero load puts all its mass on n = 0 and gives exactly c_T(0).

    The terms come in blocks of _BLOCK, then twice as many per block up to
    _MAX_BLOCK.  The first pass spans the blocks up to _first_pass_end's
    estimate of where the loads stop, later passes one block each, so a
    small T (about log2(1/tol)/T terms) takes few passes.  Running sums are
    seeded with the previous pass's totals and accumulate in term order,
    so each value depends on its own load alone, bit for bit, however the
    passes fall.  Loads run in chunks whose temporaries stay within
    _LANE_BUDGET doubles.
    """
    value = np.empty(x.size)
    value[x == 0] = _series_block(t_rate, alpha, 0, _BLOCK)[0][0]
    live = np.flatnonzero(x)
    log_q, const = _pmf_logs(x[live])
    total, cum_mass = np.zeros((2, live.size))
    start, size = 0, _BLOCK
    end = _first_pass_end(t_rate, alpha, x[live], log_q, tol) if live.size else 0
    while live.size:
        first, blocks = start, []
        while start < end:
            blocks.append(_series_block(t_rate, alpha, start, size))
            start, size = start + size, min(2 * size, _MAX_BLOCK)
        end = start + size
        cov, coef = blocks[0] if len(blocks) == 1 else map(np.concatenate, zip(*blocks))
        n = np.arange(first, start)
        keep = np.ones(live.size, dtype=bool)
        step = max(1, _LANE_BUDGET // n.size)
        for lo in range(0, live.size, step):
            rows = slice(lo, lo + step)
            # pmf[i, j] = exp(L(n_j) + n_j log q_i + const_i)
            pmf = np.multiply(log_q[rows, None], n)
            pmf += coef
            pmf += const[rows, None]
            np.exp(pmf, out=pmf)
            term = cov * pmf
            done = term < tol
            # Running sums seeded with the previous pass's totals: total + t_0
            # is the first sum, then the terms in order.
            term[:, 0] += total[rows]
            pmf[:, 0] += cum_mass[rows]
            sums, masses = np.cumsum(term, axis=1, out=term), np.cumsum(pmf, axis=1, out=pmf)
            done &= (1.0 - masses) * cov < tol
            # Loads not yet done get a placeholder, overwritten by a later pass.
            value[live[rows]] = sums[np.arange(len(done)), done.argmax(axis=1)]
            keep[rows] = ~done.any(axis=1)
            total[rows], cum_mass[rows] = sums[:, -1], masses[:, -1]
        if not keep.any():
            break
        live, log_q, const, total, cum_mass = (
            live[keep], log_q[keep], const[keep], total[keep], cum_mass[keep])
    return value


@dataclass(frozen=True)
class RateQuery:
    """Target rate (bps/Hz) plus the series tolerance for the rate CCDF.

    The series runs until its tail bound and its last term fall below
    `series_tolerance`; see rate_ccdf.
    """

    rate_target: float
    series_tolerance: float = 1e-10

    def __post_init__(self):
        if not self.rate_target >= 0:
            raise ScenarioError(f"rate_target must be >= 0 (got {self.rate_target})")
        _check_positive(self.series_tolerance, "series_tolerance")


def rate_ccdf(scenario: NetworkScenario, rho, query: RateQuery):
    """P(R > T) where R = (1/Psi) log2(1 + SIR) with equal resource sharing.

    P(R > T) = sum_k A_k G_T(x_k): A_k is the tier-k association
    probability and x_k = P_c lambda_u w_k / D, D = sum_j rho_j lambda_j w_j,
    the mean load on a serving tier-k BS, which is also its energy
    utilization nu_k.  G_T is summed once per load by _g_series to within
    `series_tolerance`; the A_k sum to 1, so the mixture is too.

    `rho` is one availability vector (the result is a float) or a stack of
    them, shape (L, K), one lane per row (the result is L values).  Each
    lane equals the call on its row alone, bit for bit: every load is
    summed on its own, and the series' blocks are shared by every load and
    by calls with the same T and alpha (_series_block).  A mean load past
    the float range is a ScenarioError naming user_density and density.
    """
    rho = check_availability_vector(rho, scenario.k_tiers, lanes=True)
    lanes = rho.ndim == 2
    with np.errstate(divide="ignore", over="ignore"):
        # rho and the association are checked before the T = 0 shortcut too.
        weight, total, tier_weights = _association(scenario, rho.reshape(-1, scenario.k_tiers))
        if query.rate_target == 0.0:
            # Every coverage factor is 1 and the load pmf sums to 1.
            return np.ones(len(rho)) if lanes else 1.0
        load = _tier_loads(scenario, total, tier_weights)
    # A tier with A_k = 0 adds 0 whatever its load, which may even overflow;
    # a zero load costs no series terms.
    load[weight == 0] = 0.0
    if not np.isfinite(load).all():
        raise _float_range_error(scenario, "mean load")
    g = _g_series(query.rate_target, scenario.path_loss_exp, load.ravel(),
                  query.series_tolerance)
    value = (weight * g.reshape(load.shape)).sum(axis=1)
    return value if lanes else float(value[0])
