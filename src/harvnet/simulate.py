"""Spatial Monte Carlo oracles for the closed-form results.

Everything here works directly on sampled Poisson point patterns: BSs are
dropped per tier after availability thinning, users are dropped uniformly,
per-link shadowing and fading are drawn explicitly, and the statistics of
interest (service areas, association fractions, SIR coverage, per-user
rate) are tallied from the realization.  None of the analytic formulas are
consulted on this path, so agreement between the two is real evidence.

Replicates are embarrassingly parallel: replicate i derives its own
generator from (seed, i), runs independently (optionally on a thread pool
capped by HETNET_THREADS), and results are reduced in replicate order, so
the thread count never changes the output.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import (
    NetworkScenario,
    ScenarioError,
    SimEstimate,
    check_availability_vector,
)

log = logging.getLogger(__name__)

_Z99 = 2.5758293035489004
_USER_CHUNK = 512          # users per link-matrix block, keeps memory flat
_AREA_PROBES = 4096        # uniform probe points per replicate for areas


@dataclass(frozen=True)
class SimConfig:
    """Window geometry, replication, and seeding for one experiment."""

    window_side: float
    replicates: int = 20
    seed: int = 0
    boundary: str = "toroidal"      # "toroidal" or "guard"
    guard_margin: float = 0.0

    def __post_init__(self):
        if not self.window_side > 0:
            raise ScenarioError(f"window_side must be > 0 (got {self.window_side})")
        if not (isinstance(self.replicates, (int, np.integer)) and self.replicates >= 1):
            raise ScenarioError(f"replicates must be an integer >= 1 "
                                f"(got {self.replicates})")
        if self.boundary not in ("toroidal", "guard"):
            raise ScenarioError(f"boundary must be 'toroidal' or 'guard' "
                                f"(got {self.boundary!r})")
        if self.boundary == "guard":
            if not 0.0 < self.guard_margin < self.window_side / 2:
                raise ScenarioError(
                    f"guard_margin must lie in (0, window_side/2) "
                    f"(got {self.guard_margin})")


@dataclass
class Realization:
    """One sampled network: per-tier ON BS positions plus user positions."""

    bs_pos: list[np.ndarray]
    users: np.ndarray
    window_side: float

    @property
    def tier_counts(self) -> np.ndarray:
        return np.array([p.shape[0] for p in self.bs_pos])


def suggest_window_side(scenario: NetworkScenario, rho,
                        min_expected: float = 100.0) -> float:
    """Side length putting >= min_expected ON BSs in the sparsest active tier."""
    rho = check_availability_vector(rho, scenario.k_tiers)
    on_density = rho * scenario.densities()
    active = on_density[on_density > 0]
    if active.size == 0:
        raise ScenarioError("no BS available: all tiers have zero ON density")
    return math.sqrt(min_expected / active.min())


def _thread_count(tasks: int) -> int:
    env = os.environ.get("HETNET_THREADS", "").strip() or str(os.cpu_count() or 1)
    if not (env.isdecimal() and int(env) >= 1):
        raise ScenarioError(
            f"HETNET_THREADS must be a positive integer (got {env!r})")
    return min(int(env), tasks)


def _run_replicates(fn, config: SimConfig):
    """Evaluate fn(replicate_index) for each replicate, in index order."""
    reps = range(config.replicates)
    workers = _thread_count(config.replicates)
    if workers == 1:
        return [fn(i) for i in reps]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, reps))


def _combine(values, config: SimConfig) -> SimEstimate:
    vals = np.asarray(values, dtype=float)
    mean = float(vals.mean())
    if vals.size > 1:
        hw = _Z99 * float(vals.std(ddof=1)) / math.sqrt(vals.size)
    else:
        hw = math.nan
    return SimEstimate(mean=mean, ci_halfwidth_99=hw,
                       samples=int(vals.size), seed=int(config.seed))


def _replicate_rng(config: SimConfig, replicate: int) -> np.random.Generator:
    return np.random.default_rng([config.seed, replicate])


def sample_network(scenario: NetworkScenario, rho, config: SimConfig,
                   rng: np.random.Generator) -> Realization:
    """Draw the thinned BS pattern and the user pattern for one replicate.

    Per-tier ON BSs form a Poisson process with density rho_k lambda_k on
    the full window.  Users are Poisson(lambda_u) on the full window in
    toroidal mode, or on the inner square in guard mode (they are probe
    points, so shrinking their support just discards edge-biased samples).
    """
    rho = check_availability_vector(rho, scenario.k_tiers)
    side = config.window_side
    bs_pos = []
    for k, tier in enumerate(scenario.tiers):
        n = rng.poisson(rho[k] * tier.density * side * side)
        bs_pos.append(rng.uniform(0.0, side, (n, 2)))
    if config.boundary == "guard":
        g = config.guard_margin
        inner = side - 2.0 * g
        n_u = rng.poisson(scenario.user_density * inner * inner)
        users = rng.uniform(g, side - g, (n_u, 2))
    else:
        n_u = rng.poisson(scenario.user_density * side * side)
        users = rng.uniform(0.0, side, (n_u, 2))
    return Realization(bs_pos=bs_pos, users=users, window_side=side)


def _flatten_bs(realization: Realization, scenario: NetworkScenario):
    xy = np.vstack([p for p in realization.bs_pos] or [np.empty((0, 2))])
    tier_of = np.repeat(np.arange(len(realization.bs_pos)),
                        realization.tier_counts)
    return xy, tier_of


def _chunk_gains(bs_xy, tier_of, probes, scenario: NetworkScenario,
                 config: SimConfig, rng, lo, hi):
    """Average received power matrix W (n_bs, hi-lo) for one probe block.

    W includes transmit power, per-link lognormal shadowing, and path
    loss; fading is deliberately excluded because cell selection averages
    over it.  Toroidal mode wraps coordinate differences at window scale.
    """
    pts = probes[lo:hi]
    d = np.abs(bs_xy[:, None, :] - pts[None, :, :])
    if config.boundary == "toroidal":
        d = np.minimum(d, config.window_side - d)
    dist = np.hypot(d[..., 0], d[..., 1])
    np.maximum(dist, 1e-9, out=dist)
    powers = np.array([t.tx_power for t in scenario.tiers])
    w = powers[tier_of, None] * dist ** (-scenario.path_loss_exp)
    means = np.array([t.shadowing.mean_db for t in scenario.tiers])
    stds = np.array([t.shadowing.std_db for t in scenario.tiers])
    if np.any(stds > 0) or np.any(means != 0):
        db = means[tier_of, None] + stds[tier_of, None] * \
            rng.standard_normal(w.shape)
        w *= 10.0 ** (db / 10.0)
    return w


def associate(realization: Realization, scenario: NetworkScenario,
              rng: np.random.Generator, config: SimConfig | None = None):
    """Serving (tier, within-tier index) per user: max average received power."""
    if sum(int(c) for c in realization.tier_counts) == 0:
        raise ScenarioError("no BS available: realization has no ON BS")
    if config is None:
        config = SimConfig(window_side=realization.window_side, replicates=1)
    bs_xy, tier_of = _flatten_bs(realization, scenario)
    users = realization.users
    serving = np.empty(users.shape[0], dtype=np.int64)
    for lo in range(0, users.shape[0], _USER_CHUNK):
        hi = min(lo + _USER_CHUNK, users.shape[0])
        w = _chunk_gains(bs_xy, tier_of, users, scenario, config, rng, lo, hi)
        serving[lo:hi] = np.argmax(w, axis=0)
    tiers = tier_of[serving]
    offsets = np.concatenate([[0], np.cumsum(realization.tier_counts)])
    return tiers, serving - offsets[tiers]


def service_area_mc(scenario: NetworkScenario, rho, k: int,
                    config: SimConfig) -> SimEstimate:
    """Mean service area of a tier-k BS: window area x (probe fraction)/count.

    Replicates where tier k comes up empty are resampled from the same
    stream; the resample count is logged because heavy resampling means
    the window is too small for the requested tier.
    """
    rho = check_availability_vector(rho, scenario.k_tiers)
    if rho[k] * scenario.tiers[k].density <= 0:
        raise ScenarioError(f"tier {k} has zero ON density; its area is undefined")

    def one(replicate: int) -> tuple[float, int]:
        rng = _replicate_rng(config, replicate)
        resamples = 0
        while True:
            real = sample_network(scenario, rho, config, rng)
            if real.tier_counts[k] > 0:
                break
            resamples += 1
        bs_xy, tier_of = _flatten_bs(real, scenario)
        if config.boundary == "guard":
            g = config.guard_margin
            side = config.window_side - 2.0 * g
            probes = rng.uniform(g, config.window_side - g, (_AREA_PROBES, 2))
            in_tier = tier_of == k
            inner = (np.all(bs_xy >= g, axis=1)
                     & np.all(bs_xy <= config.window_side - g, axis=1))
            n_k = int(np.count_nonzero(in_tier & inner))
            if n_k == 0:
                return math.nan, resamples
        else:
            side = config.window_side
            probes = rng.uniform(0.0, side, (_AREA_PROBES, 2))
            n_k = int(real.tier_counts[k])
        hits = 0
        for lo in range(0, _AREA_PROBES, _USER_CHUNK):
            hi = min(lo + _USER_CHUNK, _AREA_PROBES)
            w = _chunk_gains(bs_xy, tier_of, probes, scenario, config, rng, lo, hi)
            hits += int(np.count_nonzero(tier_of[np.argmax(w, axis=0)] == k))
        return side * side * (hits / _AREA_PROBES) / n_k, resamples

    results = _run_replicates(one, config)
    resampled = sum(r for _, r in results)
    if resampled:
        log.info("service_area_mc: %d resamples for empty tier %d; "
                 "consider a larger window", resampled, k)
    vals = [v for v, _ in results if not math.isnan(v)]
    if not vals:
        raise ScenarioError(
            f"tier {k} produced no usable replicate; enlarge the window")
    return _combine(vals, config)


def _sir_stats(scenario: NetworkScenario, rho, config: SimConfig,
               replicate: int, rate_target: float | None):
    """One replicate of the full SIR pipeline.

    Returns (coverage fraction, per-tier association fractions, rate
    coverage fraction or nan).  Load for the rate statistic counts the
    covered users on the serving BS plus the tagged user itself.
    """
    rng = _replicate_rng(config, replicate)
    real = sample_network(scenario, rho, config, rng)
    n_users = real.users.shape[0]
    if sum(int(c) for c in real.tier_counts) == 0 or n_users == 0:
        return math.nan, np.full(scenario.k_tiers, math.nan), math.nan
    bs_xy, tier_of = _flatten_bs(real, scenario)
    serving = np.empty(n_users, dtype=np.int64)
    sir = np.empty(n_users)
    for lo in range(0, n_users, _USER_CHUNK):
        hi = min(lo + _USER_CHUNK, n_users)
        w = _chunk_gains(bs_xy, tier_of, real.users, scenario, config, rng, lo, hi)
        srv = np.argmax(w, axis=0)
        h = rng.exponential(1.0, w.shape)
        rcv = w * h
        cols = np.arange(hi - lo)
        sig = rcv[srv, cols]
        sir[lo:hi] = sig / np.maximum(rcv.sum(axis=0) - sig, 1e-300)
        serving[lo:hi] = srv
    covered = sir > scenario.sir_target
    cov_frac = float(covered.mean())
    assoc = np.array([
        float(np.mean(tier_of[serving] == k)) for k in range(scenario.k_tiers)])
    if rate_target is None:
        return cov_frac, assoc, math.nan
    n_bs = bs_xy.shape[0]
    covered_load = np.bincount(serving[covered], minlength=n_bs)
    others = covered_load[serving] - covered.astype(np.int64)
    rate = np.log2(1.0 + sir) / (others + 1)
    return cov_frac, assoc, float(np.mean(rate > rate_target))


def coverage_mc(scenario: NetworkScenario, rho, config: SimConfig) -> SimEstimate:
    """Fraction of users whose serving-link SIR exceeds the target."""
    vals = _run_replicates(
        lambda i: _sir_stats(scenario, rho, config, i, None)[0], config)
    return _combine([v for v in vals if not math.isnan(v)], config)


def association_mc(scenario: NetworkScenario, rho,
                   config: SimConfig) -> list[SimEstimate]:
    """Per-tier fractions of users served by that tier, one estimate each."""
    rows = _run_replicates(
        lambda i: _sir_stats(scenario, rho, config, i, None)[1], config)
    rows = [r for r in rows if not math.isnan(r[0])]
    return [_combine([r[k] for r in rows], config)
            for k in range(scenario.k_tiers)]


def rate_mc(scenario: NetworkScenario, rho, rate_target: float,
            config: SimConfig) -> SimEstimate:
    """Empirical P(per-user rate > rate_target) under equal resource sharing."""
    if rate_target < 0:
        raise ScenarioError(f"rate_target must be >= 0 (got {rate_target})")
    vals = _run_replicates(
        lambda i: _sir_stats(scenario, rho, config, i, rate_target)[2], config)
    return _combine([v for v in vals if not math.isnan(v)], config)
