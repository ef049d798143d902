"""Spatial Monte Carlo oracles for the closed-form results.

Everything here works directly on sampled Poisson point patterns: BSs are
dropped per tier after availability thinning, users are dropped uniformly,
per-link shadowing and fading are drawn explicitly, and the statistics of
interest (service areas, association fractions, SIR coverage, per-user
rate) are tallied from the realization.  None of the analytic formulas are
consulted on this path, so agreement between the two is real evidence.

`spatial_mc` makes a single pass: each replicate draws one realization,
and its user pass yields coverage, per-tier association and the rate
tally together.  When service areas are asked for, a probe pass over the
same realization gives all requested tiers at once.  The probe pass draws
its probe points and shadowing from a copy of the replicate generator
taken right after `sample_network`, so its numbers do not depend on
whether the user pass runs; a requested tier that came up empty is
resampled from a fresh copy of that state.  `coverage_mc`,
`association_mc`, `rate_mc` and `service_area_mc` are views of this pass.

Replicates are embarrassingly parallel: replicate i derives its own
generator from (seed, i), runs independently (optionally on a thread pool
capped by HETNET_THREADS), and results are reduced in replicate order, so
the thread count never changes the output.  A replicate whose realization
has no BS or no user is dropped and counted in `SimEstimate.dropped`; a
run with no usable replicate is an error.
"""

from __future__ import annotations

import copy
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


def _combine(values, config: SimConfig, what: str) -> SimEstimate:
    """Reduce per-replicate values in replicate order; nan marks a dropped one."""
    vals = np.asarray(values, dtype=float)
    usable = vals[~np.isnan(vals)]
    if usable.size == 0:
        raise ScenarioError(f"no usable replicate for {what} out of {vals.size}; "
                            f"enlarge the window")
    mean = float(usable.mean())
    if usable.size > 1:
        hw = _Z99 * float(usable.std(ddof=1)) / math.sqrt(usable.size)
    else:
        hw = math.nan
    return SimEstimate(mean=mean, ci_halfwidth_99=hw, samples=int(usable.size),
                       seed=int(config.seed), dropped=int(vals.size - usable.size))


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


@dataclass(frozen=True)
class _BSField:
    """One realization's BSs, flattened, with what the gain kernel needs per BS."""

    x: np.ndarray                   # (n_bs,) contiguous coordinates
    y: np.ndarray
    tier_of: np.ndarray
    power: np.ndarray               # (n_bs, 1) transmit power
    shadow: tuple[np.ndarray, np.ndarray] | None   # (n_bs, 1) dB mean, std
    alpha: float
    period: float | None            # wrap period in toroidal mode


def _bs_field(realization: Realization, scenario: NetworkScenario,
              config: SimConfig) -> _BSField:
    xy = np.vstack(realization.bs_pos or [np.empty((0, 2))])
    tier_of = np.repeat(np.arange(len(realization.bs_pos)),
                        realization.tier_counts)
    col = tier_of[:, None]
    means = np.array([t.shadowing.mean_db for t in scenario.tiers])
    stds = np.array([t.shadowing.std_db for t in scenario.tiers])
    shadowed = np.any(stds > 0) or np.any(means != 0)
    return _BSField(
        x=np.ascontiguousarray(xy[:, 0]), y=np.ascontiguousarray(xy[:, 1]),
        tier_of=tier_of,
        power=np.array([t.tx_power for t in scenario.tiers])[col],
        shadow=(means[col], stds[col]) if shadowed else None,
        alpha=scenario.path_loss_exp,
        period=config.window_side if config.boundary == "toroidal" else None)


def _axis_sq(bs_coord, pts_coord, period):
    """Squared (wrapped) coordinate differences, (n_bs, n_pts), in one block."""
    d = np.subtract.outer(bs_coord, pts_coord)
    np.abs(d, out=d)
    if period is not None:
        np.minimum(d, period - d, out=d)
    return np.multiply(d, d, out=d)


def _chunk_gains(bs: _BSField, pts: np.ndarray, rng) -> np.ndarray:
    """Average received power matrix W (n_bs, len(pts)) for one point block.

    W includes transmit power, per-link lognormal shadowing, and path
    loss; fading is deliberately excluded because cell selection averages
    over it.  Toroidal mode wraps coordinate differences at window scale.
    Path loss is (d^2)^(-alpha/2) with d^2 summed from one contiguous block
    per coordinate; the shadowing normals are drawn in (n_bs, len(pts))
    order.
    """
    w = _axis_sq(bs.x, pts[:, 0], bs.period)
    w += _axis_sq(bs.y, pts[:, 1], bs.period)
    np.maximum(w, 1e-18, out=w)
    np.power(w, -0.5 * bs.alpha, out=w)
    w *= bs.power
    if bs.shadow is not None:
        mean_db, std_db = bs.shadow
        db = rng.standard_normal(w.shape)
        db *= std_db
        db += mean_db
        db /= 10.0
        w *= np.power(10.0, db, out=db)
    return w


def _strongest(w: np.ndarray) -> np.ndarray:
    """First row index of each column's maximum, as np.argmax(w, axis=0).

    np.argmax along axis 0 of a C-ordered block first copies it into
    transposed order; comparing with the column maxima reads it in place.
    The gains are never NaN, so both pick the same row.
    """
    return np.argmax(w == w.max(axis=0), axis=0)


def _serving(bs: _BSField, pts: np.ndarray, rng) -> np.ndarray:
    """Flat index of the strongest-average BS for every point."""
    serving = np.empty(pts.shape[0], dtype=np.int64)
    for lo in range(0, pts.shape[0], _USER_CHUNK):
        hi = min(lo + _USER_CHUNK, pts.shape[0])
        serving[lo:hi] = _strongest(_chunk_gains(bs, pts[lo:hi], rng))
    return serving


def associate(realization: Realization, scenario: NetworkScenario,
              rng: np.random.Generator, config: SimConfig | None = None):
    """Serving (tier, within-tier index) per user: max average received power."""
    if sum(int(c) for c in realization.tier_counts) == 0:
        raise ScenarioError("no BS available: realization has no ON BS")
    if config is None:
        config = SimConfig(window_side=realization.window_side, replicates=1)
    bs = _bs_field(realization, scenario, config)
    serving = _serving(bs, realization.users, rng)
    tiers = bs.tier_of[serving]
    offsets = np.concatenate([[0], np.cumsum(realization.tier_counts)])
    return tiers, serving - offsets[tiers]


def _user_pass(real: Realization, scenario: NetworkScenario, config: SimConfig,
               rng, rate_target: float | None):
    """Coverage, per-tier association and rate tally of one realization.

    Returns (coverage fraction, per-tier association fractions, rate
    coverage fraction or nan), all nan when the realization has no BS or
    no user.  Load for the rate statistic counts the covered users on the
    serving BS plus the tagged user itself.
    """
    n_users = real.users.shape[0]
    if sum(int(c) for c in real.tier_counts) == 0 or n_users == 0:
        return math.nan, np.full(scenario.k_tiers, math.nan), math.nan
    bs = _bs_field(real, scenario, config)
    serving = np.empty(n_users, dtype=np.int64)
    sir = np.empty(n_users)
    for lo in range(0, n_users, _USER_CHUNK):
        hi = min(lo + _USER_CHUNK, n_users)
        w = _chunk_gains(bs, real.users[lo:hi], rng)
        srv = _strongest(w)
        w *= rng.exponential(1.0, w.shape)
        sig = w[srv, np.arange(hi - lo)]
        sir[lo:hi] = sig / np.maximum(w.sum(axis=0) - sig, 1e-300)
        serving[lo:hi] = srv
    covered = sir > scenario.sir_target
    assoc = np.bincount(bs.tier_of[serving], minlength=scenario.k_tiers) / n_users
    if rate_target is None:
        return float(covered.mean()), assoc, math.nan
    covered_load = np.bincount(serving[covered], minlength=bs.tier_of.size)
    others = covered_load[serving] - covered.astype(np.int64)
    rate = np.log2(1.0 + sir) / (others + 1)
    return float(covered.mean()), assoc, float(np.mean(rate > rate_target))


def _probe_pass(real: Realization, scenario: NetworkScenario, config: SimConfig,
                rng, tiers) -> dict[int, float]:
    """Service area of each tier in `tiers`: window area x probe share / count.

    One set of uniform probes, associated once, serves every tier.  In
    guard mode probes and BS counts are restricted to the inner square,
    and a tier with no inner BS gives nan.
    """
    bs = _bs_field(real, scenario, config)
    g = config.guard_margin if config.boundary == "guard" else 0.0
    hi = config.window_side - g
    probes = rng.uniform(g, hi, (_AREA_PROBES, 2))
    inner = (bs.x >= g) & (bs.x <= hi) & (bs.y >= g) & (bs.y <= hi)
    counts = np.bincount(bs.tier_of[inner], minlength=scenario.k_tiers)
    hits = np.bincount(bs.tier_of[_serving(bs, probes, rng)],
                       minlength=scenario.k_tiers)
    side = config.window_side - 2.0 * g
    return {k: side * side * (hits[k] / _AREA_PROBES) / int(counts[k])
            if counts[k] else math.nan for k in tiers}


def _replicate_areas(scenario: NetworkScenario, rho, config: SimConfig,
                     real: Realization, rng, tiers) -> tuple[dict[int, float], int]:
    """Service areas of `tiers` in one replicate, and its resample count.

    `rng` is the replicate generator right after `sample_network` drew
    `real`; it is only copied, never advanced.  Tiers present in `real`
    share one probe pass.  A tier that came up empty is resampled from a
    fresh copy until it has a BS, and probed on that realization.
    """
    present = [k for k in tiers if real.tier_counts[k] > 0]
    areas = _probe_pass(real, scenario, config, copy.deepcopy(rng), present) \
        if present else {}
    resamples = 0
    for k in tiers:
        if k in areas:
            continue
        fork = copy.deepcopy(rng)
        while True:
            resamples += 1
            again = sample_network(scenario, rho, config, fork)
            if again.tier_counts[k] > 0:
                break
        areas.update(_probe_pass(again, scenario, config, fork, [k]))
    return areas, resamples


@dataclass(frozen=True)
class SpatialEstimate:
    """Estimates from one spatial pass over the replicates.

    `coverage`, `association` (one per tier) and `rate` come from the user
    pass and are None when it was skipped; `rate` is also None without a
    rate target.  `area` maps each requested tier to its mean service area.
    """

    coverage: SimEstimate | None
    association: tuple[SimEstimate, ...] | None
    rate: SimEstimate | None
    area: dict[int, SimEstimate]


def spatial_mc(scenario: NetworkScenario, rho, config: SimConfig,
               rate_target: float | None = None, area_tiers=(),
               users: bool = True) -> SpatialEstimate:
    """Every spatial estimator from one realization per replicate.

    With `users`, the user pass gives SIR coverage, per-tier association
    and, given `rate_target`, P(per-user rate > rate_target) under equal
    resource sharing.  Each tier in `area_tiers` also gets its mean
    service area from the probe pass, which draws from a copy of the
    replicate generator so it gives the same numbers with or without the
    user pass.  Replicates where a requested tier comes up empty are
    resampled for that tier; the resample count is logged because heavy
    resampling means the window is too small for the tier.
    """
    rho = check_availability_vector(rho, scenario.k_tiers)
    if rate_target is not None and rate_target < 0:
        raise ScenarioError(f"rate_target must be >= 0 (got {rate_target})")
    area_tiers = tuple(area_tiers)
    for k in area_tiers:
        if rho[k] * scenario.tiers[k].density <= 0:
            raise ScenarioError(f"tier {k} has zero ON density; its area is undefined")

    def one(replicate: int):
        rng = _replicate_rng(config, replicate)
        real = sample_network(scenario, rho, config, rng)
        areas, resamples = _replicate_areas(scenario, rho, config, real, rng,
                                            area_tiers)
        stats = _user_pass(real, scenario, config, rng, rate_target) if users else None
        return stats, areas, resamples

    rows = _run_replicates(one, config)
    resampled = sum(r for _, _, r in rows)
    if resampled:
        log.info("spatial_mc: %d resamples for empty tiers among %s; "
                 "consider a larger window", resampled, list(area_tiers))
    area = {k: _combine([a[k] for _, a, _ in rows], config,
                        f"the tier-{k} service area") for k in area_tiers}
    if not users:
        return SpatialEstimate(coverage=None, association=None, rate=None, area=area)
    stats = [s for s, _, _ in rows]
    return SpatialEstimate(
        coverage=_combine([s[0] for s in stats], config, "coverage"),
        association=tuple(_combine([s[1][k] for s in stats], config, "association")
                          for k in range(scenario.k_tiers)),
        rate=None if rate_target is None else
        _combine([s[2] for s in stats], config, "the rate tally"),
        area=area)


def service_area_mc(scenario: NetworkScenario, rho, k: int,
                    config: SimConfig) -> SimEstimate:
    """Mean service area of a tier-k BS: window area x (probe fraction)/count."""
    return spatial_mc(scenario, rho, config, area_tiers=(k,), users=False).area[k]


def coverage_mc(scenario: NetworkScenario, rho, config: SimConfig) -> SimEstimate:
    """Fraction of users whose serving-link SIR exceeds the target."""
    return spatial_mc(scenario, rho, config).coverage


def association_mc(scenario: NetworkScenario, rho,
                   config: SimConfig) -> list[SimEstimate]:
    """Per-tier fractions of users served by that tier, one estimate each."""
    return list(spatial_mc(scenario, rho, config).association)


def rate_mc(scenario: NetworkScenario, rho, rate_target: float,
            config: SimConfig) -> SimEstimate:
    """Empirical P(per-user rate > rate_target) under equal resource sharing."""
    return spatial_mc(scenario, rho, config, rate_target=rate_target).rate
