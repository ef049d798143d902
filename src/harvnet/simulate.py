"""Spatial Monte Carlo oracles for the closed-form results.

Everything here works directly on sampled Poisson point patterns: BSs are
dropped per tier after availability thinning, users are dropped uniformly,
per-link shadowing is drawn explicitly, and the statistics of interest
(service areas, association fractions, SIR coverage, per-user rate) are
tallied from the realization.  None of the analytic formulas are
consulted on this path, so agreement between the two is real evidence.

`spatial_mc` makes a single pass: each replicate draws one realization,
and its user pass yields coverage, per-tier association, service areas
and the rate tally together.  Users are uniform points, so a tier's share
of them over its BS count measures its mean service area.  A user's
coverage is its conditional probability under Rayleigh fading given the
link gains, prod_(j != s) 1/(1 + beta w_j/w_s), so no fading is drawn for
it.  Only the rate tally, whose load counts the users each BS covers,
draws per-link fading, from a stream spawned off the replicate's seed, so
asking for a rate moves no other estimate.
`coverage_mc`, `association_mc`, `rate_mc` and `service_area_mc` are
views of this pass.

Replicates are embarrassingly parallel: replicate i derives its own
generator from (seed, i), runs independently (optionally on a thread pool
capped by HETNET_THREADS), and results are reduced in replicate order, so
the thread count never changes the output.  A replicate whose realization
has no BS or no user, or no BS of a tier whose service area is asked
for, is dropped from that statistic and counted in `SimEstimate.dropped`;
a run with no usable replicate is an error.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .model import (
    NetworkScenario,
    ScenarioError,
    SimEstimate,
    _t99,
    check_availability_vector,
)

_USER_CHUNK = 512          # users per link-matrix block, keeps memory flat


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
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ScenarioError(f"seed must be an integer >= 0 (got {self.seed!r})")
        if self.boundary not in ("toroidal", "guard"):
            raise ScenarioError(f"boundary must be 'toroidal' or 'guard' "
                                f"(got {self.boundary!r})")
        if self.boundary == "guard":
            if not 0.0 < self.guard_margin < self.window_side / 2:
                raise ScenarioError(
                    f"guard_margin must lie in (0, window_side/2) "
                    f"(got {self.guard_margin})")
        elif self.guard_margin != 0.0:
            raise ScenarioError(f"guard_margin needs boundary 'guard' "
                                f"(got {self.guard_margin} with 'toroidal')")


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
    # Imported here, so that a one-shot CLI call does not load the pool's
    # modules (concurrent.futures, logging, queue).
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, reps))


def _combine(values, config: SimConfig, what: str) -> SimEstimate:
    """Reduce per-replicate values in replicate order; nan marks a dropped one.

    The 99% half-width scales the standard error by the Student-t quantile
    for samples - 1 degrees of freedom, as the replicates are few.
    """
    vals = np.asarray(values, dtype=float)
    usable = vals[~np.isnan(vals)]
    if usable.size == 0:
        raise ScenarioError(f"no usable replicate for {what} out of {vals.size}; "
                            f"enlarge the window")
    mean = float(usable.mean())
    if usable.size > 1:
        hw = (_t99(usable.size - 1) * float(usable.std(ddof=1))
              / math.sqrt(usable.size))
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
    toroidal mode, or on the inner square in guard mode (every statistic is
    sampled at the users, so shrinking their support just discards
    edge-biased samples).
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


def _workspace(n_bs: int, n_pts: int) -> np.ndarray:
    """Three flat buffers of n_bs x min(_USER_CHUNK, n_pts) doubles for one pass."""
    return np.empty((3, n_bs * min(_USER_CHUNK, n_pts)))


def _axis_sq(bs_coord, pts_coord, period, out, tmp):
    """Squared (wrapped) coordinate differences, (n_bs, n_pts), into out via tmp."""
    d = np.subtract.outer(bs_coord, pts_coord, out=out)
    np.abs(d, out=d)
    if period is not None:
        np.minimum(d, np.subtract(period, d, out=tmp), out=d)
    return np.multiply(d, d, out=d)


def _chunk_gains(bs: _BSField, pts: np.ndarray, rng, work=None) -> np.ndarray:
    """Average received power matrix W (n_bs, len(pts)) for one point block.

    W includes transmit power, per-link lognormal shadowing, and path
    loss; fading is deliberately excluded because cell selection averages
    over it.  Toroidal mode wraps coordinate differences at window scale.
    Path loss is P/(d^2)^2 at alpha = 4, else P (d^2)^(-alpha/2), with d^2
    summed from one contiguous block per coordinate; the shadowing normals
    are drawn in (n_bs, len(pts)) order.  W and two scratch blocks are views
    of the rows of `work` (a `_workspace`; fresh buffers when None), in order.
    """
    shape = (bs.x.size, pts.shape[0])
    if work is None:
        work = np.empty((3, shape[0] * shape[1]))
    w, tmp, aux = (row[:shape[0] * shape[1]].reshape(shape) for row in work)
    _axis_sq(bs.x, pts[:, 0], bs.period, w, tmp)
    w += _axis_sq(bs.y, pts[:, 1], bs.period, aux, tmp)
    np.maximum(w, 1e-18, out=w)
    if bs.alpha == 4.0:
        np.divide(bs.power, np.multiply(w, w, out=w), out=w)
    else:
        np.power(w, -0.5 * bs.alpha, out=w)
        w *= bs.power
    if bs.shadow is not None:
        mean_db, std_db = bs.shadow
        db = rng.standard_normal(out=aux)
        db *= std_db
        db += mean_db
        db /= 10.0
        w *= np.power(10.0, db, out=db)
    return w


def _strongest(w: np.ndarray, work=None) -> np.ndarray:
    """First row index of each column's maximum, as np.argmax(w, axis=0).

    np.argmax along axis 0 of a C-ordered block first copies it into
    transposed order.  Here each column's maximal rows are weighted by
    descending row numbers (int16 while they fit) and the largest weight
    taken, reading the block in row order; the gains are never NaN.  The
    mask and weights are views of rows 1 and 2 of `work` (the `_workspace`
    whose row 0 holds w; fresh buffers when None).
    """
    rows = w.shape[0]
    dtype = np.int16 if rows < 32767 else np.int64
    if work is None:
        work = np.empty((3, w.size))
    mask, weighted = (row.view(t)[:w.size].reshape(w.shape)
                      for row, t in ((work[1], np.bool_), (work[2], dtype)))
    np.equal(w, w.max(axis=0), out=mask)
    desc = np.arange(rows, 0, -1, dtype=dtype)[:, None]
    return rows - np.multiply(mask, desc, out=weighted).max(axis=0).astype(np.int64)


def _serving(bs: _BSField, pts: np.ndarray, rng) -> np.ndarray:
    """Flat index of the strongest-average BS for every point."""
    serving = np.empty(pts.shape[0], dtype=np.int64)
    work = _workspace(bs.x.size, pts.shape[0])
    for lo in range(0, pts.shape[0], _USER_CHUNK):
        hi = min(lo + _USER_CHUNK, pts.shape[0])
        w = _chunk_gains(bs, pts[lo:hi], rng, work)
        serving[lo:hi] = _strongest(w, work)
    return serving


def associate(realization: Realization, scenario: NetworkScenario,
              rng: np.random.Generator, config: SimConfig | None = None):
    """Serving (tier, within-tier index) per user: max average received power."""
    if not realization.tier_counts.any():
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
    """Coverage, per-tier association and area, and rate tally of one realization.

    Returns (mean conditional coverage, per-tier association fractions,
    per-tier service areas, rate coverage fraction or nan), all nan when
    the realization has no BS or no user.  A user served by s is covered
    with probability prod_(j != s) 1/(1 + beta w_j/w_s); a product that
    overflows gives 0, its limit.  Tier k's service area is the user
    square's area times its association fraction over its BS count in the
    square (nan without one).  Only the rate tally draws fading, from a
    child of `rng`'s seed sequence, so `rng` advances by the shadowing
    alone; a user's load counts the users whose faded SIR exceeds beta on
    its BS, plus itself.
    """
    n_users = real.users.shape[0]
    if not real.tier_counts.any() or n_users == 0:
        nan = np.full(scenario.k_tiers, math.nan)
        return math.nan, nan, nan, math.nan
    bs = _bs_field(real, scenario, config)
    beta = scenario.sir_target
    serving = np.empty(n_users, dtype=np.int64)
    cover = np.empty(n_users)
    fading = None if rate_target is None else rng.spawn(1)[0]
    sir = np.empty(n_users)
    work = _workspace(bs.x.size, n_users)
    for lo in range(0, n_users, _USER_CHUNK):
        hi = min(lo + _USER_CHUNK, n_users)
        w = _chunk_gains(bs, real.users[lo:hi], rng, work)
        srv = serving[lo:hi] = _strongest(w, work)
        link = (srv, np.arange(hi - lo))
        if fading is not None:
            faded = fading.standard_exponential(out=work[1, :w.size].reshape(w.shape))
            faded *= w
            sig = faded[link]
            sir[lo:hi] = sig / np.maximum(faded.sum(axis=0) - sig, 1e-300)
        w *= beta / w[link]
        w += 1.0
        w[link] = 1.0
        with np.errstate(over="ignore"):
            cover[lo:hi] = 1.0 / w.prod(axis=0)
    assoc = np.bincount(bs.tier_of[serving], minlength=scenario.k_tiers) / n_users
    g = config.guard_margin if config.boundary == "guard" else 0.0
    top = config.window_side - g
    inner = (bs.x >= g) & (bs.x <= top) & (bs.y >= g) & (bs.y <= top)
    counts = np.bincount(bs.tier_of[inner], minlength=scenario.k_tiers)
    area = np.full(scenario.k_tiers, math.nan)
    np.divide((top - g) ** 2 * assoc, counts, out=area, where=counts > 0)
    if rate_target is None:
        return float(cover.mean()), assoc, area, math.nan
    covered = sir > beta
    covered_load = np.bincount(serving[covered], minlength=bs.tier_of.size)
    others = covered_load[serving] - covered.astype(np.int64)
    rate = np.log2(1.0 + sir) / (others + 1)
    return float(cover.mean()), assoc, area, float(np.mean(rate > rate_target))


@dataclass(frozen=True)
class SpatialEstimate:
    """Estimates from one spatial pass over the replicates.

    `coverage`, `association` (one per tier) and `rate` are tallied over
    the users; `rate` is None without a rate target.  `area` maps each
    requested tier to its mean service area, from the same users.
    """

    coverage: SimEstimate
    association: tuple[SimEstimate, ...]
    rate: SimEstimate | None
    area: dict[int, SimEstimate]


def spatial_mc(scenario: NetworkScenario, rho, config: SimConfig,
               rate_target: float | None = None, area_tiers=()) -> SpatialEstimate:
    """Every spatial estimator from one realization per replicate.

    The user pass gives SIR coverage (conditional on the link gains),
    per-tier association and, given `rate_target`, P(per-user rate >
    rate_target) under equal resource sharing.  Each tier in `area_tiers`
    also gets its mean service area from the same users.  A replicate with
    no BS of a requested tier is dropped from that tier's area; tiers not
    requested are not reduced, so a sparse one cannot fail the run.
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
        return _user_pass(real, scenario, config, rng, rate_target)

    stats = _run_replicates(one, config)
    # Areas first: when no replicate has a BS or a user, the error names them.
    area = {k: _combine([s[2][k] for s in stats], config,
                        f"the tier-{k} service area") for k in area_tiers}
    return SpatialEstimate(
        coverage=_combine([s[0] for s in stats], config, "coverage"),
        association=tuple(_combine([s[1][k] for s in stats], config, "association")
                          for k in range(scenario.k_tiers)),
        rate=None if rate_target is None else
        _combine([s[3] for s in stats], config, "the rate tally"),
        area=area)


def service_area_mc(scenario: NetworkScenario, rho, k: int,
                    config: SimConfig) -> SimEstimate:
    """Mean service area of a tier-k BS: window area x (user fraction)/count."""
    return spatial_mc(scenario, rho, config, area_tiers=(k,)).area[k]


def coverage_mc(scenario: NetworkScenario, rho, config: SimConfig) -> SimEstimate:
    """Mean over users of P(serving-link SIR > target | link gains)."""
    return spatial_mc(scenario, rho, config).coverage


def association_mc(scenario: NetworkScenario, rho,
                   config: SimConfig) -> list[SimEstimate]:
    """Per-tier fractions of users served by that tier, one estimate each."""
    return list(spatial_mc(scenario, rho, config).association)


def rate_mc(scenario: NetworkScenario, rho, rate_target: float,
            config: SimConfig) -> SimEstimate:
    """Empirical P(per-user rate > rate_target) under equal resource sharing."""
    return spatial_mc(scenario, rho, config, rate_target=rate_target).rate
