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
    _check_integer,
    _t99,
    check_availability_vector,
)

_USER_CHUNK = 512          # users per draw block, fixes the order of every draw
# Links (doubles) in one user tile's gain block; the user pass runs each
# draw block in tiles of about this size.
_TILE_BUDGET = 1 << 16


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
        if not math.isfinite(self.window_side):
            raise ScenarioError(f"window_side must be finite (got {self.window_side})")
        _check_integer(self.replicates, "replicates", 1)
        _check_integer(self.seed, "seed", 0)
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
    edge-biased samples).  An expected point count past the float range is
    a ScenarioError naming the window side.
    """
    rho = check_availability_vector(rho, scenario.k_tiers)
    side = config.window_side
    g = config.guard_margin  # 0 in toroidal mode
    inner = side - 2.0 * g
    means = [float(r) * t.density * side * side for r, t in zip(rho, scenario.tiers)]
    means.append(scenario.user_density * inner * inner)
    if not all(map(math.isfinite, means)):
        raise ScenarioError(f"window_side {side} gives a non-finite expected point count")
    bs_pos = [rng.uniform(0.0, side, (rng.poisson(m), 2)) for m in means[:-1]]
    users = rng.uniform(g, side - g, (rng.poisson(means[-1]), 2))
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


def _tile_width(n_bs: int) -> int:
    """Users per tile: _TILE_BUDGET links, at least 3 and at most _USER_CHUNK."""
    return min(_USER_CHUNK, max(3, _TILE_BUDGET // n_bs))


def _tiles(n: int, width: int):
    """(start, stop) of tiles of at most `width` >= 3 columns over n columns.

    No tile is one column wide unless n is 1: numpy sums a lone column
    pairwise, not row by row, which would move the bits of its faded SIR.
    """
    edges = [*range(0, n, width), n]
    if len(edges) > 2 and n - edges[-2] == 1:
        edges[-2] -= 1
    return zip(edges, edges[1:])


def _workspace(n_bs: int, n_pts: int) -> np.ndarray:
    """Three flat buffers of n_bs x (one tile of at most n_pts users) doubles."""
    return np.empty((3, n_bs * min(_tile_width(n_bs), n_pts)))


def _axis_sq(bs_coord, pts_coord, period, out, tmp):
    """Squared (wrapped) coordinate differences, (n_bs, n_pts), into out via tmp."""
    d = np.subtract.outer(bs_coord, pts_coord, out=out)
    np.abs(d, out=d)
    if period is not None:
        np.minimum(d, np.subtract(period, d, out=tmp), out=d)
    return np.multiply(d, d, out=d)


def _shadow_factors(bs: _BSField, n_pts: int, rng, out=None):
    """Lognormal shadowing factors 10^(Z/10), (n_bs, n_pts); None unshadowed.

    The normals Z are drawn from `rng` in (n_bs, n_pts) order, into the
    first n_bs n_pts doubles of the flat buffer `out` when given.
    """
    if bs.shadow is None:
        return None
    shape = (bs.x.size, n_pts)
    db = np.empty(shape) if out is None else out[:shape[0] * shape[1]].reshape(shape)
    rng.standard_normal(out=db)
    mean_db, std_db = bs.shadow
    db *= std_db
    db += mean_db
    db /= 10.0
    return np.power(10.0, db, out=db)


def _chunk_gains(bs: _BSField, pts: np.ndarray, shadow=None, work=None) -> np.ndarray:
    """Average received power matrix W (n_bs, len(pts)) for one point tile.

    W includes transmit power, path loss and, given `shadow`, the links'
    (n_bs, len(pts)) shadowing factors from `_shadow_factors` (a view of a
    wider block works); fading is deliberately excluded because cell
    selection averages over it.  Toroidal mode wraps coordinate differences
    at window scale.  Path loss is P/(d^2)^2 at alpha = 4, else
    P (d^2)^(-alpha/2), with d^2 summed from one contiguous block per
    coordinate; the kernel makes about eleven passes over the tile.  W and
    two scratch blocks are views of the rows of `work` (a `_workspace`;
    fresh buffers when None), in order.
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
    if shadow is not None:
        w *= shadow
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

    Users go in draw blocks of _USER_CHUNK: each block's shadowing normals
    and fading exponentials are drawn whole, in (n_bs, block) order, into
    one block buffer each (only when shadowing is on or a rate asked for).
    The gains, serving pick and products then run on tiles of the block
    in a `_workspace`, so the rest of the pass holds about _TILE_BUDGET
    doubles per buffer whatever n_bs.  A user's values come from its own
    column alone, reduced over the BSs in row order, so they do not
    depend on the tiling.
    """
    n_users = real.users.shape[0]
    if not real.tier_counts.any() or n_users == 0:
        nan = np.full(scenario.k_tiers, math.nan)
        return math.nan, nan, nan, math.nan
    bs = _bs_field(real, scenario, config)
    n_bs, beta = bs.x.size, scenario.sir_target
    serving = np.empty(n_users, dtype=np.int64)
    cover = np.empty(n_users)
    fading = None if rate_target is None else rng.spawn(1)[0]
    sir = np.empty(n_users)
    width = _tile_width(n_bs)
    work = _workspace(n_bs, n_users)
    block = n_bs * min(_USER_CHUNK, n_users)
    shadow_buf = None if bs.shadow is None else np.empty(block)
    fade_buf = None if fading is None else np.empty(block)
    for lo in range(0, n_users, _USER_CHUNK):
        m = min(_USER_CHUNK, n_users - lo)
        shadow = _shadow_factors(bs, m, rng, shadow_buf)
        if fading is not None:
            fade = fading.standard_exponential(
                out=fade_buf[:n_bs * m].reshape(n_bs, m))
        for a, b in _tiles(m, width):
            users = slice(lo + a, lo + b)
            w = _chunk_gains(bs, real.users[users],
                             None if shadow is None else shadow[:, a:b], work)
            srv = serving[users] = _strongest(w, work)
            link = (srv, np.arange(b - a))
            if fading is not None:
                faded = np.multiply(fade[:, a:b], w,
                                    out=work[1, :w.size].reshape(w.shape))
                sig = faded[link]
                sir[users] = sig / np.maximum(faded.sum(axis=0) - sig, 1e-300)
            w *= beta / w[link]
            w += 1.0
            w[link] = 1.0
            with np.errstate(over="ignore"):
                cover[users] = 1.0 / w.prod(axis=0)
    assoc = np.bincount(bs.tier_of[serving], minlength=scenario.k_tiers) / n_users
    g = config.guard_margin  # 0 in toroidal mode
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
