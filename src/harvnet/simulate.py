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
link gains, C = prod_(j != s) 1/(1 + beta w_j/w_s), so no fading is drawn
for it.  The rate tally, whose load counts the users each BS covers,
samples each user's SIR from that same conditional law with one uniform
per user (see `_user_pass`), drawn from a stream spawned off the
replicate's seed, so asking for a rate moves no other estimate.

Every gain comes from one walk, `_gain_tiles`, over some users against
some BSs, in draw blocks of 512 users, whose shadowing comes whole from
the replicate generator, each cut into tiles of about 2^16 links that
hold one row of BS gains per user.  The pass splits each user's coverage
C = C_near F at the edge of its near field: square cells tile the
window, users go in blocks of cells, and each block's users are walked
against the BSs of the cells around it (`_split`, `_near_pass`).  F,
over the far BSs, is decided against a second uniform U' per user, the
tally being C_near 1{U' < F}, which is unbiased for C, from bounds on
the far field's power that cell sums give without any far link
(`_far_sums`).  The few users whose U' or serving BS the bounds leave
undecided, and those whose rate event they leave undecided, are walked
again against every BS (`_full_walk`), so association, areas and rate
events are those of every BS, bit for bit.  A shadowed pass, or one on
a window of few cells, is one block with every BS near: nothing is far,
F = 1, and the tally is C.  `coverage_mc`, `association_mc`, `rate_mc`
and `service_area_mc` are views of this pass.

Replicates are embarrassingly parallel: replicate i derives its own
generator from (seed, i), runs independently (optionally on a thread pool
capped by HETNET_THREADS), and results are reduced in replicate order, so
the thread count never changes the output.  A replicate whose realization
has no BS or no user, or no BS of a tier whose service area is asked
for, is dropped from that statistic and counted in `SimEstimate.dropped`;
a run with no usable replicate is an error, and so is a realization whose
link gains leave the float range (see `_user_pass`).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    NetworkScenario,
    ScenarioError,
    SimEstimate,
    _check_integer,
    _check_positive,
    _t99,
    check_availability_vector,
)

_USER_CHUNK = 512          # users per draw block, fixes the order of every draw
# Links (doubles) in one user tile's gain block; the user pass runs each
# draw block in tiles of about this size.
_TILE_BUDGET = 1 << 16
# Expected BSs plus users in one replicate's window: about 1,600 times the
# largest bundled scenario, and far below what would exhaust memory.
_MAX_POINTS = 1 << 24
# The near/far split of an unshadowed user pass (see `_split`): square
# cells of about _CELL_BS ON BSs each, user blocks of _BLOCK x _BLOCK
# cells, and near fields reaching _MARGIN cells past each block.
_CELL_BS = 4.0
_BLOCK = 3
_MARGIN = 3


@dataclass(frozen=True)
class SimConfig:
    """Window geometry, replication, and seeding for one experiment.

    `guard_margin` sets the edge model: 0 is a toroidal window, whose
    distances wrap at the window side, and a margin g > 0 is a guard band,
    with users only in the inner square [g, side - g]^2 and no wrap.
    """

    window_side: float
    replicates: int = 20
    seed: int = 0
    guard_margin: float = 0.0

    def __post_init__(self):
        _check_positive(self.window_side, "window_side")
        _check_integer(self.replicates, "replicates", 1)
        _check_integer(self.seed, "seed", 0)
        if not 0.0 <= self.guard_margin < self.window_side / 2:
            raise ScenarioError(f"guard_margin must lie in [0, window_side/2) "
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


def suggest_window_side(scenario: NetworkScenario, rho) -> float:
    """Side length putting >= 100 expected ON BSs in the sparsest active tier.

    A tier is active where rho_k > 0.  A side past the float range is a
    ScenarioError naming the ON density rho_k lambda_k it comes from.
    """
    rho = check_availability_vector(rho, scenario.k_tiers)
    if not (rho > 0).any():
        raise ScenarioError("no BS available: weighted ON density is zero")
    sparsest = float((rho * scenario.densities())[rho > 0].min())
    side = math.sqrt(100.0 / sparsest) if sparsest > 0 else math.inf
    if side == math.inf:
        raise ScenarioError(f"window side for the sparsest ON density rho_k lambda_k = "
                            f"{sparsest:.3g} leaves the float range")
    return side


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
    edge-biased samples).  An expected point count past the float range or
    past _MAX_POINTS is a ScenarioError naming the window side.
    """
    rho = check_availability_vector(rho, scenario.k_tiers)
    side = config.window_side
    g = config.guard_margin  # 0 in toroidal mode
    inner = side - 2.0 * g
    means = [float(r) * t.density * side * side for r, t in zip(rho, scenario.tiers)]
    means.append(scenario.user_density * inner * inner)
    if not all(map(math.isfinite, means)):
        raise ScenarioError(f"window_side {side} gives a non-finite expected point count")
    if sum(means) > _MAX_POINTS:
        raise ScenarioError(f"window_side {side} gives {sum(means):.3g} expected points "
                            f"per replicate (at most {_MAX_POINTS})")
    bs_pos = [rng.uniform(0.0, side, (rng.poisson(m), 2)) for m in means[:-1]]
    users = rng.uniform(g, side - g, (rng.poisson(means[-1]), 2))
    return Realization(bs_pos=bs_pos, users=users, window_side=side)


@dataclass(frozen=True)
class _BSField:
    """One realization's BSs, stacked tier by tier, with what the gain kernel needs."""

    x: np.ndarray                   # (n_bs,) contiguous coordinates
    y: np.ndarray
    tier_of: np.ndarray
    power: np.ndarray               # (n_bs,) transmit power per BS
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
        power=np.array([t.tx_power for t in scenario.tiers], dtype=float)[tier_of],
        shadow=(means[col], stds[col]) if shadowed else None,
        alpha=scenario.path_loss_exp,
        period=None if config.guard_margin else config.window_side)


def _tile_width(n_bs: int) -> int:
    """Users per tile: _TILE_BUDGET links, at least 1 and at most _USER_CHUNK."""
    return min(_USER_CHUNK, max(1, _TILE_BUDGET // n_bs))


def _tiles(n: int, width: int):
    """(start, stop) of consecutive tiles of at most `width` users over n users."""
    edges = [*range(0, n, width), n]
    return zip(edges, edges[1:])


def _workspace(n_bs: int, n_pts: int) -> np.ndarray:
    """Three flat buffers of (one tile of at most n_pts users) x n_bs doubles."""
    return np.empty((3, n_bs * min(_tile_width(n_bs), n_pts)))


def _axis_sq(bs_coord, pts_coord, period, out, tmp):
    """Squared (wrapped) coordinate differences, (n_pts, n_bs), into out via tmp."""
    out[:] = bs_coord
    d = np.subtract(out, pts_coord[:, None], out=out)
    np.abs(d, out=d)
    if period is not None:
        np.minimum(d, np.subtract(period, d, out=tmp), out=d)
    return np.multiply(d, d, out=d)


def _shadow_factors(bs: _BSField, z: np.ndarray) -> np.ndarray:
    """Lognormal shadowing factors 10^(Z/10) from normals z (n_bs, n), in place."""
    mean_db, std_db = bs.shadow
    z *= std_db
    z += mean_db
    z /= 10.0
    return np.power(10.0, z, out=z)


def _chunk_gains(bs: _BSField, pts: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Average received power matrix W (len(pts), n_bs) for one point tile.

    One row per user, its BSs along the row, stacked tier by tier.  W
    includes transmit power and path loss, not shadowing (see
    `_gain_tiles`); fading is deliberately excluded because cell selection
    averages over it.  Toroidal mode wraps coordinate differences at window
    scale.  Path loss is P/(d^2)^2 at alpha = 4, else P (d^2)^(-alpha/2),
    with d^2 summed from one block per coordinate, each a copy of the BS
    coordinate row per user less that user's coordinate, and P the power
    row of `bs`.  W and two scratch blocks are views of the rows of `work`,
    three flat buffers of at least len(pts) * n_bs doubles (a `_workspace`),
    in order.
    """
    shape = (pts.shape[0], bs.x.size)
    w, tmp, aux = (row[:shape[0] * shape[1]].reshape(shape) for row in work)
    _axis_sq(bs.x, pts[:, 0], bs.period, w, tmp)
    w += _axis_sq(bs.y, pts[:, 1], bs.period, aux, tmp)
    np.maximum(w, 1e-18, out=w)
    if bs.alpha == 4.0:
        np.divide(bs.power, np.multiply(w, w, out=w), out=w)
    else:
        np.power(w, -0.5 * bs.alpha, out=w)
        w *= bs.power
    return w


def _gain_tiles(pts: np.ndarray, bs: _BSField, rng, work, pick=None):
    """Yield (users, W) for each tile of the users at `pts`: indices and gains.

    Users go in draw blocks of _USER_CHUNK.  When shadowing is on, each
    block's normals are drawn whole from `rng`, in (n_bs, block) order,
    into one block buffer, so `rng` advances by whole blocks whatever is
    tiled.  A block's users go in tiles of `_tile_width` users, and each
    tile's W (users, n_bs), shadowing multiplied in from the transposed
    columns of the block, is row 0 of `work` (a `_workspace`), valid until
    the next tile; `users` is a slice.  With `pick`, a boolean mask over
    the users, only the picked users are tiled, `users` is an index array,
    and the walk ends with the last block holding one; only their factors
    are formed, in row 1 of `work`.  A user's gains come from its own row
    alone, so they depend neither on the tiling nor on `pick`.
    """
    n_users, n_bs = pts.shape[0], bs.x.size
    width = _tile_width(n_bs)
    stop = n_users if pick is None else np.flatnonzero(pick)[-1] + 1
    block = None if bs.shadow is None else np.empty(n_bs * min(_USER_CHUNK, n_users))
    for lo in range(0, stop, _USER_CHUNK):
        m = min(_USER_CHUNK, n_users - lo)
        cols = None if pick is None else np.flatnonzero(pick[lo:lo + m])
        if block is not None:
            z = rng.standard_normal(out=block[:n_bs * m].reshape(n_bs, m))
            if cols is None:
                _shadow_factors(bs, z)
        for a, b in _tiles(m if cols is None else cols.size, width):
            users = slice(lo + a, lo + b) if cols is None else lo + cols[a:b]
            w = _chunk_gains(bs, pts[users], work)
            if block is not None:
                w *= (z[:, a:b] if cols is None else _shadow_factors(bs, np.take(
                    z, cols[a:b], axis=1, mode="clip",
                    out=work[1, :w.size].reshape(w.shape[::-1])))).T
            yield users, w


def _ccdf(w: np.ndarray, srv: np.ndarray, scale, sums, work) -> np.ndarray:
    """prod_(j != s) 1/(1 + scale w_j/w_s) over each row of w, s from `srv`.

    `scale` is a scalar or one value per row; w, row 0 of `work` (a
    `_workspace`), is overwritten.  Given `sums`, a pair of arrays, each
    row's sum and maximum of scale w_j/w_s over j != s are written into
    them; None skips them.  The product runs over the BSs in order, on a
    transposed copy in row 1 of `work`, one BS row at a time.  A product
    that overflows gives 0, its limit.
    """
    link = (np.arange(srv.size), srv)
    w *= (scale / w[link])[:, None]
    w[link] = 0.0
    if sums is not None:
        w.sum(axis=1, out=sums[0])
        w.max(axis=1, out=sums[1])
    w += 1.0
    bs_major = work[1, :w.size].reshape(w.shape[::-1])
    np.copyto(bs_major, w.T)
    return 1.0 / bs_major.prod(axis=0)


def _cells(x: np.ndarray, h: float, n: int) -> np.ndarray:
    """Index along one axis of the cell of side h holding each coordinate."""
    return np.minimum(x / h, n - 1).astype(np.int64)


@dataclass(frozen=True)
class _Split:
    """One realization's user blocks and their near fields (see `_split`).

    User block i holds users order[users[i]:users[i + 1]], and its near
    field the BSs near[fields[i]:fields[i + 1]], ascending.  Per user,
    `far` holds (S_lo, S_hi, Q), bounds on the sums of w_j and of w_j^2
    over the BSs outside its near field, and `gap` is the user's distance
    to the edge of that field.  Where nothing is far, `far` is 0 and `gap`
    inf.
    """

    order: np.ndarray
    users: np.ndarray
    near: np.ndarray
    fields: np.ndarray
    far: np.ndarray                 # (3, n_users)
    gap: np.ndarray


def _far_sums(bs: _BSField, cell: np.ndarray, n: int, h: float) -> np.ndarray:
    """(S_lo, S_hi, Q) per cell, (3, n, n), over the BSs outside its near field.

    A far cell's BSs lie between its nearest and its farthest distance
    from the user's cell, so they add at least P d_max^-alpha and at most
    P d_min^-alpha to the sum of w_j, and at most P2 d_min^-2alpha to that
    of w_j^2, P and P2 being the cell's sums of P_j and P_j^2.  Each sum is
    a correlation of a power grid with a kernel over cell offsets that is
    zero on the near field, one kernel per position of a cell in its
    block, taken by FFT: circular on the torus, zero-padded to twice the
    grid in guard mode.  The FFT's rounding, within a small multiple of
    2^-52 log2(cells) ||grid||_2 ||kernel||_2, is covered by widening each
    sum by 2^-30 ||grid||_2 ||kernel||_2.
    """
    from numpy import fft  # loaded at the first split pass, not at import

    b, m = _BLOCK, _MARGIN
    torus = bs.period is not None
    size = n if torus else 2 * n
    off = np.arange(size)
    if torus:
        gap = np.minimum(off, size - off)
        hi = np.minimum(gap + 1, n / 2) * h
    else:
        off[n:] -= size
        gap = np.abs(off)
        hi = (gap + 1) * h
    lo = np.maximum(gap - 1, 0) * h
    d2_lo, d2_hi = np.add.outer(lo * lo, lo * lo), np.add.outer(hi * hi, hi * hi)
    k_near = np.divide(1.0, d2_lo ** (0.5 * bs.alpha), out=np.zeros_like(d2_lo),
                       where=d2_lo > 0)
    kernels = np.stack([d2_hi ** (-0.5 * bs.alpha), k_near, k_near * k_near])
    grids = np.zeros((3, size, size))
    for grid, weights in zip(grids[1:], (bs.power, bs.power ** 2)):
        grid[:n, :n] = np.bincount(cell, weights, n * n).reshape(n, n)
    grids[0] = grids[1]
    spectra = fft.rfft2(grids)
    slack = np.array([-1.0, 1.0, 1.0]) * 2.0 ** -30 * np.sqrt((grids * grids).sum(axis=(1, 2)))
    shift = off + m + np.arange(b)[:, None]
    if torus:
        shift %= n
    near = (shift >= 0) & (shift < b + 2 * m)           # (position, offset)
    out = np.empty((3, n, n))
    for px in range(b):
        for py in range(b):
            kern = kernels * ~(near[px][:, None] & near[py])
            sums = fft.irfft2(spectra * np.conj(fft.rfft2(kern)), s=(size, size))
            sums += (slack * np.sqrt((kern * kern).sum(axis=(1, 2))))[:, None, None]
            out[:, px::b, py::b] = sums[:, px:n:b, py:n:b]
    np.maximum(out[0], 0.0, out=out[0])
    return out


def _split(real: Realization, bs: _BSField, config: SimConfig) -> _Split:
    """User blocks, their near fields and far sums for the user pass.

    Square cells tile the window, n per side, n a multiple of _BLOCK,
    with about _CELL_BS BSs each.  Users go in blocks of _BLOCK x _BLOCK
    cells, and a block's near field is the cells within _MARGIN cells of
    it (clipped at the window in guard mode).  A shadowed field, or a
    grid of at most _BLOCK + 2 _MARGIN cells a side, is one block: every
    user, every BS near and nothing far.  Per-link shadowing factors have
    no far-field bound; on such a grid a block's near field would wrap
    onto itself on the torus, and in guard mode it leaves at most a thin
    ring of far cells, where many blocks measured slower than one.
    """
    n_bs, n_users = bs.x.size, real.users.shape[0]
    b, m = _BLOCK, _MARGIN
    n = b * max(1, round(math.sqrt(n_bs / _CELL_BS) / b))
    if bs.shadow is not None or n <= b + 2 * m:
        return _Split(order=np.arange(n_users), users=np.array([0, n_users]),
                      near=np.arange(n_bs), fields=np.array([0, n_bs]),
                      far=np.broadcast_to(0.0, (3, n_users)),
                      gap=np.broadcast_to(math.inf, n_users))
    h, nb = config.window_side / n, n // b
    bs_cell = _cells(bs.x, h, n) * n + _cells(bs.y, h, n)
    first = np.concatenate(([0], np.cumsum(np.bincount(bs_cell, minlength=n * n))))
    ux, uy = (_cells(real.users[:, i], h, n) for i in (0, 1))
    block = ux // b * nb + uy // b
    order = np.argsort(block, kind="stable")
    edges = np.concatenate(([0], np.cumsum(np.bincount(block, minlength=nb * nb))))
    listed = np.flatnonzero(np.diff(edges))
    # Each listed block's near cells, row by row, and their BSs.
    xs, ys = (b * i[:, None] + np.arange(-m, b + m) for i in np.divmod(listed, nb))
    if bs.period is not None:
        xs, ys = xs % n, ys % n
    inside = ((xs >= 0) & (xs < n))[:, :, None] & ((ys >= 0) & (ys < n))[:, None, :]
    cells = (np.clip(xs, 0, n - 1)[:, :, None] * n + np.clip(ys, 0, n - 1)[:, None, :])
    count = np.where(inside, first[cells + 1] - first[cells], 0).ravel()
    ends = np.cumsum(count)
    per_block = count.reshape(listed.size, -1).sum(axis=1)
    fields = np.concatenate(([0], np.cumsum(per_block)))
    near = np.argsort(bs_cell, kind="stable")[
        np.repeat(first[cells.ravel()] - ends + count, count) + np.arange(fields[-1])]
    # Ascending within each block, as over every BS.
    key = np.repeat(np.arange(listed.size) * n_bs, per_block)
    near = np.sort(key + near) - key
    users = np.concatenate(([0], edges[listed + 1]))

    def edge_gap(c, x):
        lo = c // b * b - m
        below, above = x - lo * h, (lo + b + 2 * m) * h - x
        if bs.period is None:
            below[lo <= 0] = math.inf
            above[lo + b + 2 * m >= n] = math.inf
        return np.minimum(below, above)

    far = _far_sums(bs, bs_cell, n, h).reshape(3, -1)[:, ux * n + uy]
    gap = np.minimum(edge_gap(ux, real.users[:, 0]), edge_gap(uy, real.users[:, 1]))
    return _Split(order=order, users=users, near=near, fields=fields, far=far, gap=gap)


def _near_pass(real: Realization, bs: _BSField, split: _Split, rng, beta: float,
               sums: bool):
    """Serving BS, and its gain, C(beta), beta S and beta R over the near field.

    Each user block is walked with `_gain_tiles` against its near field's
    BSs, kept in their order, so the serving BS is the first of largest
    gain there.  Only a one-block split, whose near field is every BS, is
    shadowed, and its walk draws the shadowing from `rng`.  A user with no
    near BS gets gain 0, which no bound certifies.  The sums are left 0
    unless `sums`.  Returns the serving BSs and a (4, n_users) array, in
    user order.
    """
    serving = np.zeros(real.users.shape[0], dtype=np.int64)
    vals = np.zeros((4, serving.size))      # gain, cover, beta S, beta R
    pts = real.users[split.order]
    sizes, edges = np.diff(split.fields).tolist(), split.users.tolist()
    work = np.empty((3, max((k * min(_tile_width(k), hi - lo)
                             for k, lo, hi in zip(sizes, edges, edges[1:]) if k), default=0)))
    for i, (k, lo, hi) in enumerate(zip(sizes, edges, edges[1:])):
        if not k:
            continue
        near = split.near[split.fields[i]:split.fields[i + 1]]
        field = replace(bs, x=bs.x[near], y=bs.y[near], power=bs.power[near])
        for users, w in _gain_tiles(pts[lo:hi], field, rng, work):
            users = slice(lo + users.start, lo + users.stop)
            srv = w.argmax(axis=1)
            vals[0, users] = w[np.arange(srv.size), srv]
            serving[users] = near[srv]
            vals[1, users] = _ccdf(w, srv, beta, vals[2:, users] if sums else None, work)
    out = np.empty_like(vals)
    out[:, split.order] = vals
    serving[split.order] = serving.copy()
    return serving, out


def _full_walk(real: Realization, bs: _BSField, rng, start, pick, scale, sums):
    """Serving BS and C(scale) over every BS, for each user in `pick`.

    The picked users are walked with `_gain_tiles`, their shadowing
    replayed from `start`, `rng`'s state when the pass began, and `rng` is
    left as it was.  `scale` is a scalar or one value per user; `sums`,
    None or a (2, picked users) array, gets each picked user's beta S and
    beta R (see `_ccdf`).  Returns the picked users' serving BSs and C.
    """
    scale = np.broadcast_to(scale, pick.shape)
    serving = np.empty(np.count_nonzero(pick), dtype=np.int64)
    cover = np.empty(serving.size)
    work, done, end = _workspace(bs.x.size, serving.size), 0, rng.bit_generator.state
    rng.bit_generator.state = start
    for users, w in _gain_tiles(real.users, bs, rng, work, pick):
        k = slice(done, done + users.size)
        done = k.stop
        srv = serving[k] = w.argmax(axis=1)
        cover[k] = _ccdf(w, srv, scale[users], None if sums is None else sums[:, k], work)
    rng.bit_generator.state = end
    return serving, cover


def _band(t, cover, sums, far, n_bs: int):
    """Lower and upper bounds on C(theta), t = theta/beta, widened for rounding.

    `cover` is C(beta) over the near BSs, whose (beta S, beta R) are
    `sums`, and `far` the far BSs' (beta S_lo, beta S_hi, beta^2 Q) over
    the serving gain (see `_user_pass`), 0 where nothing is far.
    """
    beta_sum, beta_max = sums
    f_lo, f_hi, q = far
    cover_t = cover ** t
    low = np.maximum(np.exp(-t * beta_sum), np.minimum(cover, cover_t)) * np.exp(-t * f_hi)
    high = (np.minimum(1.0 / (1.0 + t * beta_max), np.maximum(cover, cover_t))
            * np.minimum(1.0, np.exp(t * (0.5 * t * q - f_lo))))
    eps = 1e-12 + n_bs * 2.0 ** -50 * (1.0 + t * (1.0 + beta_sum) + t * (f_hi + t * q))
    return low * (1.0 - eps), high * (1.0 + eps)


@np.errstate(all="ignore")
def _user_pass(real: Realization, scenario: NetworkScenario, config: SimConfig,
               rng, rate_target: float | None):
    """Coverage, per-tier association and area, and rate tally of one realization.

    Returns (mean coverage tally, per-tier association fractions, per-tier
    service areas, each user's rate event or nan), all nan when the
    realization has no BS or no user.  A user served by s is covered
    with probability C(beta), where C(theta) = prod_(j != s)
    1/(1 + theta r_j), r_j = w_j/w_s, is the CCDF of its SIR under Rayleigh
    fading given the link gains.  Tier k's service area is the user
    square's area times its association fraction over its BS count in the
    square (nan without one).

    The pass splits C = C_near F, C_near over the BSs of the user's near
    field (`_split`, `_near_pass`) and F over the rest, and tallies
    C_near 1{U' < F} with one uniform U' per user, which is unbiased for
    C.  With r_j = w_j/w_s, F lies between e^(-beta S_hi/w_s), as
    log(1 + x) <= x, and e^(-beta S_lo/w_s + beta^2 Q/(2 w_s^2)), as
    log(1 + x) >= x - x^2/2, S_lo, S_hi and Q coming from the cell sums of
    `_far_sums`.  No far BS can serve a user whose near gain w_s beats
    P_max gap^-alpha.  Users whose U' falls between the bounds, widened
    for rounding, and users whose serving BS is not so certified are
    walked again against every BS (`_full_walk`): the first then tally
    C_near 1{U' C_near < C}, the second C.  So association and areas are
    those of the first BS of largest gain over all BSs.  Where `_split`
    gives one block nothing is far, F = 1, and the tally is C itself.

    Given the gains the users' SIRs are independent, so the rate tally
    samples each user's SIR by inversion from one uniform U: the user is
    covered when U < C(beta), and its rate exceeds T when U < C(theta) with
    theta = 2^(T (o + 1)) - 1, o being the covered other users on its BS.
    That is the joint law of per-link fading, with one draw per user.  U
    comes from the first child of `rng`'s seed sequence and U' from the
    second, so `rng` advances by the shadowing alone, and asking for a
    rate moves no other estimate.  `_band` bounds C(theta) from sums the
    pass keeps, S = sum r_j and R = max r_j (as beta S and beta R): since
    log(1 + x) <= x, C >= e^(-theta S); a single factor gives C <= 1/(1 +
    theta R); and with t = theta/beta, log(1 + t x) >= t log(1 + x) for
    t <= 1 and <= for t >= 1 (log(1 + x) is concave and 0 at 0), so C lies
    between p and p^t, p = C(beta).  These bound C_near, and the bounds
    on F at theta multiply in.  A user with U below the largest lower
    bound, or at or above the smallest upper bound, is decided; the band
    is widened by a relative 1e-12 plus n_bs 2^-50 (1 + t (1 + beta S +
    beta S_hi/w_s + t beta^2 Q/w_s^2)), which covers the rounding of the
    n_bs-term sums, in whatever order numpy adds them, and of the
    products, that of p raised to t and that of the exact product.
    Users whose event U < C(beta) is undecided join the walk above,
    before the loads are counted; users whose rate event is undecided get
    C(theta) from a second `_full_walk`.  So every rate event is U <
    C(theta) over every BS.  A user with no interferer has C = 1, and a
    threshold that overflows to inf is never exceeded.  Link gains past
    the float range (a gain of 0 on every link, or of inf on two) leave
    some C undefined, which is a ScenarioError naming path_loss_exp.
    """
    n_users = real.users.shape[0]
    if not real.tier_counts.any() or n_users == 0:
        nan = np.full(scenario.k_tiers, math.nan)
        return math.nan, nan, nan, math.nan
    bs = _bs_field(real, scenario, config)
    n_bs, beta = bs.x.size, scenario.sir_target
    split = _split(real, bs, config)
    start = rng.bit_generator.state
    serving, (gain, cover, beta_sum, beta_max) = _near_pass(
        real, bs, split, rng, beta, rate_target is not None)
    rate_stream, far_stream = rng.spawn(2)
    per_gain = beta / gain
    far = split.far * per_gain
    far[2] *= per_gain
    certified = gain > bs.power.max() * split.gap ** -bs.alpha * (1.0 + 1e-9)
    f_low, f_high = _band(1.0, 1.0, (0.0, 0.0), far, n_bs)
    u_far = far_stream.random(n_users)
    tally = np.where(u_far < f_low, cover, 0.0)
    band = ~((u_far < f_low) | (u_far >= f_high))
    again = band | ~certified
    if rate_target is not None:
        u = rate_stream.random(n_users)
        low, high = _band(1.0, cover, (beta_sum, beta_max), far, n_bs)
        covered = u < low
        again |= ~covered & ~(u >= high)
    if again.any():
        picked = np.flatnonzero(again)
        sums = np.empty((2, picked.size))
        serving[picked], exact = _full_walk(real, bs, rng, start, again, beta, sums)
        near_cover = cover[picked]
        kept = np.where(band[picked], near_cover * (u_far[picked] * near_cover < exact),
                        tally[picked])
        tally[picked] = np.where(certified[picked], kept, exact)
        cover[picked], beta_sum[picked], beta_max[picked] = exact, *sums
        far[:, picked] = 0.0
        if rate_target is not None:
            covered[picked] = u[picked] < exact
    if np.isnan(cover).any():
        raise ScenarioError(f"link gains leave the float range at path_loss_exp "
                            f"{scenario.path_loss_exp:g}, so some SIRs are undefined")
    assoc = np.bincount(bs.tier_of[serving], minlength=scenario.k_tiers) / n_users
    g = config.guard_margin  # 0 in toroidal mode
    top = config.window_side - g
    inner = (bs.x >= g) & (bs.x <= top) & (bs.y >= g) & (bs.y <= top)
    counts = np.bincount(bs.tier_of[inner], minlength=scenario.k_tiers)
    area = np.full(scenario.k_tiers, math.nan)
    np.divide((top - g) ** 2 * assoc, counts, out=area, where=counts > 0)
    if rate_target is None:
        return float(tally.mean()), assoc, area, math.nan
    load = np.bincount(serving[covered], minlength=n_bs)
    # Overflows give inf or nan bounds: a nan bound decides nothing, and a
    # user whose theta is inf never exceeds it.
    theta = np.exp2(rate_target * (load[serving] - covered + 1.0)) - 1.0
    low, high = _band(theta / beta, cover, (beta_sum, beta_max), far, n_bs)
    hit = u < low
    open_ = ~hit & ~(u >= high) & (theta < math.inf)
    if open_.any():
        hit[open_] = u[open_] < _full_walk(real, bs, rng, start, open_, theta, None)[1]
    return float(tally.mean()), assoc, area, hit


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
    if rate_target is not None and not rate_target >= 0:
        raise ScenarioError(f"rate_target must be >= 0 (got {rate_target})")
    area_tiers = tuple(area_tiers)
    for k in area_tiers:
        _check_integer(k, "tier", 0, scenario.k_tiers - 1)
        if rho[k] * scenario.tiers[k].density <= 0:
            raise ScenarioError(f"tiers[{k}] has zero ON density; its area is undefined")

    def one(replicate: int):
        rng = _replicate_rng(config, replicate)
        real = sample_network(scenario, rho, config, rng)
        return _user_pass(real, scenario, config, rng, rate_target)

    stats = _run_replicates(one, config)
    # Areas first: when no replicate has a BS or a user, the error names them.
    area = {k: _combine([s[2][k] for s in stats], config,
                        f"the tiers[{k}] service area") for k in area_tiers}
    return SpatialEstimate(
        coverage=_combine([s[0] for s in stats], config, "coverage"),
        association=tuple(_combine([s[1][k] for s in stats], config, "association")
                          for k in range(scenario.k_tiers)),
        rate=None if rate_target is None else
        _combine([np.mean(s[3]) for s in stats], config, "the rate tally"),
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
