import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import t as student_t

import harvnet
from harvnet import analytic, simulate
from harvnet.cli import load_scenario
from harvnet.model import (
    NetworkScenario,
    ScenarioError,
    ShadowingSpec,
    TierParams,
    _t99,
)
from harvnet.simulate import (
    Realization,
    SimConfig,
    _bs_field,
    _ccdf,
    _chunk_gains,
    _combine,
    _gain_tiles,
    _thread_count,
    _tiles,
    _user_pass,
    _workspace,
    association_mc,
    coverage_mc,
    rate_mc,
    sample_network,
    service_area_mc,
    spatial_mc,
    suggest_window_side,
)
from oracles import (
    associate,
    full_matrix_rate_events,
    hypot_link_gains,
    per_position_far_sums,
    probe_service_areas,
    raw_fading_coverage,
    row_weight_user_pass,
)

PC = 1 / (1 + math.pi / 4)


def two_tier(lams=(1.0, 10.0), powers=(1.0, 1.0), lam_u=None, shadowing=None):
    sh = shadowing or ShadowingSpec(0.0, 0.0)
    tiers = tuple(TierParams(lams[i], powers[i], 1.0, 5, sh) for i in range(2))
    lam_u = (1.0 + 10.0) / (1.1 * PC) if lam_u is None else lam_u
    return NetworkScenario(tiers=tiers, path_loss_exp=4.0, sir_target=1.0,
                           user_density=lam_u)


def one_tier(lam=2.0, lam_u=3.0):
    return NetworkScenario(tiers=(TierParams(lam, 1.0, 1.0, 5),),
                           path_loss_exp=4.0, sir_target=1.0,
                           user_density=lam_u)


def test_sample_network_poisson_counts():
    sc = one_tier(lam=2.0, lam_u=3.0)
    config = SimConfig(window_side=5.0, replicates=1, seed=42)
    rng = np.random.default_rng(42)
    bs_counts, user_counts = [], []
    for _ in range(200):
        real = sample_network(sc, [0.5], config, rng)
        bs_counts.append(real.tier_counts[0])
        user_counts.append(real.users.shape[0])
    assert np.mean(bs_counts) == pytest.approx(0.5 * 2.0 * 25.0, abs=1.5)
    assert np.mean(user_counts) == pytest.approx(3.0 * 25.0, abs=2.5)


def test_zero_availability_empties_the_tier():
    sc = two_tier()
    config = SimConfig(window_side=6.0, replicates=1, seed=3)
    real = sample_network(sc, [0.0, 0.8], config, np.random.default_rng(3))
    assert real.tier_counts[0] == 0
    assert real.tier_counts[1] > 0


def test_estimates_are_reproducible_and_seed_sensitive():
    sc = two_tier()
    config = SimConfig(window_side=6.0, replicates=4, seed=11)
    a = coverage_mc(sc, [1.0, 1.0], config)
    b = coverage_mc(sc, [1.0, 1.0], config)
    assert a == b
    c = coverage_mc(sc, [1.0, 1.0],
                    SimConfig(window_side=6.0, replicates=4, seed=12))
    assert c.mean != a.mean


def test_ci_shrinks_with_replicates():
    sc = two_tier()
    hws = []
    for reps in (4, 16, 64):
        config = SimConfig(window_side=5.0, replicates=reps, seed=7)
        hws.append(coverage_mc(sc, [1.0, 1.0], config).ci_halfwidth_99)
    assert hws[2] < hws[1] < hws[0]
    assert hws[2] < 0.5 * hws[0]


def test_single_bs_takes_every_user():
    sc = one_tier()
    real = Realization(bs_pos=[np.array([[2.0, 2.0]])],
                       users=np.random.default_rng(1).uniform(0, 4, (30, 2)),
                       window_side=4.0)
    tiers, idx = associate(real, sc, np.random.default_rng(2))
    assert np.all(tiers == 0)
    assert np.all(idx == 0)


def test_serving_bs_is_first_argmax(monkeypatch):
    # Each case is a BS-major block, handed to the pass as its one
    # user-major tile; the pass must serve each user from the first BS of
    # largest gain.
    rng = np.random.default_rng(4)
    ties = rng.integers(0, 3, (40, 512)).astype(float)     # many tied maxima
    spiky = rng.random((40, 512))
    spiky[rng.random((40, 512)) < 0.05] = np.inf             # tied infinities
    spiky[:, :3] = np.inf
    tall = []                          # past int16 row numbers, tied maxima
    for rows in (32766, 32767, 33000):
        w = rng.random((rows, 64))
        w[rng.integers(0, rows, (2, 64)), np.arange(64)] = 2.0
        w[rows - 1, ::3] = 2.0
        tall.append(w)
    picks, walked = [], []
    # The tiles stand in for `_gain_tiles` twice: in the near pass, whose
    # one block of users has every BS in its near field (all BSs share one
    # point), and in the walk over every BS that uncertified users get.
    monkeypatch.setattr(simulate, "_ccdf",
                        lambda w, srv, *_: picks.append(srv) or np.zeros(srv.size))
    for w in (ties, spiky, rng.random((1, 512)), np.zeros((7, 512)),
              rng.random((1237, 3)), *tall):
        want = np.argmax(w, axis=0)
        tile = np.ascontiguousarray(w.T)

        def tiles(pts, bs, rng, work, pick=None):
            users = slice(0, tile.shape[0]) if pick is None else np.flatnonzero(pick)
            walked.append(users)
            return iter([(users, tile[users])])

        monkeypatch.setattr(simulate, "_gain_tiles", tiles)
        real = Realization(bs_pos=[np.zeros((w.shape[0], 2))],
                           users=np.zeros((w.shape[1], 2)), window_side=1.0)
        _user_pass(real, one_tier(), rng, None)
        got, *again = picks
        assert got.dtype == want.dtype and np.array_equal(got, want)
        for srv, users in zip(again, walked[1:], strict=True):
            assert np.array_equal(srv, want[users])
        picks.clear()
        walked.clear()


def test_association_is_nearest_bs_without_shadowing():
    sc = two_tier(powers=(1.0, 1.0))
    rng = np.random.default_rng(8)
    side = 5.0
    real = Realization(bs_pos=[rng.uniform(0, side, (4, 2)),
                               rng.uniform(0, side, (7, 2))],
                       users=rng.uniform(0, side, (40, 2)),
                       window_side=side)
    tiers, idx = associate(real, sc, np.random.default_rng(9))
    all_bs = np.vstack(real.bs_pos)
    tier_of = np.repeat([0, 1], [4, 7])
    d = np.abs(all_bs[:, None, :] - real.users[None, :, :])
    d = np.minimum(d, side - d)
    nearest = np.argmin(np.hypot(d[..., 0], d[..., 1]), axis=0)
    assert np.array_equal(tiers, tier_of[nearest])
    offsets = np.array([0, 4])
    assert np.array_equal(idx, nearest - offsets[tier_of[nearest]])


def test_empty_realization_is_an_error():
    sc = one_tier()
    real = Realization(bs_pos=[np.empty((0, 2))], users=np.empty((0, 2)),
                       window_side=4.0)
    with pytest.raises(ScenarioError, match="no BS"):
        associate(real, sc, np.random.default_rng(0))


def test_service_area_single_tier_is_inverse_density():
    sc = one_tier(lam=2.0)
    config = SimConfig(window_side=8.0, replicates=10, seed=5)
    est = service_area_mc(sc, [1.0], 0, config)
    assert est.agrees_with(0.5)
    with pytest.raises(ScenarioError, match="zero ON density"):
        service_area_mc(sc, [0.0], 0, config)


def test_coverage_estimate_near_analytic_constant():
    sc = two_tier()
    config = SimConfig(window_side=7.0, replicates=8, seed=21)
    est = coverage_mc(sc, [1.0, 1.0], config)
    assert abs(est.mean - PC) < est.ci_halfwidth_99 + 0.01
    # Coverage should not care which availability vector thinned the BSs.
    other = coverage_mc(sc, [0.6, 0.35], config)
    assert abs(est.mean - other.mean) < \
        est.ci_halfwidth_99 + other.ci_halfwidth_99


def test_association_mc_fractions_sum_to_one():
    sc = two_tier()
    config = SimConfig(window_side=6.0, replicates=6, seed=17)
    ests = association_mc(sc, [1.0, 1.0], config)
    assert len(ests) == 2
    assert ests[0].mean + ests[1].mean == pytest.approx(1.0, abs=1e-12)
    # ten times denser tier with equal power takes about 10/11 of the users
    assert abs(ests[1].mean - 10 / 11) < ests[1].ci_halfwidth_99 + 0.02


def test_rate_mc_basics():
    sc = two_tier(lam_u=30.0)
    config = SimConfig(window_side=6.0, replicates=6, seed=29)
    hi = rate_mc(sc, [1.0, 1.0], 0.01, config)
    lo = rate_mc(sc, [1.0, 1.0], 2.0, config)
    assert 0.0 <= lo.mean <= hi.mean <= 1.0
    with pytest.raises(ScenarioError):
        rate_mc(sc, [1.0, 1.0], -0.5, config)


def test_nan_rate_target_is_an_error():
    config = SimConfig(window_side=6.0, replicates=2, seed=29)
    with pytest.raises(ScenarioError, match=r"^rate_target must be >= 0 \(got nan\)$"):
        spatial_mc(two_tier(), [1.0, 1.0], config, rate_target=math.nan)


def test_rate_edge_cases():
    # A lone BS has no interferer, so every user's SIR is infinite; T = 0
    # is exceeded by any SIR, and T = inf by none.  No warning is raised.
    lone = Realization(bs_pos=[np.array([[2.0, 2.0]])],
                       users=np.random.default_rng(1).uniform(0, 4, (30, 2)),
                       window_side=4.0)
    for t in (0.1, 1.0, 10.0):
        events = _user_pass(lone, one_tier(), np.random.default_rng(2), t)[3]
        assert events.all()
    sc = two_tier(shadowing=ShadowingSpec(0.5, 4.0), lam_u=30.0)
    config = SimConfig(window_side=6.0, replicates=3, seed=5)
    assert rate_mc(sc, [1.0, 1.0], 0.0, config).mean == 1.0
    assert rate_mc(sc, [1.0, 1.0], math.inf, config).mean == 0.0
    assert rate_mc(one_tier(), [1.0], math.inf, SimConfig(window_side=4.0,
                                                          replicates=2)).mean == 0.0


def test_rate_bounds_hold_where_coverage_rounds_to_one():
    # Users 1e-5 to 1e-4 from their BS have interference ratios of 1e-22 to
    # 1e-18, so their coverage rounds to 1, while theta near 1e20 gives C
    # anywhere in (0, 1): p^t = 1 there is no lower bound unless the band
    # widens with t.
    rng = np.random.default_rng(3)
    d = 10.0 ** rng.uniform(-5, -4, 200)
    phi = rng.uniform(0, 2 * math.pi, 200)
    real = Realization(bs_pos=[np.array([[1.0, 1.0], [3.0, 3.0]])],
                       users=1.0 + d[:, None] * np.column_stack((np.cos(phi), np.sin(phi))),
                       window_side=4.0)
    events = _user_pass(real, one_tier(), np.random.default_rng(4), 0.332)[3]
    want = full_matrix_rate_events(real, one_tier(), np.random.default_rng(4), 0.332)
    assert 0.2 < want.mean() < 0.8
    assert np.array_equal(events, want)


# Shadowed and alpha = 3.5, with about 3,200 users per layout, so
# undecided users fall in several draw blocks of the replay.
SHADOWED = replace(two_tier(powers=(4.0, 0.25), lam_u=50.0,
                            shadowing=ShadowingSpec(1.5, 6.0)), path_loss_exp=3.5)
SHADOWED_CONFIG = SimConfig(window_side=8.0, replicates=1)
BUNDLED = ("two-tier-baseline", "battery-sweep", "gamma-rich", "rate-surface")


def _bundled(name):
    """A bundled scenario at the availabilities `validate` simulates."""
    sc, _ = load_scenario(str(Path(__file__).resolve().parents[1]
                              / "scenarios" / f"{name}.json"))
    result = analytic.solve_availability(sc)
    return sc, result.rho if result.feasible else np.ones(sc.k_tiers)


@pytest.mark.parametrize("name", [*BUNDLED, "shadowed"])
def test_rate_events_match_full_matrix_oracle(name, monkeypatch):
    # 20 layouts per scenario, at T = 0.1 and 1 in turn.  The bounds decide
    # most users and the exact product the rest; every user's event must
    # be U < C(theta) as the whole-matrix product gives it.
    if name == "shadowed":
        sc, rho, config = SHADOWED, (0.9, 0.7), SHADOWED_CONFIG
    else:
        (sc, rho), config = _bundled(name), SimConfig(window_side=6.0, replicates=1)
    exact = []

    def spy(real, bs, rng, work, pick=None):
        if pick is not None:
            exact.append(pick.copy())
        return _gain_tiles(real, bs, rng, work, pick)

    monkeypatch.setattr(simulate, "_gain_tiles", spy)
    for i in range(20):
        rng = np.random.default_rng([71, i])
        real = sample_network(sc, rho, config, rng)
        state = rng.bit_generator.state
        events = _user_pass(real, sc, rng, (0.1, 1.0)[i % 2])[3]
        replay = np.random.default_rng([71, i])
        replay.bit_generator.state = state
        want = full_matrix_rate_events(real, sc, replay, (0.1, 1.0)[i % 2])
        assert np.array_equal(events, want), (i, np.flatnonzero(events != want))
        assert rng.bit_generator.state == replay.bit_generator.state
    if name == "shadowed":
        assert real.users.shape[0] > 1024
        assert any(np.flatnonzero(pick)[-1] >= 1024 for pick in exact)
    # the exact product settles a few users, never most of them
    picked = np.mean(np.concatenate(exact))
    assert 0 < picked < 0.2, picked


@pytest.mark.parametrize("name", [*BUNDLED, "shadowed"])
def test_rate_tally_agrees_with_sampled_fading(name):
    # The same law as one Rayleigh fade per link, which the row-weight
    # oracle still draws: 64 replicates each, within the combined 99% CIs.
    if name == "shadowed":
        sc, rho = SHADOWED, (0.9, 0.7)
        config = replace(SHADOWED_CONFIG, replicates=64, seed=17)
    else:
        (sc, rho), config = _bundled(name), SimConfig(window_side=8.0, replicates=64,
                                                      seed=17)
    est = rate_mc(sc, rho, 0.1, config)

    def fading(i):
        rng = np.random.default_rng([config.seed + 1, i])
        real = sample_network(sc, rho, config, rng)
        return row_weight_user_pass(real, sc, rng, 0.1)[3]

    want = simulate._combine(simulate._run_replicates(fading, config), config, "fading")
    assert est.dropped == want.dropped == 0
    assert est.agrees_with(want.mean, want.ci_halfwidth_99), (est, want)


def test_suggest_window_side():
    sc = two_tier()
    side = suggest_window_side(sc, [1.0, 1.0])
    # sparsest active tier has unit ON density here
    assert side == pytest.approx(10.0)
    assert suggest_window_side(sc, [0.0, 1.0]) == pytest.approx(
        math.sqrt(100.0 / 10.0))
    with pytest.raises(ScenarioError):
        suggest_window_side(sc, [0.0, 0.0])


def test_suggest_window_side_reads_active_tiers_by_rho():
    # rho lambda = 1e-350 rounds to 0, yet the tier is ON, as the association
    # finds; a side past the float range names the ON density it comes from
    one = NetworkScenario((TierParams(1e-150, 1.0, 1.0, 5),), 4.0, 1.0, 1.0)
    assert harvnet.tier_association_prob(one, [1e-200]).tolist() == [1.0]
    for rho, shown in (([1e-200], "0"), ([1e-160], "1e-310")):
        with pytest.raises(ScenarioError) as info:
            suggest_window_side(one, rho)
        assert str(info.value) == (f"window side for the sparsest ON density rho_k lambda_k "
                                   f"= {shown} leaves the float range")
    assert suggest_window_side(one, [1e-140]) == math.sqrt(100.0 / (1e-140 * 1e-150))
    # the one "no BS is ON" message, as the association gives it
    for call in (suggest_window_side, harvnet.tier_association_prob):
        with pytest.raises(ScenarioError) as info:
            call(one, [0.0])
        assert str(info.value) == "no BS available: weighted ON density is zero"


def test_thread_count_does_not_change_results(monkeypatch):
    sc = two_tier()
    config = SimConfig(window_side=6.0, replicates=6, seed=51)
    monkeypatch.setenv("HETNET_THREADS", "1")
    serial = coverage_mc(sc, [1.0, 1.0], config)
    monkeypatch.setenv("HETNET_THREADS", "4")
    threaded = coverage_mc(sc, [1.0, 1.0], config)
    assert serial == threaded


def test_thread_count_rejects_malformed_env(monkeypatch):
    for bad in ("two", "0", "-3", "1.5"):
        monkeypatch.setenv("HETNET_THREADS", bad)
        with pytest.raises(ScenarioError, match=f"HETNET_THREADS.*'{re.escape(bad)}'"):
            _thread_count(4)
    monkeypatch.setenv("HETNET_THREADS", " 3 ")
    assert _thread_count(8) == 3
    assert _thread_count(2) == 2


def test_sim_config_validation():
    with pytest.raises(ScenarioError):
        SimConfig(window_side=0.0)
    with pytest.raises(ScenarioError):
        SimConfig(window_side=5.0, replicates=0)
    # The window is always a torus: no field sets another edge model.
    for key in ("guard_margin", "boundary"):
        with pytest.raises(TypeError):
            SimConfig(window_side=5.0, **{key: 1.0})
    for seed in (-1, 1.5, "3"):
        with pytest.raises(ScenarioError, match="seed"):
            SimConfig(window_side=5.0, seed=seed)


@pytest.mark.filterwarnings("error")
def test_unusable_windows_are_named():
    # both fail before any draw: inf in SimConfig, 1e300 at its point counts
    for side in (0.0, -1.0):
        with pytest.raises(ScenarioError,
                           match=re.escape(f"window_side must be finite and > 0 (got {side})")):
            SimConfig(window_side=side)
    with pytest.raises(ScenarioError, match=r"window_side must be finite and > 0 \(got inf\)"):
        SimConfig(window_side=math.inf)
    rng = np.random.default_rng(0)
    with pytest.raises(ScenarioError, match="window_side 1e\\+300"):
        sample_network(two_tier(), [0.5, 0.5], SimConfig(window_side=1e300), rng)


def test_expected_point_count_is_capped_before_any_draw(monkeypatch):
    # at rho = (0.5, 0.5) the window expects (0.5 + 5 + lambda_u) side^2 points
    sc, rng = two_tier(), np.random.default_rng(0)
    per_area = 0.5 * 1.0 + 0.5 * 10.0 + sc.user_density
    with pytest.raises(ScenarioError, match=re.escape(
            f"window_side 100000.0 gives {per_area * 1e10:.3g} expected points")):
        sample_network(sc, [0.5, 0.5], SimConfig(window_side=1e5), rng)
    # the cap bounds the sum over tiers and users, here 374 points
    monkeypatch.setattr(simulate, "_MAX_POINTS", math.ceil(per_area * 16))
    sample_network(sc, [0.5, 0.5], SimConfig(window_side=4.0), rng)
    with pytest.raises(ScenarioError, match="at most 374"):
        sample_network(sc, [0.5, 0.5], SimConfig(window_side=4.01), rng)


@pytest.mark.parametrize("shadowing", [None, ShadowingSpec(1.5, 6.0)])
def test_gain_kernel_matches_hypot_oracle(shadowing):
    sc = two_tier(powers=(4.0, 0.25), shadowing=shadowing)
    side = 5.0
    rng = np.random.default_rng(61)
    real = Realization(bs_pos=[rng.uniform(0, side, (9, 2)),
                               rng.uniform(0, side, (23, 2))],
                       users=rng.uniform(0, side, (37, 2)), window_side=side)
    real.users[5] = real.bs_pos[1][3]        # a link at the distance floor
    bs = _bs_field(real, sc)
    [got] = [w.T for _, w in _gain_tiles(real.users, bs, np.random.default_rng(62),
                                         _workspace(32, 37))]
    tier_of = np.repeat([0, 1], [9, 23])
    shadow_db = None
    if shadowing is not None:
        z = np.random.default_rng(62).standard_normal(got.shape)
        shadow_db = shadowing.mean_db + shadowing.std_db * z
    want = hypot_link_gains(np.vstack(real.bs_pos), tier_of, real.users,
                            [4.0, 0.25], 4.0, side, shadow_db)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("shadowing", [None, ShadowingSpec(1.5, 6.0)])
def test_gain_kernel_matches_hypot_oracle_off_alpha_4(shadowing):
    # alpha = 4 squares d^2; any other exponent goes through np.power.
    sc = replace(two_tier(powers=(4.0, 0.25), shadowing=shadowing), path_loss_exp=3.5)
    side = 5.0
    rng = np.random.default_rng(71)
    real = Realization(bs_pos=[rng.uniform(0, side, (9, 2)),
                               rng.uniform(0, side, (23, 2))],
                       users=rng.uniform(0, side, (37, 2)), window_side=side)
    real.users[5] = real.bs_pos[1][3]        # a link at the distance floor
    bs = _bs_field(real, sc)
    [got] = [w.T for _, w in _gain_tiles(real.users, bs, np.random.default_rng(72),
                                         _workspace(32, 37))]
    shadow_db = None
    if shadowing is not None:
        z = np.random.default_rng(72).standard_normal(got.shape)
        shadow_db = shadowing.mean_db + shadowing.std_db * z
    want = hypot_link_gains(np.vstack(real.bs_pos), np.repeat([0, 1], [9, 23]),
                            real.users, [4.0, 0.25], 3.5, side, shadow_db)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("alpha", [4.0, 3.5])
def test_gain_kernel_ignores_what_a_workspace_held(alpha):
    # A full block leaves every buffer dirty; the partial block after it
    # reads only what it writes, so it matches a fresh workspace bit for bit.
    sc = replace(two_tier(powers=(4.0, 0.25), shadowing=ShadowingSpec(1.5, 6.0)),
                 path_loss_exp=alpha)
    rng = np.random.default_rng(73)
    real = Realization(bs_pos=[rng.uniform(0, 5.0, (9, 2)),
                               rng.uniform(0, 5.0, (23, 2))],
                       users=rng.uniform(0, 5.0, (512 + 37, 2)), window_side=5.0)
    bs = _bs_field(real, sc)
    work = _workspace(32, 512 + 37)
    full = _chunk_gains(bs, real.users[:512], work).T
    assert full.shape == (32, 512) and np.shares_memory(full, work)
    part = _chunk_gains(bs, real.users[512:], work).T
    assert np.shares_memory(part, work)
    fresh = _chunk_gains(bs, real.users[512:], np.empty((3, 37 * 32))).T
    np.testing.assert_array_equal(part, fresh)


def _factors(row, s, scale):
    """1 + row_j (scale/row_s) for each BS j, 1 for the serving BS s."""
    ratio = scale / row[s]
    return [1.0 if j == s else 1.0 + x * ratio for j, x in enumerate(row)]


def _pairwise_product(xs):
    while len(xs) > 1:
        xs = [a * b for a, b in zip(xs[::2], xs[1::2])] + xs[len(xs) - len(xs) % 2:]
    return xs[0]


@pytest.mark.parametrize("per_user", [False, True])
def test_coverage_product_keeps_bs_order(per_user):
    # The product is the one reduction whose bits depend on its order.
    # These factors give other bits multiplied pairwise, so each user's
    # value must be the left-to-right product over its BSs, bit for bit.
    rng = np.random.default_rng(98)
    n_bs, m = 300, 40
    gains = rng.uniform(0.01, 10.0, (m, n_bs))
    srv = gains.argmax(axis=1)
    scale = rng.uniform(0.5, 2.0, m) if per_user else 1.3
    factors = [_factors(row, s, c) for row, s, c in
               zip(gains.tolist(), srv, np.broadcast_to(scale, m))]
    want = [1.0 / math.prod(f) for f in factors]
    pairwise = [1.0 / _pairwise_product(f) for f in factors]
    assert pairwise != want
    work = _workspace(n_bs, m)
    tile = work[0, :gains.size].reshape(gains.shape)
    tile[...] = gains
    assert _ccdf(tile, srv, scale, None, work).tolist() == want
    # a user with no interferer is covered for sure
    work = _workspace(1, m)
    work[0, :m] = rng.uniform(0.01, 10.0, m)
    got = _ccdf(work[0, :m].reshape(m, 1), np.zeros(m, dtype=np.int64), scale, None, work)
    assert got.tolist() == [1.0] * m


def test_picked_tiles_are_the_picked_columns_of_the_full_walk():
    # Alpha = 3.5, 1,300 users in three draw blocks, and 320 BSs give
    # tiles of 204 users, which may span draw blocks, shadowed or not.  A
    # walk over picked users yields their columns of the full walk bit for
    # bit, in one workspace the full walk left dirty, in as few tiles as
    # the width allows, and draws the shadowing of the blocks up to its
    # last pick.  A pick spread over the three blocks is one tile.
    rng = np.random.default_rng(95)
    real = Realization(bs_pos=[rng.uniform(0, 6.0, (30, 2)),
                               rng.uniform(0, 6.0, (290, 2))],
                       users=rng.uniform(0, 6.0, (1300, 2)), window_side=6.0)
    index = np.arange(1300)
    spread = np.isin(index, [3, 511, 512, 700, 1023, 1024, 1299])
    picks = (rng.random(1300) < 0.1, index % 211 == 7, index == 700, index == 1299, spread)
    for shadowing in (ShadowingSpec(1.5, 6.0), None):
        sc = replace(two_tier(powers=(4.0, 0.25), shadowing=shadowing), path_loss_exp=3.5)
        bs = _bs_field(real, sc)
        work = _workspace(320, 1300)
        full = np.hstack([w.T.copy() for _, w in
                          _gain_tiles(real.users, bs, np.random.default_rng(96), work)])
        assert full.shape == (320, 1300)
        for pick in picks:
            picked = np.random.default_rng(96)
            users, tiles = zip(*[(u, w.T.copy()) for u, w in
                                 _gain_tiles(real.users, bs, picked, work, pick)])
            assert len(tiles) == -(-np.count_nonzero(pick) // 204)
            assert np.array_equal(np.concatenate(users), np.flatnonzero(pick))
            assert np.array_equal(np.hstack(tiles), full[:, pick])
            drawn = np.random.default_rng(96)
            if shadowing is not None:
                drawn.standard_normal(320 * min(1300, (index[pick][-1] // 512 + 1) * 512))
            assert picked.bit_generator.state == drawn.bit_generator.state
        assert len(tiles) == 1


def _assert_row_weight_bits(real, sc, rate_target):
    # The rate tallies differ by design; they are compared in law by
    # test_rate_tally_agrees_with_sampled_fading.
    got_rng, want_rng = np.random.default_rng(92), np.random.default_rng(92)
    got = _user_pass(real, sc, got_rng, rate_target)
    want = row_weight_user_pass(real, sc, want_rng, rate_target)
    assert np.array_equal(np.hstack(got[:3]), np.hstack(want[:3]), equal_nan=True)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("rate_target", [None, 0.2])
@pytest.mark.parametrize("shadowing", [None, ShadowingSpec(1.5, 6.0)])
@pytest.mark.parametrize("alpha", [4.0, 3.5])
def test_user_pass_matches_row_weight_kernel_bit_for_bit(alpha, shadowing, rate_target):
    # 320 BSs give tiles of 204 users; 513 users leave a one-user tail tile
    # after the first draw block.
    sc = replace(two_tier(powers=(4.0, 0.25), shadowing=shadowing), path_loss_exp=alpha)
    side = 6.0
    rng = np.random.default_rng(91)
    real = Realization(bs_pos=[rng.uniform(0, side, (30, 2)),
                               rng.uniform(0, side, (290, 2))],
                       users=rng.uniform(0, side, (513, 2)), window_side=side)
    _assert_row_weight_bits(real, sc, rate_target)


@pytest.mark.parametrize("rate_target", [None, 0.2])
def test_user_pass_matches_row_weight_kernel_past_int16_rows(rate_target):
    # Past 32,767 BSs the earlier pick weighted the rows in int64.
    sc = two_tier(powers=(4.0, 0.25), shadowing=ShadowingSpec(0.0, 4.0))
    rng = np.random.default_rng(93)
    real = Realization(bs_pos=[rng.uniform(0, 60.0, (3000, 2)),
                               rng.uniform(0, 60.0, (30000, 2))],
                       users=rng.uniform(0, 60.0, (8, 2)), window_side=60.0)
    _assert_row_weight_bits(real, sc, rate_target)


def _split_layouts(name, count, seed):
    """`count` layouts on which the user pass splits.

    Layouts have alpha = 4 in pairs and 3.5 in the pairs between, on a
    window of about 1,000 ON BSs, keeping 500 of its users to bound the
    cost of the dense oracles; the kept users are still uniform on the
    window.
    """
    if name == "shadowed":
        sc, rho = SHADOWED, np.array([0.9, 0.7])
    else:
        sc, rho = _bundled(name)
    side = math.sqrt(1000.0 / float(rho @ sc.densities()))
    for i in range(count):
        case = replace(sc, path_loss_exp=(4.0, 3.5)[i // 2 % 2])
        rng = np.random.default_rng([seed, i])
        real = sample_network(case, rho, SimConfig(window_side=side, replicates=1), rng)
        real = Realization(real.bs_pos, real.users[:500], side)
        if name != "shadowed":
            split = simulate._split(real, _bs_field(real, case))
            assert split.users.size > 2
        yield case, real, rng.bit_generator.state


def _replay(seed, i, state):
    rng = np.random.default_rng([seed, i])
    rng.bit_generator.state = state
    return rng


@pytest.mark.parametrize("name", [*BUNDLED, "shadowed"])
def test_split_pass_keeps_association_areas_and_rate_events_bit_for_bit(name):
    # Association and areas come from the serving BS, which the split
    # certifies or walks again, and every rate event is decided exactly;
    # shadowed passes are one block, where F = 1, so their coverage keeps
    # its bits too.
    for i, (sc, real, state) in enumerate(_split_layouts(name, 8, 37)):
        rng = _replay(37, i, state)
        got = _user_pass(real, sc, rng, 0.1)
        want_rng = _replay(37, i, state)
        want = row_weight_user_pass(real, sc, want_rng, None)
        first = 0 if name == "shadowed" else 1
        assert np.array_equal(np.hstack(got[first:3]), np.hstack(want[first:3]),
                              equal_nan=True), i
        assert rng.bit_generator.state == want_rng.bit_generator.state
        events = full_matrix_rate_events(real, sc, _replay(37, i, state), 0.1)
        assert np.array_equal(got[3], events), (i, np.flatnonzero(got[3] != events))


@pytest.mark.parametrize("name", BUNDLED)
def test_split_coverage_tally_is_unbiased_for_the_dense_coverage(name):
    # Over 20 layouts (alpha = 4 and 3.5), the tally C_near 1{U' < F} less
    # the dense C averages to 0 within its 99% CI, and its spread adds
    # under 5% to the between-layout variance of C.
    diffs, dense = [], []
    for i, (sc, real, state) in enumerate(_split_layouts(name, 20, 41)):
        got = _user_pass(real, sc, _replay(41, i, state), None)[0]
        want = row_weight_user_pass(real, sc, _replay(41, i, state), None)[0]
        diffs.append(got - want)
        dense.append(want)
    diffs = np.array(diffs)
    assert np.any(diffs != 0)
    hw = _t99(diffs.size - 1) * diffs.std(ddof=1) / math.sqrt(diffs.size)
    assert abs(diffs.mean()) <= hw, (diffs.mean(), hw)
    # Layouts i and i + 4 share an alpha, so a mean coverage.
    dense = np.array(dense).reshape(-1, 4)
    spread = ((dense - dense.mean(axis=0)) ** 2).sum()
    assert (diffs ** 2).sum() < 0.05 * spread, ((diffs ** 2).sum(), spread)


@pytest.mark.parametrize("alpha", [4.0, 3.5])
def test_far_sums_bound_each_users_far_field(alpha):
    # Against link gains from the hypot oracle: every user's far BSs (all
    # but its block's near field) sum to within [S_lo, S_hi], their
    # squares to at most Q, and none beats P_max gap^-alpha.
    sc = replace(two_tier(powers=(4.0, 0.25)), path_loss_exp=alpha)
    side = 9.0
    rng = np.random.default_rng(43)
    real = Realization(bs_pos=[rng.uniform(0, side, (90, 2)),
                               rng.uniform(0, side, (910, 2))],
                       users=rng.uniform(1.0, side - 1.0, (60, 2)), window_side=side)
    bs = _bs_field(real, sc)
    split = simulate._split(real, bs)
    assert split.users.size > 2
    gains = hypot_link_gains(np.vstack(real.bs_pos), bs.tier_of, real.users, [4.0, 0.25],
                             alpha, side)
    far = np.ones(gains.shape, dtype=bool)
    for i in range(split.users.size - 1):
        users = split.order[split.users[i]:split.users[i + 1]]
        far[np.ix_(split.near[split.fields[i]:split.fields[i + 1]], users)] = False
    assert 0 < far.mean() < 1
    s_lo, s_hi, q = split.far
    total = np.where(far, gains, 0.0)
    assert np.all(s_lo <= total.sum(axis=0) * (1 + 1e-12))
    assert np.all(total.sum(axis=0) <= s_hi * (1 + 1e-12))
    assert np.all((total ** 2).sum(axis=0) <= q * (1 + 1e-12))
    assert np.all(total.max(axis=0) <= 4.0 * split.gap ** -alpha * (1 + 1e-12))


@pytest.mark.parametrize("alpha", [4.0, 3.5, 2.5])
@pytest.mark.parametrize("n", [12, 18, 27, 60])
def test_far_sums_equal_the_per_position_loop_bit_for_bit(n, alpha):
    # The kernel spectra kept per grid, inverted in one batch, give the
    # sums of one kernel and one pair of FFTs per position of a cell.
    sc = replace(two_tier(powers=(4.0, 0.25)), path_loss_exp=alpha)
    rng = np.random.default_rng([44, n])
    for side in (9.0, 40.0):
        real = Realization(bs_pos=[rng.uniform(0, side, (n * n // 2, 2)),
                                   rng.uniform(0, side, (3 * n * n, 2))],
                           users=np.empty((0, 2)), window_side=side)
        bs, h = _bs_field(real, sc), side / n
        cell = simulate._cells(bs.x, h, n) * n + simulate._cells(bs.y, h, n)
        assert np.array_equal(simulate._far_sums(bs, cell, n, h),
                              per_position_far_sums(bs, cell, n, h))


def test_far_kernels_are_built_once_per_grid(monkeypatch):
    # Replicates and calls on one grid (18 cells a side at window 12)
    # share the kernel spectra; a new path-loss exponent or window side
    # builds its own.
    monkeypatch.setenv("HETNET_THREADS", "1")
    sc, rho = _bundled("two-tier-baseline")
    config = SimConfig(window_side=12.0, replicates=4, seed=7)
    kernels = simulate._far_kernels
    kernels.cache_clear()
    spatial_mc(sc, rho, config)
    assert kernels.cache_info()[:2] == (3, 1)           # hits, misses
    spatial_mc(sc, rho, config, rate_target=0.1)
    assert kernels.cache_info()[:2] == (7, 1)
    spatial_mc(replace(sc, path_loss_exp=3.5), rho, config)
    assert kernels.cache_info()[:2] == (10, 2)
    spatial_mc(sc, rho, replace(config, window_side=8.0))
    assert kernels.cache_info()[:2] == (13, 3)


def test_split_is_one_block_when_shadowed_or_on_a_small_grid():
    # About 4 BSs a cell and a multiple of 3 cells a side: 400 BSs give a
    # grid of 9 cells, 600 one of 12.  Shadowed, or at 9 cells, the split
    # is one block of every user with every BS near and nothing far; at
    # 12 cells, unshadowed, it is many blocks.
    side = 9.0
    rng = np.random.default_rng(47)
    users = rng.uniform(1.0, side - 1.0, (200, 2))
    for n_bs, shadowing in ((400, None), (600, ShadowingSpec(0.0, 4.0)), (600, None)):
        real = Realization(bs_pos=[rng.uniform(0, side, (n_bs // 10, 2)),
                                   rng.uniform(0, side, (n_bs - n_bs // 10, 2))],
                           users=users, window_side=side)
        bs = _bs_field(real, two_tier(shadowing=shadowing))
        split = simulate._split(real, bs)
        assert np.array_equal(np.sort(split.order), np.arange(200))
        if n_bs == 600 and shadowing is None:
            assert split.users.size > 2 and split.far.any()
            continue
        assert split.users.tolist() == [0, 200] and split.fields.tolist() == [0, n_bs]
        assert np.array_equal(split.order, np.arange(200))
        assert np.array_equal(split.near, np.arange(n_bs))
        assert split.far.shape == (3, 200) and not split.far.any()
        assert np.all(split.gap == math.inf)


@pytest.mark.parametrize("config", [
    SimConfig(window_side=3.0, replicates=6, seed=4),
])
def test_spatial_mc_equals_wrappers(config):
    # Tier 0 comes up empty in some replicates, which drops them from its
    # area.
    sc = two_tier(powers=(1.0, 0.5), lam_u=20.0, shadowing=ShadowingSpec(0.5, 4.0))
    rho = [0.1, 1.0]
    empty = 0
    for i in range(config.replicates):
        empty += not sample_network(sc, rho, config,
                                    np.random.default_rng([config.seed, i])).tier_counts[0]
    assert 0 < empty < config.replicates
    est = spatial_mc(sc, rho, config, rate_target=0.1, area_tiers=(0, 1))
    assert est.area[0].dropped == empty
    assert est.coverage == coverage_mc(sc, rho, config)
    assert list(est.association) == association_mc(sc, rho, config)
    assert est.rate == rate_mc(sc, rho, 0.1, config)
    assert est.area == {k: service_area_mc(sc, rho, k, config) for k in (0, 1)}
    assert spatial_mc(sc, rho, config).rate is None


def test_service_area_follows_replicate_stream():
    # Replicate i samples one network from default_rng([seed, i]); its
    # users, associated with shadowing drawn from the same stream, give
    # tier 0's share, and a replicate whose tier 0 is empty gives nan and
    # is dropped.  About 180 users fill one block, so associating them
    # draws the same shadowing as the user pass.
    sc = two_tier(powers=(1.0, 0.5), lam_u=20.0, shadowing=ShadowingSpec(0.5, 4.0))
    rho, side = [0.1, 1.0], 3.0
    config = SimConfig(window_side=side, replicates=6, seed=4)
    vals = []
    for i in range(config.replicates):
        rng = np.random.default_rng([config.seed, i])
        real = sample_network(sc, rho, config, rng)
        if real.tier_counts[0] == 0:
            vals.append(math.nan)
            continue
        tiers, _ = associate(real, sc, rng)
        vals.append(side * side * np.mean(tiers == 0) / int(real.tier_counts[0]))
    usable = [v for v in vals if not math.isnan(v)]
    assert 0 < len(usable) < config.replicates
    est = service_area_mc(sc, rho, 0, config)
    assert est.mean == np.mean(usable)
    assert (est.samples, est.dropped) == (len(usable), len(vals) - len(usable))


def test_probe_pass_without_any_bs_gives_nan():
    # The user pass now yields the service areas; a realization with
    # users but no BS at all gives nan for every tier and statistic.
    sc = two_tier()
    real = Realization(bs_pos=[np.empty((0, 2)), np.empty((0, 2))],
                       users=np.random.default_rng(0).uniform(0, 3.0, (5, 2)),
                       window_side=3.0)
    cov, assoc, area, rate = _user_pass(real, sc, np.random.default_rng(0), 0.1)
    assert area.shape == (2,) and np.isnan(area).all()
    assert np.isnan(assoc).all() and math.isnan(cov) and math.isnan(rate)


@pytest.mark.parametrize("config, oracle_config", [
    (SimConfig(window_side=6.0, replicates=16, seed=71),
     SimConfig(window_side=6.0, replicates=16, seed=72)),
])
def test_service_areas_agree_with_probe_oracle(config, oracle_config):
    sc = two_tier(powers=(1.0, 0.5), lam_u=20.0, shadowing=ShadowingSpec(0.5, 4.0))
    rho = [0.5, 1.0]
    est = spatial_mc(sc, rho, config, area_tiers=(0, 1)).area
    for k, (mean, hw) in probe_service_areas(sc, rho, oracle_config, (0, 1)).items():
        assert est[k].dropped == 0
        assert est[k].agrees_with(mean, hw), (k, est[k], mean, hw)


def test_service_area_of_a_nearly_empty_tier_raises():
    # Tier 0 expects 9e-7 ON BSs per window, so every replicate is dropped;
    # a resampling estimator would spin for about 1e6 draws per replicate.
    code = (
        "from harvnet.model import NetworkScenario, ScenarioError, TierParams\n"
        "from harvnet.simulate import SimConfig, service_area_mc\n"
        "tiers = (TierParams(1.0, 1.0, 1.0, 5), TierParams(10.0, 1.0, 1.0, 5))\n"
        "sc = NetworkScenario(tiers, 4.0, 1.0, 10.0)\n"
        "try:\n"
        "    service_area_mc(sc, [1e-7, 1.0], 0,\n"
        "                    SimConfig(window_side=3.0, replicates=2))\n"
        "except ScenarioError as exc:\n"
        "    print(exc)\n")
    src_dir = str(Path(harvnet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(
        "no usable replicate for the tiers[0] service area out of 2")


@pytest.mark.parametrize("shadowing", [None, ShadowingSpec(0.5, 4.0)])
def test_coverage_agrees_with_raw_fading_oracle(shadowing):
    # About 110 users per replicate, so one fading draw per link leaves
    # much of the replicate spread that the conditional coverage removes.
    sc = two_tier(powers=(1.0, 0.5), lam_u=3.0, shadowing=shadowing)
    est = coverage_mc(sc, [0.5, 1.0], SimConfig(window_side=6.0, replicates=64, seed=81))
    mean, hw = raw_fading_coverage(
        sc, [0.5, 1.0], SimConfig(window_side=6.0, replicates=64, seed=82))
    assert est.dropped == 0
    assert est.agrees_with(mean, hw), (est, mean, hw)
    assert est.ci_halfwidth_99 < hw


def test_single_bs_covers_every_user():
    real = Realization(bs_pos=[np.array([[2.0, 2.0]])],
                       users=np.random.default_rng(1).uniform(0, 4, (30, 2)),
                       window_side=4.0)
    cov, _, _, _ = _user_pass(real, one_tier(), np.random.default_rng(2), None)
    assert cov == 1.0


@pytest.mark.filterwarnings("error")
def test_huge_sir_target_gives_coverage_near_zero():
    # Most conditional-coverage products overflow to inf, which is coverage 0.
    sc = replace(two_tier(shadowing=ShadowingSpec(0.0, 6.0)), sir_target=1e12)
    est = coverage_mc(sc, [1.0, 1.0], SimConfig(window_side=5.0, replicates=4, seed=3))
    assert math.isfinite(est.mean) and math.isfinite(est.ci_halfwidth_99)
    assert 0.0 <= est.mean < 1e-4
    assert est.dropped == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [120.0, 200.0, 300.0])
def test_large_path_loss_exponent_answers_or_names_it(alpha):
    # Gains d^-alpha overflow to inf within a few hundredths of a BS here.
    # A user with one inf gain is covered; one with two has no defined SIR.
    # Either way no warning escapes, and a replicate with BSs and users is
    # never dropped: the pass answers, or names path_loss_exp.  At alpha =
    # 120 no user has two inf gains, so the pass answers.
    sc = replace(load_scenario(str(Path(__file__).resolve().parents[1] / "scenarios"
                                   / "two-tier-baseline.json"))[0], path_loss_exp=alpha)
    config = SimConfig(window_side=12.0, replicates=2, seed=3)
    real = sample_network(sc, (1.0, 1.0), config, np.random.default_rng([3, 0]))
    assert real.tier_counts.all() and real.users.shape[0] > 0
    try:
        cov, assoc, area, events = _user_pass(real, sc, np.random.default_rng([3, 0]), 0.1)
    except ScenarioError as exc:
        assert alpha > 120.0
        assert "path_loss_exp" in str(exc)
        with pytest.raises(ScenarioError, match="path_loss_exp"):
            spatial_mc(sc, (1.0, 1.0), config, rate_target=0.1)
        return
    assert 0.0 < cov <= 1.0 and not np.isnan(assoc).any() and events.dtype == bool
    est = spatial_mc(sc, (1.0, 1.0), config, rate_target=0.1)
    assert est.coverage.dropped == est.rate.dropped == 0
    assert est.coverage.samples == est.rate.samples == 2


@pytest.mark.parametrize("rate_target", [None, 0.1])
def test_user_pass_draws_only_shadowing_from_the_replicate_generator(rate_target):
    # Without shadowing it draws nothing; the rate tally's uniforms come
    # from a stream of their own.
    sc = two_tier()
    config = SimConfig(window_side=6.0, replicates=1, seed=9)
    rng = np.random.default_rng([config.seed, 0])
    real = sample_network(sc, [1.0, 1.0], config, rng)
    assert real.users.shape[0] > 512
    state = rng.bit_generator.state
    _user_pass(real, sc, rng, rate_target)
    assert rng.bit_generator.state == state


def test_rate_target_moves_no_other_estimate():
    # Shadowed, and over 512 users per replicate, so later blocks' shadowing
    # would shift if the rate tally drew from the replicate generator.
    sc = two_tier(shadowing=ShadowingSpec(0.5, 4.0), lam_u=30.0)
    config = SimConfig(window_side=6.0, replicates=3, seed=55)
    assert all(sample_network(sc, [0.8, 0.5], config,
                              np.random.default_rng([config.seed, i])).users.shape[0] > 512
               for i in range(config.replicates))
    with_rate = spatial_mc(sc, [0.8, 0.5], config, rate_target=0.2, area_tiers=(0, 1))
    without = spatial_mc(sc, [0.8, 0.5], config, area_tiers=(0, 1))
    assert with_rate.association == without.association
    assert with_rate.area == without.area
    assert with_rate.coverage == without.coverage


def test_spatial_mc_ignores_thread_count(monkeypatch):
    sc = two_tier(shadowing=ShadowingSpec(0.0, 3.0))
    config = SimConfig(window_side=5.0, replicates=6, seed=52)
    runs = []
    for threads in ("1", "4"):
        monkeypatch.setenv("HETNET_THREADS", threads)
        runs.append(spatial_mc(sc, [0.8, 0.5], config, rate_target=0.2,
                               area_tiers=(0, 1)))
    assert runs[0] == runs[1]


def test_spatial_mc_ignores_thread_count_across_blocks(monkeypatch):
    # Each replicate has over 512 users, so its pass ends on a partial
    # block in a workspace the full blocks before it have filled.
    sc = two_tier(shadowing=ShadowingSpec(0.5, 4.0), lam_u=30.0)
    config = SimConfig(window_side=6.0, replicates=5, seed=54)
    for i in range(config.replicates):
        real = sample_network(sc, [0.8, 0.5], config,
                              np.random.default_rng([config.seed, i]))
        assert real.users.shape[0] > 512 and real.users.shape[0] % 512
    runs = []
    for threads in ("1", "4"):
        monkeypatch.setenv("HETNET_THREADS", threads)
        runs.append(spatial_mc(sc, [0.8, 0.5], config, rate_target=0.2,
                               area_tiers=(0, 1)))
    assert runs[0] == runs[1]


def test_tiles_cover_each_block_in_order():
    for width in (1, 3, 4, 51, 218, 512):
        for n in range(1, 520):
            tiles = list(_tiles(n, width))
            assert [a for a, _ in tiles] == [0] + [b for _, b in tiles[:-1]]
            assert tiles[-1][1] == n
            assert all(1 <= b - a <= width for a, b in tiles)
            assert all(b - a == width for a, b in tiles[:-1])
    assert list(_tiles(0, 3)) == []


@pytest.mark.parametrize("width", [1, 3, 7, 512])
def test_tile_width_changes_no_estimate(monkeypatch, width):
    # Tiles of 1 user, of 3, of 7 with one spanning the first two draw
    # blocks (512 = 73 x 7 + 1), and of 512 users (one per draw block, as
    # the pass before tiles) give the same bits: the draws follow the
    # blocks, a user's values come from its own row, and numpy takes the
    # product over a lone user's BSs one at a time in order, as over a
    # wider tile's.
    sc = two_tier(shadowing=ShadowingSpec(0.5, 4.0), lam_u=30.0)
    config = SimConfig(window_side=6.0, replicates=1, seed=54)
    real = sample_network(sc, [0.8, 0.5], config, np.random.default_rng([54, 0]))
    assert real.users.shape[0] > 1024
    want = spatial_mc(sc, [0.8, 0.5], config, rate_target=0.2, area_tiers=(0, 1))
    monkeypatch.setattr(simulate, "_TILE_BUDGET", width * real.tier_counts.sum())
    assert simulate._tile_width(real.tier_counts.sum()) == width
    got = spatial_mc(sc, [0.8, 0.5], config, rate_target=0.2, area_tiers=(0, 1))
    assert got == want


@pytest.mark.parametrize("shadowing", [None, ShadowingSpec(0.5, 4.0)])
@pytest.mark.parametrize("rate_target", [None, 0.1])
def test_user_pass_memory_is_a_tile_plus_its_draw_blocks(shadowing, rate_target):
    # With 1,200 BSs one block of n_BS x 512 doubles is 4.9 MB.  The pass
    # holds a workspace of three tiles, one block for the shadowing normals
    # when shadowed (the rate tally's replay reuses it), and a slack for
    # the per-user arrays and numpy's iterator buffers.
    sc = two_tier(shadowing=shadowing)
    side = 10.0
    rng = np.random.default_rng(81)
    real = Realization(bs_pos=[rng.uniform(0, side, (100, 2)),
                               rng.uniform(0, side, (1100, 2))],
                       users=rng.uniform(0, side, (1100, 2)), window_side=side)
    block = 1200 * 512 * 8
    tracemalloc.start()
    try:
        stats = _user_pass(real, sc, np.random.default_rng(82), rate_target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < stats[0] < 1
    blocks = int(shadowing is not None)
    assert peak < blocks * block + _workspace(1200, 1100).nbytes + block // 8, peak
    if not blocks:
        assert peak < block // 2, peak


def test_empty_replicates_are_counted():
    sc = NetworkScenario(tiers=(TierParams(0.1, 1.0, 1.0, 5),),
                         path_loss_exp=4.0, sir_target=1.0, user_density=3.0)
    est = coverage_mc(sc, [1.0], SimConfig(window_side=4.0, replicates=10, seed=0))
    assert est.dropped > 0
    assert est.samples + est.dropped == 10
    assert coverage_mc(two_tier(), [1.0, 1.0],
                       SimConfig(window_side=5.0, replicates=3)).dropped == 0


@pytest.mark.filterwarnings("error")
def test_all_empty_replicates_raise():
    sc = one_tier(lam=0.01)
    config = SimConfig(window_side=1.0, replicates=4, seed=3)
    for estimate in (lambda: coverage_mc(sc, [1.0], config),
                     lambda: association_mc(sc, [1.0], config),
                     lambda: rate_mc(sc, [1.0], 0.1, config),
                     lambda: service_area_mc(sc, [1.0], 0, config)):
        with pytest.raises(ScenarioError, match="no usable replicate"):
            estimate()


def test_t99_matches_scipy_student_t():
    df = np.arange(1, 10_001)
    got = np.array([_t99(int(d)) for d in df])
    assert got == pytest.approx(student_t.ppf(0.995, df), rel=1e-6, abs=0)


def test_combine_scales_by_the_t_quantile_of_its_samples():
    config = SimConfig(window_side=1.0, replicates=4, seed=5)
    two = _combine([0.2, math.nan, 0.4, math.nan], config, "x")
    assert (two.samples, two.dropped) == (2, 2)
    assert two.ci_halfwidth_99 == pytest.approx(63.65674 * 0.1, rel=1e-6)
    vals = np.random.default_rng(0).uniform(size=40)
    est = _combine(vals, SimConfig(window_side=1.0, replicates=40), "x")
    assert est.ci_halfwidth_99 == pytest.approx(
        student_t.ppf(0.995, 39) * vals.std(ddof=1) / math.sqrt(40), rel=1e-6)
