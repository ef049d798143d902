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
from harvnet import simulate
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
    _chunk_gains,
    _combine,
    _shadow_factors,
    _strongest,
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
    hypot_link_gains,
    probe_service_areas,
    raw_fading_coverage,
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


def test_strongest_is_first_argmax():
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
    for w in (ties, spiky, rng.random((1, 512)), np.zeros((7, 512)),
              rng.random((1237, 3)), *tall):
        want = np.argmax(w, axis=0)
        for got in (_strongest(w), _strongest(w, rng.random((3, w.size + 5)))):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_association_is_nearest_bs_without_shadowing():
    sc = two_tier(powers=(1.0, 1.0))
    rng = np.random.default_rng(8)
    side = 5.0
    real = Realization(bs_pos=[rng.uniform(0, side, (4, 2)),
                               rng.uniform(0, side, (7, 2))],
                       users=rng.uniform(0, side, (40, 2)),
                       window_side=side)
    config = SimConfig(window_side=side, replicates=1, boundary="toroidal")
    tiers, idx = associate(real, sc, np.random.default_rng(9), config)
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


def test_guard_window_agrees_with_toroidal():
    sc = two_tier()
    tor = coverage_mc(sc, [1.0, 1.0],
                      SimConfig(window_side=7.0, replicates=8, seed=33))
    gua = coverage_mc(sc, [1.0, 1.0],
                      SimConfig(window_side=9.0, replicates=8, seed=33,
                                boundary="guard", guard_margin=1.5))
    assert abs(tor.mean - gua.mean) < \
        tor.ci_halfwidth_99 + gua.ci_halfwidth_99 + 0.01


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


def test_suggest_window_side():
    sc = two_tier()
    side = suggest_window_side(sc, [1.0, 1.0])
    # sparsest active tier has unit ON density here
    assert side == pytest.approx(10.0)
    assert suggest_window_side(sc, [0.0, 1.0]) == pytest.approx(
        math.sqrt(100.0 / 10.0))
    with pytest.raises(ScenarioError):
        suggest_window_side(sc, [0.0, 0.0])


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
    with pytest.raises(ScenarioError):
        SimConfig(window_side=5.0, boundary="mirror")
    with pytest.raises(ScenarioError):
        SimConfig(window_side=5.0, boundary="guard", guard_margin=0.0)
    with pytest.raises(ScenarioError):
        SimConfig(window_side=5.0, boundary="guard", guard_margin=2.5)
    with pytest.raises(ScenarioError, match="guard_margin needs boundary 'guard'"):
        SimConfig(window_side=5.0, guard_margin=1.0)
    SimConfig(window_side=5.0, boundary="toroidal", guard_margin=0.0)
    for seed in (-1, 1.5, "3"):
        with pytest.raises(ScenarioError, match="seed"):
            SimConfig(window_side=5.0, seed=seed)


@pytest.mark.filterwarnings("error")
def test_unusable_windows_are_named():
    # both fail before any draw: inf in SimConfig, 1e300 at its point counts
    for side in (0.0, -1.0):
        with pytest.raises(ScenarioError, match=re.escape("window_side must be > 0")):
            SimConfig(window_side=side)
    with pytest.raises(ScenarioError, match="window_side must be finite"):
        SimConfig(window_side=math.inf)
    rng = np.random.default_rng(0)
    with pytest.raises(ScenarioError, match="window_side 1e\\+300"):
        sample_network(two_tier(), [0.5, 0.5], SimConfig(window_side=1e300), rng)


@pytest.mark.parametrize("boundary", ["toroidal", "guard"])
@pytest.mark.parametrize("shadowing", [None, ShadowingSpec(1.5, 6.0)])
def test_gain_kernel_matches_hypot_oracle(boundary, shadowing):
    sc = two_tier(powers=(4.0, 0.25), shadowing=shadowing)
    side = 5.0
    config = SimConfig(window_side=side, replicates=1, boundary=boundary,
                       guard_margin=1.0 if boundary == "guard" else 0.0)
    rng = np.random.default_rng(61)
    real = Realization(bs_pos=[rng.uniform(0, side, (9, 2)),
                               rng.uniform(0, side, (23, 2))],
                       users=rng.uniform(0, side, (37, 2)), window_side=side)
    real.users[5] = real.bs_pos[1][3]        # a link at the distance floor
    bs = _bs_field(real, sc, config)
    got = _chunk_gains(bs, real.users,
                       _shadow_factors(bs, 37, np.random.default_rng(62)))
    tier_of = np.repeat([0, 1], [9, 23])
    shadow_db = None
    if shadowing is not None:
        z = np.random.default_rng(62).standard_normal(got.shape)
        shadow_db = shadowing.mean_db + shadowing.std_db * z
    want = hypot_link_gains(np.vstack(real.bs_pos), tier_of, real.users,
                            [4.0, 0.25], 4.0,
                            side if boundary == "toroidal" else None, shadow_db)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("boundary", ["toroidal", "guard"])
@pytest.mark.parametrize("shadowing", [None, ShadowingSpec(1.5, 6.0)])
def test_gain_kernel_matches_hypot_oracle_off_alpha_4(boundary, shadowing):
    # alpha = 4 squares d^2; any other exponent goes through np.power.
    sc = replace(two_tier(powers=(4.0, 0.25), shadowing=shadowing), path_loss_exp=3.5)
    side = 5.0
    config = SimConfig(window_side=side, replicates=1, boundary=boundary,
                       guard_margin=1.0 if boundary == "guard" else 0.0)
    rng = np.random.default_rng(71)
    real = Realization(bs_pos=[rng.uniform(0, side, (9, 2)),
                               rng.uniform(0, side, (23, 2))],
                       users=rng.uniform(0, side, (37, 2)), window_side=side)
    real.users[5] = real.bs_pos[1][3]        # a link at the distance floor
    bs = _bs_field(real, sc, config)
    got = _chunk_gains(bs, real.users,
                       _shadow_factors(bs, 37, np.random.default_rng(72)))
    shadow_db = None
    if shadowing is not None:
        z = np.random.default_rng(72).standard_normal(got.shape)
        shadow_db = shadowing.mean_db + shadowing.std_db * z
    want = hypot_link_gains(np.vstack(real.bs_pos), np.repeat([0, 1], [9, 23]),
                            real.users, [4.0, 0.25], 3.5,
                            side if boundary == "toroidal" else None, shadow_db)
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
    bs = _bs_field(real, sc, SimConfig(window_side=5.0, replicates=1))
    work = _workspace(32, 512 + 37)
    full = _chunk_gains(bs, real.users[:512],
                        _shadow_factors(bs, 512, np.random.default_rng(74)), work)
    assert full.shape == (32, 512) and np.shares_memory(full, work)
    part = _chunk_gains(bs, real.users[512:],
                        _shadow_factors(bs, 37, np.random.default_rng(75)), work)
    assert np.shares_memory(part, work)
    fresh = _chunk_gains(bs, real.users[512:],
                         _shadow_factors(bs, 37, np.random.default_rng(75)))
    np.testing.assert_array_equal(part, fresh)


@pytest.mark.parametrize("config", [
    SimConfig(window_side=3.0, replicates=6, seed=4),
    SimConfig(window_side=5.0, replicates=6, seed=0, boundary="guard",
              guard_margin=1.0),
])
def test_spatial_mc_equals_wrappers(config):
    # Tier 0 comes up empty in some replicates, which drops them from its
    # area; in guard mode so does a tier 0 with no BS in the inner square.
    sc = two_tier(powers=(1.0, 0.5), lam_u=20.0, shadowing=ShadowingSpec(0.5, 4.0))
    rho = [0.1, 1.0]
    lo, hi = 0.0, config.window_side
    if config.boundary == "guard":
        lo, hi = config.guard_margin, config.window_side - config.guard_margin
    empty = 0
    for i in range(config.replicates):
        xy = sample_network(sc, rho, config,
                            np.random.default_rng([config.seed, i])).bs_pos[0]
        empty += not np.any(np.all((xy >= lo) & (xy <= hi), axis=1))
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
        tiers, _ = associate(real, sc, rng, config)
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
    config = SimConfig(window_side=3.0, replicates=1)
    cov, assoc, area, rate = _user_pass(real, sc, config,
                                        np.random.default_rng(0), 0.1)
    assert area.shape == (2,) and np.isnan(area).all()
    assert np.isnan(assoc).all() and math.isnan(cov) and math.isnan(rate)


@pytest.mark.parametrize("config, oracle_config", [
    (SimConfig(window_side=6.0, replicates=16, seed=71),
     SimConfig(window_side=6.0, replicates=16, seed=72)),
    (SimConfig(window_side=8.0, replicates=16, seed=73, boundary="guard",
               guard_margin=1.0),
     SimConfig(window_side=8.0, replicates=16, seed=74, boundary="guard",
               guard_margin=1.0)),
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
        "no usable replicate for the tier-0 service area out of 2")


@pytest.mark.parametrize("boundary", ["toroidal", "guard"])
@pytest.mark.parametrize("shadowing", [None, ShadowingSpec(0.5, 4.0)])
def test_coverage_agrees_with_raw_fading_oracle(boundary, shadowing):
    # About 110 users per replicate, so one fading draw per link leaves
    # much of the replicate spread that the conditional coverage removes.
    sc = two_tier(powers=(1.0, 0.5), lam_u=3.0, shadowing=shadowing)
    guard = {"boundary": "guard", "guard_margin": 1.0} if boundary == "guard" else {}
    side = 8.0 if guard else 6.0
    est = coverage_mc(sc, [0.5, 1.0],
                      SimConfig(window_side=side, replicates=64, seed=81, **guard))
    mean, hw = raw_fading_coverage(
        sc, [0.5, 1.0], SimConfig(window_side=side, replicates=64, seed=82, **guard))
    assert est.dropped == 0
    assert est.agrees_with(mean, hw), (est, mean, hw)
    assert est.ci_halfwidth_99 < hw


def test_single_bs_covers_every_user():
    real = Realization(bs_pos=[np.array([[2.0, 2.0]])],
                       users=np.random.default_rng(1).uniform(0, 4, (30, 2)),
                       window_side=4.0)
    cov, _, _, _ = _user_pass(real, one_tier(), SimConfig(window_side=4.0, replicates=1),
                              np.random.default_rng(2), None)
    assert cov == 1.0


@pytest.mark.filterwarnings("error")
def test_huge_sir_target_gives_coverage_near_zero():
    # Most conditional-coverage products overflow to inf, which is coverage 0.
    sc = replace(two_tier(shadowing=ShadowingSpec(0.0, 6.0)), sir_target=1e12)
    est = coverage_mc(sc, [1.0, 1.0], SimConfig(window_side=5.0, replicates=4, seed=3))
    assert math.isfinite(est.mean) and math.isfinite(est.ci_halfwidth_99)
    assert 0.0 <= est.mean < 1e-4
    assert est.dropped == 0


@pytest.mark.parametrize("rate_target", [None, 0.1])
def test_user_pass_draws_only_shadowing_from_the_replicate_generator(rate_target):
    # Without shadowing it draws nothing; fading comes from a stream of its own.
    sc = two_tier()
    config = SimConfig(window_side=6.0, replicates=1, seed=9)
    rng = np.random.default_rng([config.seed, 0])
    real = sample_network(sc, [1.0, 1.0], config, rng)
    assert real.users.shape[0] > 512
    state = rng.bit_generator.state
    _user_pass(real, sc, config, rng, rate_target)
    assert rng.bit_generator.state == state


def test_rate_target_moves_no_other_estimate():
    # Shadowed, and over 512 users per replicate, so later blocks' shadowing
    # would shift if fading came from the replicate generator.
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


def test_tiles_cover_each_block_with_no_lone_column():
    # numpy sums a lone column pairwise rather than row by row, so a tile
    # one user wide would move that user's faded SIR
    for width in (3, 4, 51, 218, 512):
        for n in range(1, 520):
            tiles = list(_tiles(n, width))
            assert [a for a, _ in tiles] == [0] + [b for _, b in tiles[:-1]]
            assert tiles[-1][1] == n
            assert all(2 <= b - a <= width for a, b in tiles) or tiles == [(0, 1)]


@pytest.mark.parametrize("width", [3, 7, 512])
def test_tile_width_changes_no_estimate(monkeypatch, width):
    # Tiles of 3 users, of 7 with a lone user left at the end of a full
    # block (512 = 73 x 7 + 1), and one tile per 512-user draw block (the
    # pass before tiles) give the same bits: the draws follow the blocks,
    # and a user's values its own column.
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
    # holds a workspace of three tiles, one block per quantity it draws
    # (shadowing normals, fading exponentials), and a slack for the
    # per-user arrays and numpy's iterator buffers.
    sc = two_tier(shadowing=shadowing)
    side = 10.0
    rng = np.random.default_rng(81)
    real = Realization(bs_pos=[rng.uniform(0, side, (100, 2)),
                               rng.uniform(0, side, (1100, 2))],
                       users=rng.uniform(0, side, (1100, 2)), window_side=side)
    config = SimConfig(window_side=side, replicates=1)
    block = 1200 * 512 * 8
    tracemalloc.start()
    try:
        stats = _user_pass(real, sc, config, np.random.default_rng(82), rate_target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < stats[0] < 1
    blocks = (shadowing is not None) + (rate_target is not None)
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
