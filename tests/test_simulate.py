import math
import re

import numpy as np
import pytest

from harvnet.model import NetworkScenario, ScenarioError, ShadowingSpec, TierParams
from harvnet.simulate import (
    Realization,
    SimConfig,
    _bs_field,
    _chunk_gains,
    _strongest,
    _thread_count,
    associate,
    association_mc,
    coverage_mc,
    rate_mc,
    sample_network,
    service_area_mc,
    spatial_mc,
    suggest_window_side,
)
from oracles import hypot_link_gains

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
    for w in (ties, spiky, rng.random((1, 512)), np.zeros((7, 512)),
              rng.random((1237, 3))):
        assert np.array_equal(_strongest(w), np.argmax(w, axis=0))


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


@pytest.mark.parametrize("boundary", ["toroidal", "guard"])
@pytest.mark.parametrize("shadowing", [None, ShadowingSpec(1.5, 6.0)])
def test_gain_kernel_matches_hypot_oracle(boundary, shadowing):
    sc = two_tier(powers=(4.0, 0.25), shadowing=shadowing)
    side = 5.0
    config = SimConfig(window_side=side, replicates=1, boundary=boundary,
                       guard_margin=1.0)
    rng = np.random.default_rng(61)
    real = Realization(bs_pos=[rng.uniform(0, side, (9, 2)),
                               rng.uniform(0, side, (23, 2))],
                       users=rng.uniform(0, side, (37, 2)), window_side=side)
    real.users[5] = real.bs_pos[1][3]        # a link at the distance floor
    bs = _bs_field(real, sc, config)
    got = _chunk_gains(bs, real.users, np.random.default_rng(62))
    tier_of = np.repeat([0, 1], [9, 23])
    shadow_db = None
    if shadowing is not None:
        z = np.random.default_rng(62).standard_normal(got.shape)
        shadow_db = shadowing.mean_db + shadowing.std_db * z
    want = hypot_link_gains(np.vstack(real.bs_pos), tier_of, real.users,
                            [4.0, 0.25], 4.0,
                            side if boundary == "toroidal" else None, shadow_db)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("config", [
    SimConfig(window_side=3.0, replicates=6, seed=4),
    SimConfig(window_side=5.0, replicates=6, seed=0, boundary="guard",
              guard_margin=1.0),
])
def test_spatial_mc_equals_wrappers(config, caplog):
    # Tier 0 comes up empty in some replicates, so its area is resampled;
    # in guard mode it also misses the inner square, which drops replicates.
    sc = two_tier(powers=(1.0, 0.5), lam_u=20.0, shadowing=ShadowingSpec(0.5, 4.0))
    rho = [0.1, 1.0]
    with caplog.at_level("INFO", logger="harvnet.simulate"):
        est = spatial_mc(sc, rho, config, rate_target=0.1, area_tiers=(0, 1))
    assert "resamples" in caplog.text
    assert est.area[0].dropped == (2 if config.boundary == "guard" else 0)
    assert est.coverage == coverage_mc(sc, rho, config)
    assert list(est.association) == association_mc(sc, rho, config)
    assert est.rate == rate_mc(sc, rho, 0.1, config)
    assert est.area == {k: service_area_mc(sc, rho, k, config) for k in (0, 1)}
    areas_only = spatial_mc(sc, rho, config, area_tiers=(1, 0), users=False)
    assert areas_only.coverage is None and areas_only.association is None
    assert areas_only.area == est.area
    assert spatial_mc(sc, rho, config).rate is None


def test_service_area_follows_replicate_stream():
    # Replicate i resamples from default_rng([seed, i]) until tier 0 has a
    # BS, then draws 4096 probes and their shadowing from the same stream.
    sc = two_tier(powers=(1.0, 0.5), lam_u=20.0, shadowing=ShadowingSpec(0.5, 4.0))
    rho, side = [0.1, 1.0], 3.0
    config = SimConfig(window_side=side, replicates=6, seed=4)
    vals, draws = [], 0
    for i in range(config.replicates):
        rng = np.random.default_rng([config.seed, i])
        while True:
            draws += 1
            real = sample_network(sc, rho, config, rng)
            if real.tier_counts[0] > 0:
                break
        probes = Realization(real.bs_pos, rng.uniform(0, side, (4096, 2)), side)
        tiers, _ = associate(probes, sc, rng, config)
        vals.append(side * side * np.mean(tiers == 0) / int(real.tier_counts[0]))
    assert draws > config.replicates
    assert service_area_mc(sc, rho, 0, config).mean == np.mean(vals)


def test_spatial_mc_ignores_thread_count(monkeypatch):
    sc = two_tier(shadowing=ShadowingSpec(0.0, 3.0))
    config = SimConfig(window_side=5.0, replicates=6, seed=52)
    runs = []
    for threads in ("1", "4"):
        monkeypatch.setenv("HETNET_THREADS", threads)
        runs.append(spatial_mc(sc, [0.8, 0.5], config, rate_target=0.2,
                               area_tiers=(0, 1)))
    assert runs[0] == runs[1]


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
                     lambda: rate_mc(sc, [1.0], 0.1, config)):
        with pytest.raises(ScenarioError, match="no usable replicate"):
            estimate()
