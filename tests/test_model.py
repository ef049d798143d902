import math
import re
from dataclasses import replace

import numpy as np
import pytest

from harvnet.analytic import (
    energy_utilization,
    g,
    load_ratio,
    mean_service_area,
    solve_availability,
)
from harvnet.coverage import hyper_f, tier_association_prob
from harvnet.markov import (
    BirthDeathSpec,
    PolicySpec,
    mean_off_time,
    mean_on_time,
    simulate_on_off,
    tier_availability,
)
from harvnet.model import (
    NO_SHADOWING,
    NetworkScenario,
    ScenarioError,
    ShadowingSpec,
    SimEstimate,
    TierParams,
    check_availability_vector,
    validate,
)
from harvnet.region import boundary, contains, grid_coverage, sweep_boundary
from harvnet.simulate import SimConfig, service_area_mc, spatial_mc


def make_scenario(**overrides):
    tiers = overrides.pop("tiers", (
        TierParams(density=1.0, tx_power=1.0, harvest_rate=2.0, battery=10),
        TierParams(density=10.0, tx_power=0.1, harvest_rate=1.0, battery=8),
    ))
    kwargs = dict(tiers=tiers, path_loss_exp=4.0, sir_target=1.0,
                  user_density=5.0)
    kwargs.update(overrides)
    return NetworkScenario(**kwargs)


def test_validate_accepts_well_formed_scenario():
    validate(make_scenario())


def test_alpha_boundary_is_rejected_by_name():
    with pytest.raises(ScenarioError, match=r"path_loss_exp must be finite and > 2 \(got 2.0\)"):
        validate(make_scenario(path_loss_exp=2.0))


def test_infinite_path_loss_exp_is_rejected_by_name():
    with pytest.raises(ScenarioError, match=r"path_loss_exp must be finite and > 2 \(got inf\)"):
        validate(make_scenario(path_loss_exp=math.inf))


SPEC = BirthDeathSpec(2.0, 1.0, 5)
# Every integer parameter: (its name in the error, its lower bound, a call
# that passes it the value v).
INTEGER_SITES = [
    ("tiers[0].battery", 1,
     lambda v: validate(make_scenario(tiers=(TierParams(1.0, 1.0, 2.0, v),)))),
    ("cutoff", 1, lambda v: solve_availability(
        make_scenario(), policy=[PolicySpec(v), PolicySpec(1)])),
    ("replicates", 1, lambda v: SimConfig(window_side=5.0, replicates=v)),
    ("seed", 0, lambda v: SimConfig(window_side=5.0, seed=v)),
    ("battery", 1, lambda v: BirthDeathSpec(2.0, 1.0, v)),
    ("cutoff", 1, lambda v: mean_off_time(SPEC, PolicySpec(v))),
    ("start_level", 1, lambda v: mean_on_time(SPEC, v)),
    ("battery", 1, lambda v: tier_availability(0.5, v)),
    ("cutoff", 1, lambda v: tier_availability(0.5, 5, v)),
    ("cycles", 2, lambda v: simulate_on_off(SPEC, PolicySpec(1), cycles=v)),
    ("seed", 0, lambda v: simulate_on_off(SPEC, PolicySpec(1), cycles=100, seed=v)),
]


@pytest.mark.parametrize("kind", ["fraction", "below-bound", "bool"])
@pytest.mark.parametrize("name, low, call", INTEGER_SITES, ids=[
    "validate-battery", "solve-cutoff", "simconfig-replicates",
    "simconfig-seed", "birth-death-battery", "policy-cutoff", "mean-on-time-start",
    "tier-availability-battery", "tier-availability-cutoff", "on-off-cycles",
    "on-off-seed"])
def test_integer_parameters_are_checked_by_name(name, low, call, kind):
    value = {"fraction": 2.5, "below-bound": low - 1, "bool": True}[kind]
    with pytest.raises(ScenarioError, match=re.escape(f"{name} must be an integer")):
        call(value)


RHO = [0.5, 0.5]
SIM = SimConfig(window_side=5.0, replicates=1)
# Every call that takes a tier index k, each on the two-tier make_scenario().
TIER_SITES = {
    "g": lambda k: g(make_scenario(), RHO, k),
    "load-ratio": lambda k: load_ratio(make_scenario(), RHO, k),
    "energy-utilization": lambda k: energy_utilization(make_scenario(), RHO, k),
    "mean-service-area": lambda k: mean_service_area(make_scenario(), RHO, k),
    "association": lambda k: tier_association_prob(make_scenario(), RHO, k),
    "boundary": lambda k: boundary(make_scenario(), k, [0.5]),
    "sweep-boundary": lambda k: sweep_boundary(make_scenario(), k, 11),
    "spatial-mc-area": lambda k: spatial_mc(make_scenario(), RHO, SIM, area_tiers=(k,)),
    "service-area-mc": lambda k: service_area_mc(make_scenario(), RHO, k, SIM),
}


@pytest.mark.parametrize("k", [-1, 2, True], ids=["negative", "K", "bool"])
@pytest.mark.parametrize("call", TIER_SITES.values(), ids=TIER_SITES.keys())
def test_tier_indices_are_checked_by_name(call, k):
    # -1 once wrapped to the last tier, K raised a bare IndexError
    with pytest.raises(ScenarioError, match=re.escape(
            f"tier must be an integer in [0, 1] (got {k!r})")):
        call(k)


def test_zero_battery_is_rejected_with_tier_index():
    bad = (TierParams(1.0, 1.0, 2.0, 10), TierParams(2.0, 1.0, 1.0, 0))
    with pytest.raises(ScenarioError, match=r"tiers\[1\].battery"):
        validate(make_scenario(tiers=bad))


BAD = (0.0, -1.0, math.nan, math.inf)
# Every scenario field: (its name in the error, the bad values it refuses).
FIELD_VIOLATIONS = {
    "path_loss_exp": BAD, "sir_target": BAD, "user_density": BAD,
    "density": BAD, "tx_power": BAD, "harvest_rate": BAD,
    "battery": (*BAD, 1.5, True),
    "shadowing.mean_db": (math.nan, math.inf, -math.inf),
    "shadowing.std_db": (-1.0, math.nan, math.inf),
}


def _tier_with(field, value):
    t = make_scenario().tiers[1]
    if field.startswith("shadowing."):
        return replace(t, shadowing=replace(t.shadowing, **{field[10:]: value}))
    return replace(t, **{field: value})


@pytest.mark.parametrize("how", ["construct", "replace"])
@pytest.mark.parametrize("field, value", [
    (field, value) for field, values in FIELD_VIOLATIONS.items() for value in values])
def test_every_field_is_checked_when_the_scenario_is_built(field, value, how):
    # These once built, and later calls returned nan, complex numbers or
    # numbers for a scenario with no meaning.
    sc = make_scenario()
    if field in ("path_loss_exp", "sir_target", "user_density"):
        name, build = field, {
            "construct": lambda: make_scenario(**{field: value}),
            "replace": lambda: replace(sc, **{field: value})}[how]
    else:
        tiers = (sc.tiers[0], _tier_with(field, value))
        name, build = f"tiers[1].{field}", {
            "construct": lambda: make_scenario(tiers=tiers),
            "replace": lambda: replace(sc, tiers=tiers)}[how]
    with pytest.raises(ScenarioError, match=re.escape(name)):
        build()


def test_a_scenario_needs_a_tier():
    with pytest.raises(ScenarioError, match="tiers must contain at least one tier"):
        make_scenario(tiers=())


# Every call that takes a recharge policy for tier 1 (battery 8) of make_scenario().
CUTOFF_SITES = {
    "solve": lambda p: solve_availability(make_scenario(), policy=[PolicySpec(1), p]),
    "boundary": lambda p: boundary(make_scenario(), 1, [0.5], constraint=p),
    "sweep-boundary": lambda p: sweep_boundary(make_scenario(), 1, 11, constraint=p),
    "contains": lambda p: contains(make_scenario(), RHO, {1: p}),
    "grid-coverage": lambda p: grid_coverage(make_scenario(), 11, {1: p}),
}


@pytest.mark.parametrize("cutoff", [0, 9, 99, -3, 1.5, True])
@pytest.mark.parametrize("call", CUTOFF_SITES.values(), ids=CUTOFF_SITES.keys())
def test_every_policy_cutoff_is_checked_against_its_battery(call, cutoff):
    # boundary and sweep_boundary once returned nan, 0 or 1 for these
    with pytest.raises(ScenarioError, match=re.escape(
            f"cutoff must be an integer in [1, 8] (got {cutoff!r})")):
        call(PolicySpec(cutoff))


# Policy arguments that once passed silently or raised a bare AttributeError,
# with the ScenarioError each raises now.
BAD_POLICIES = {
    "contains-key-outside-the-box": (
        lambda sc: contains(sc, [1.5, 0.5], {7: PolicySpec(99)}),
        "tier must be an integer in [0, 1] (got 7)"),
    "contains-cutoff-outside-the-box": (
        lambda sc: contains(sc, [1.5, 0.5], {1: PolicySpec(99)}),
        "cutoff must be an integer in [1, 8] (got 99)"),
    "grid-coverage-int": (lambda sc: grid_coverage(sc, 11, {0: 1}),
                          "tier 0 policy must be a PolicySpec (got 1)"),
    "solve-int-list": (lambda sc: solve_availability(sc, policy=[1, 1]),
                       "tier 0 policy must be a PolicySpec (got 1)"),
    "solve-short-list": (lambda sc: solve_availability(sc, policy=[PolicySpec(1)]),
                         "policy list must have 2 entries (got 1)"),
    "solve-long-list": (lambda sc: solve_availability(sc, policy=[PolicySpec(1)] * 3),
                        "policy list must have 2 entries (got 3)"),
    "boundary-int": (lambda sc: boundary(sc, 0, [0.5], constraint=3),
                     "tier 0 policy must be a PolicySpec (got 3)"),
}


@pytest.mark.parametrize("call, message", BAD_POLICIES.values(), ids=BAD_POLICIES.keys())
def test_every_bad_policy_argument_is_a_scenario_error(call, message):
    with pytest.raises(ScenarioError, match=re.escape(message)):
        call(make_scenario())


@pytest.mark.parametrize("key", [2, -1, "x", True])
@pytest.mark.parametrize("call", [contains, grid_coverage], ids=["contains", "grid-coverage"])
def test_constraint_keys_outside_the_tiers_are_errors(call, key):
    # once ignored: the point or grid was tested unconstrained
    args = (RHO,) if call is contains else (11,)
    with pytest.raises(ScenarioError, match=re.escape(
            f"tier must be an integer in [0, 1] (got {key!r})")):
        call(make_scenario(), *args, {key: PolicySpec(1)})


def test_injected_violations_are_always_caught_with_field_name():
    # One random violation per round; the error must name the broken field.
    rng = np.random.default_rng(1234)
    tier_fields = ["density", "tx_power", "harvest_rate", "battery",
                   "shadowing.std_db"]
    global_fields = ["path_loss_exp", "sir_target", "user_density"]
    for _ in range(60):
        k = int(rng.integers(1, 4))
        tiers = [TierParams(density=float(rng.uniform(0.1, 10)),
                            tx_power=float(rng.uniform(0.01, 10)),
                            harvest_rate=float(rng.uniform(0.1, 10)),
                            battery=int(rng.integers(1, 30)),
                            shadowing=ShadowingSpec(0.0, float(rng.uniform(0, 8))))
                 for _ in range(k)]
        field = str(rng.choice(tier_fields + global_fields))
        scenario_kwargs = dict(path_loss_exp=float(rng.uniform(2.5, 6)),
                               sir_target=float(rng.uniform(0.1, 10)),
                               user_density=float(rng.uniform(0.5, 50)))
        if field in global_fields:
            scenario_kwargs[field] = float(rng.choice([0.0, -1.0]))
            if field == "path_loss_exp":
                scenario_kwargs[field] = float(rng.choice([2.0, 1.0, -3.0]))
            expected = field
        else:
            i = int(rng.integers(0, k))
            t = tiers[i]
            if field == "battery":
                tiers[i] = TierParams(t.density, t.tx_power, t.harvest_rate, 0,
                                      t.shadowing)
            elif field == "shadowing.std_db":
                tiers[i] = TierParams(t.density, t.tx_power, t.harvest_rate,
                                      t.battery, ShadowingSpec(0.0, -1.0))
            else:
                broken = {field: float(rng.choice([0.0, -2.0]))}
                vals = dict(density=t.density, tx_power=t.tx_power,
                            harvest_rate=t.harvest_rate)
                vals.update(broken)
                tiers[i] = TierParams(vals["density"], vals["tx_power"],
                                      vals["harvest_rate"], t.battery,
                                      t.shadowing)
            expected = f"tiers[{i}].{field}"
        with pytest.raises(ScenarioError) as err:
            NetworkScenario(tiers=tuple(tiers), **scenario_kwargs)
        assert expected in str(err.value), (field, str(err.value))


def test_frac_moment_degenerate_is_one():
    for alpha in (2.1, 3.0, 4.0, 6.0):
        assert NO_SHADOWING.frac_moment(alpha) == 1.0


def test_frac_moment_known_values():
    # sigma = 8 dB, alpha = 4: exp(0.5 * (ln10/5 * 8/4)^2)
    c = math.log(10.0) / 5.0
    expect = math.exp(0.5 * (c * 8.0 / 4.0) ** 2)
    assert ShadowingSpec(0.0, 8.0).frac_moment(4.0) == pytest.approx(expect, rel=1e-14)
    assert expect == pytest.approx(1.5283, abs=1e-4)
    # deterministic 3 dB mean: 10^(3/20)
    assert ShadowingSpec(3.0, 0.0).frac_moment(4.0) == pytest.approx(
        10 ** (3 / 20), rel=1e-14)


def test_frac_moment_rejects_alpha_at_or_below_two():
    with pytest.raises(ScenarioError):
        ShadowingSpec(0.0, 8.0).frac_moment(2.0)


@pytest.mark.parametrize("alpha", [2.0, 1.5, -math.inf, math.nan, math.inf])
def test_every_path_loss_exp_check_refuses_alike(alpha):
    # The scenario, the shadowing moment and F(beta, alpha) share one rule.
    message = re.escape(f"path_loss_exp must be finite and > 2 (got {alpha})")
    for call in (lambda: validate(make_scenario(path_loss_exp=alpha)),
                 lambda: ShadowingSpec(0.0, 8.0).frac_moment(alpha),
                 lambda: hyper_f(1.0, alpha)):
        with pytest.raises(ScenarioError, match=message):
            call()


def test_frac_moment_matches_lognormal_sampling():
    rng = np.random.default_rng(20260814)
    z = rng.normal(0.0, 8.0, 500_000)
    mc = np.mean((10 ** (z / 10)) ** 0.5)
    assert ShadowingSpec(0.0, 8.0).frac_moment(4.0) == pytest.approx(mc, rel=5e-3)


def test_tier_weight_combines_power_and_shadowing():
    t = TierParams(1.0, 0.01, 1.0, 5, ShadowingSpec(0.0, 8.0))
    assert t.weight(4.0) == pytest.approx(
        ShadowingSpec(0.0, 8.0).frac_moment(4.0) * 0.1, rel=1e-12)


def test_scenario_array_views():
    sc = make_scenario()
    assert np.allclose(sc.densities(), [1.0, 10.0])
    assert np.allclose(sc.harvest_rates(), [2.0, 1.0])
    assert sc.batteries().tolist() == [10, 8]
    assert sc.tier_weights()[0] == pytest.approx(1.0)
    assert sc.tier_weights()[1] == pytest.approx(0.1 ** 0.5)
    assert sc.k_tiers == 2


def test_check_availability_vector():
    out = check_availability_vector([0.2, 1.0], 2)
    assert out.dtype == float and out.shape == (2,)
    with pytest.raises(ScenarioError, match="length 2"):
        check_availability_vector([0.2], 2)
    with pytest.raises(ScenarioError, match=r"\[0, 1\]"):
        check_availability_vector([0.2, 1.2], 2)


def test_sim_estimate_agreement_window():
    est = SimEstimate(mean=0.5, ci_halfwidth_99=0.01, samples=10, seed=3)
    assert est.agrees_with(0.505)
    assert not est.agrees_with(0.52)
    assert est.agrees_with(0.52, other_halfwidth=0.015)
