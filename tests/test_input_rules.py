"""Each input rule of the model has one message, whatever the entry point.

A rule is reached from the library (a constructor or a call), from a
scenario file through `cli.main`, and from a flag where one sets the
value.  Every row gives the exact message the rule prints for one entry
point; the command line prefixes it with "error: ".
"""

import json
import math
from dataclasses import replace

import pytest

from harvnet import (BirthDeathSpec, NetworkScenario, RateQuery, ScenarioError, ShadowingSpec,
                     TierParams, boundary, contains, grid_coverage, hyper_f, mean_service_area,
                     rate_ccdf, solve_availability, sweep_boundary, tier_association_prob,
                     tier_availability)
from harvnet.analytic import load_ratio
from harvnet.cli import load_scenario, main
from harvnet.coverage import load_pmf
from harvnet.simulate import SimConfig

DOC = {
    "tiers": [
        {"density": 1.0, "tx_power": 1.0, "harvest_rate": 2.0, "battery": 6},
        {"density": 10.0, "tx_power": 1.0, "harvest_rate": 1.0, "battery": 5},
    ],
    "path_loss_exp": 4.0,
    "sir_target": 1.0,
    "user_density": 5.0,
    "sim": {"window_side": 6.0, "replicates": 3, "seed": 7},
}
TIER = TierParams(1.0, 1.0, 2.0, 6)


def scenario(tiers=(TIER, TIER), alpha=4.0, beta=1.0, lam_u=5.0):
    return NetworkScenario(tuple(tiers), alpha, beta, lam_u)


def tiers_with(**fields):
    return [replace(TIER, **fields), TIER]


def edited(**top):
    """DOC with the top-level keys of `top` replaced, None deleting a key."""
    doc = json.loads(json.dumps(DOC))
    doc.update(top)
    return {k: v for k, v in doc.items() if v is not None}


def edited_tier(**fields):
    doc = edited()
    doc["tiers"][0].update(fields)
    return doc


POSITIVE = "{} must be finite and > 0 (got {})"
ALPHA = "path_loss_exp must be finite and > 2 (got {})"
NONNEGATIVE = "{} must be finite and >= 0 (got {})"
SHAPE = "availability vector must have length {} (got shape {})"
BOX = "availabilities must lie in [0, 1] (got {})"
INTEGER = "{} must be an integer >= {} (got {})"
TWO_TIERS = "availability grids require exactly 2 tiers (got 3)"
# lambda w = 1e200 (1e300)^(2/2.5) = 1e440 on both tiers, though lambda_u P_c
# is ordinary: the message names the product, not the demand.
HUGE = TierParams(1e200, 1e300, 1.0, 5)
ON_WEIGHT = ("tiers[0] density times association weight leaves the float range of the load "
             "(density=1e+200, tx_power=1e+300)")

# (rule, library call, message)
LIBRARY = [
    ("positive", lambda: scenario(beta=math.inf), POSITIVE.format("sir_target", "inf")),
    ("positive", lambda: scenario(lam_u=0.0), POSITIVE.format("user_density", "0.0")),
    ("positive", lambda: scenario(tiers_with(density=-1.0)),
     POSITIVE.format("tiers[0].density", "-1.0")),
    ("positive", lambda: scenario(tiers_with(tx_power=math.nan)),
     POSITIVE.format("tiers[0].tx_power", "nan")),
    ("positive", lambda: scenario(tiers_with(harvest_rate=math.inf)),
     POSITIVE.format("tiers[0].harvest_rate", "inf")),
    ("positive", lambda: BirthDeathSpec(0.0, 1.0, 3), POSITIVE.format("harvest_rate", "0.0")),
    ("positive", lambda: BirthDeathSpec(1.0, math.inf, 3),
     POSITIVE.format("utilization_rate", "inf")),
    ("positive", lambda: RateQuery(0.1, series_tolerance=0.0),
     POSITIVE.format("series_tolerance", "0.0")),
    ("positive", lambda: RateQuery(0.1, series_tolerance=math.inf),
     POSITIVE.format("series_tolerance", "inf")),
    ("positive", lambda: solve_availability(scenario(), tolerance=-1.0),
     POSITIVE.format("tolerance", "-1.0")),
    ("positive", lambda: SimConfig(window_side=math.inf), POSITIVE.format("window_side", "inf")),
    ("positive", lambda: SimConfig(window_side=0.0), POSITIVE.format("window_side", "0.0")),
    ("alpha", lambda: scenario(alpha=math.inf), ALPHA.format("inf")),
    ("alpha", lambda: scenario(alpha=2.0), ALPHA.format("2.0")),
    ("alpha", lambda: hyper_f(1.0, math.inf), ALPHA.format("inf")),
    ("alpha", lambda: ShadowingSpec(0.0, 8.0).frac_moment(math.inf), ALPHA.format("inf")),
    ("nonnegative", lambda: hyper_f(-1.0, 4.0), NONNEGATIVE.format("sir threshold", "-1.0")),
    ("nonnegative", lambda: hyper_f(math.inf, 3.5), NONNEGATIVE.format("sir threshold", "inf")),
    ("nonnegative", lambda: load_pmf(math.nan, 0),
     NONNEGATIVE.format("mean load parameter", "nan")),
    ("nonnegative", lambda: tier_availability(math.inf, 3),
     NONNEGATIVE.format("load ratio", "inf")),
    ("nonnegative", lambda: scenario(tiers_with(shadowing=ShadowingSpec(0.0, -1.0))),
     NONNEGATIVE.format("tiers[0].shadowing.std_db", "-1.0")),
    ("vector", lambda: tier_association_prob(scenario(), [0.5]), SHAPE.format(2, "(1,)")),
    ("vector", lambda: mean_service_area(scenario(), [[0.5, 0.5]], 0),
     SHAPE.format(2, "(1, 2)")),
    ("vector", lambda: rate_ccdf(scenario(), [[0.5]] * 3, RateQuery(0.1)),
     SHAPE.format(2, "(3, 1)")),
    ("vector", lambda: rate_ccdf(scenario(), [0.5] * 3, RateQuery(0.1)),
     SHAPE.format(2, "(3,)")),
    ("vector", lambda: contains(scenario(), [0.5]), SHAPE.format(2, "(1,)")),
    ("vector", lambda: contains(scenario(), [[0.5, 0.5]]), SHAPE.format(2, "(1, 2)")),
    ("vector", lambda: boundary(scenario(), 0, [0.5, 0.5]), SHAPE.format(1, "(2,)")),
    ("box", lambda: tier_association_prob(scenario(), [2.0, -1.0]), BOX.format("[ 2. -1.]")),
    ("box", lambda: rate_ccdf(scenario(), [[0.5, 0.5], [2.0, -1.0]], RateQuery(0.1)),
     BOX.format("[ 2. -1.]")),
    ("integer", lambda: SimConfig(window_side=1.0, replicates=0),
     INTEGER.format("replicates", 1, 0)),
    ("grid", lambda: sweep_boundary(scenario((TIER,) * 3), 0), TWO_TIERS),
    ("grid", lambda: grid_coverage(scenario((TIER,) * 3)), TWO_TIERS),
    ("grid", lambda: sweep_boundary(scenario(), 0, grid_resolution=1),
     INTEGER.format("grid_resolution", 2, 1)),
    ("grid", lambda: grid_coverage(scenario(), 1.5), "grid_resolution must be an integer "
                                                     ">= 2 (got 1.5)"),
    ("on-weight", lambda: solve_availability(scenario((HUGE, HUGE), 2.5, lam_u=1.0)), ON_WEIGHT),
    ("on-weight", lambda: sweep_boundary(scenario((HUGE, HUGE), 2.5, lam_u=1.0), 0), ON_WEIGHT),
    ("on-weight", lambda: load_ratio(scenario((HUGE, TIER), 2.5, lam_u=1.0), [1.0, 0.5], 1),
     ON_WEIGHT),
]

THREE_TIERS = edited(tiers=DOC["tiers"] + DOC["tiers"][1:])

# (rule, scenario document, arguments after the file, message)
COMMAND_LINE = [
    ("positive", edited(sir_target=0), ["coverage"], POSITIVE.format("sir_target", "0.0")),
    ("positive", edited(user_density=-2), ["coverage"], POSITIVE.format("user_density", "-2.0")),
    ("positive", edited_tier(harvest_rate=0), ["availability"],
     POSITIVE.format("tiers[0].harvest_rate", "0.0")),
    ("positive", edited(user_density=None, over_provisioning=0), ["availability"],
     POSITIVE.format("over_provisioning", "0.0")),
    ("positive", edited(user_density=None, over_provisioning=math.inf), ["availability"],
     POSITIVE.format("over_provisioning", "inf")),
    ("positive", edited(sim={"window_side": -1}), ["simulate"],
     POSITIVE.format("window_side", "-1.0")),
    ("positive", DOC, ["availability", "--tol", "0"], POSITIVE.format("tolerance", "0.0")),
    ("positive", DOC, ["availability", "--tol", "inf"], POSITIVE.format("tolerance", "inf")),
    ("positive", DOC, ["simulate", "--window", "inf"], POSITIVE.format("window_side", "inf")),
    ("alpha", edited(path_loss_exp=math.inf), ["coverage"], ALPHA.format("inf")),
    ("alpha", edited(path_loss_exp=2), ["coverage"], ALPHA.format("2.0")),
    ("nonnegative", edited_tier(shadowing={"std_db": -1}), ["coverage"],
     NONNEGATIVE.format("tiers[0].shadowing.std_db", "-1.0")),
    ("vector", DOC, ["rate", "--rho", "0.5"], SHAPE.format(2, "(1,)")),
    ("vector", DOC, ["simulate", "--rho", "0.5,0.5,0.5"], SHAPE.format(2, "(3,)")),
    ("box", DOC, ["rate", "--rho", "2,-1"], BOX.format("[ 2. -1.]")),
    ("integer", edited(sweep={"variable": "rate_target", "start": 0, "stop": 1, "steps": 0}),
     ["rate"], INTEGER.format("sweep.steps", 1, 0)),
    ("integer", edited(sim={"window_side": 6.0, "replicates": 0}), ["simulate"],
     INTEGER.format("replicates", 1, 0)),
    ("integer", DOC, ["simulate", "--replicates", "0"], INTEGER.format("replicates", 1, 0)),
    ("grid", THREE_TIERS, ["region"], TWO_TIERS),
    ("grid", THREE_TIERS, ["rate", "--surface"], TWO_TIERS),
    ("grid", DOC, ["region", "--grid", "1"], INTEGER.format("grid_resolution", 2, 1)),
    ("grid", DOC, ["rate", "--surface", "--grid", "1"], INTEGER.format("grid_resolution", 2, 1)),
    ("on-weight", edited_tier(density=1e200, tx_power=1e300) | {"path_loss_exp": 2.5},
     ["availability"], ON_WEIGHT),
]


@pytest.mark.parametrize("rule, call, message", LIBRARY,
                         ids=[f"{rule}-{i}" for i, (rule, _, _) in enumerate(LIBRARY)])
def test_library_entry_points_raise_the_rule_message(rule, call, message):
    with pytest.raises(ScenarioError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("rule, doc, argv, message", COMMAND_LINE,
                         ids=[f"{rule}-{i}" for i, (rule, *_) in enumerate(COMMAND_LINE)])
def test_command_line_entry_points_print_the_rule_message(tmp_path, capsys, rule, doc, argv,
                                                          message):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main([argv[0], str(path), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


EITHER_OR = "scenario must set exactly one of {} and {}"

# (scenario document, message): a file sets one key of each either/or pair
SCENARIO_PAIRS = [
    (edited(sir_target=None), EITHER_OR.format("sir_target", "sir_target_db")),
    (edited(user_density=None), EITHER_OR.format("user_density", "over_provisioning")),
]


@pytest.mark.parametrize("doc, message", SCENARIO_PAIRS, ids=["sir-target", "user-density"])
def test_a_scenario_with_neither_key_of_a_pair_gets_the_pair_message(tmp_path, capsys, doc,
                                                                      message):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError) as info:
        load_scenario(str(path))
    assert str(info.value) == message
    assert main(["coverage", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
