import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harvnet
from harvnet.analytic import solve_availability
from harvnet.cli import load_scenario, main
from harvnet.coverage import RateQuery, coverage_prob, rate_ccdf
from harvnet.model import ScenarioError
from oracles import mp_hyper_f

PC = 1 / (1 + math.pi / 4)

BASE_DOC = {
    "tiers": [
        {"density": 1.0, "tx_power": 1.0, "harvest_rate": 2.0, "battery": 6},
        {"density": 10.0, "tx_power": 1.0, "harvest_rate": 1.0, "battery": 5},
    ],
    "path_loss_exp": 4.0,
    "sir_target": 1.0,
    "over_provisioning": 1.1,
    "sim": {"window_side": 6.0, "replicates": 6, "seed": 7},
}


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scn") / "base.json"
    path.write_text(json.dumps(BASE_DOC))
    return str(path)


@pytest.fixture(scope="module")
def infeasible_file(tmp_path_factory):
    doc = dict(BASE_DOC)
    doc.pop("over_provisioning")
    doc["user_density"] = 30.0
    path = tmp_path_factory.mktemp("scn") / "infeasible.json"
    path.write_text(json.dumps(doc))
    return str(path)


def rows(capsys):
    return list(csv.reader(io.StringIO(capsys.readouterr().out)))


def test_load_scenario_over_provisioning(scenario_file):
    scenario, doc = load_scenario(scenario_file)
    harvested = 1.0 * 2.0 + 10.0 * 1.0
    assert scenario.user_density == pytest.approx(harvested / (1.1 * PC))
    assert doc["sim"]["seed"] == 7


def test_load_scenario_db_and_errors(tmp_path):
    doc = dict(BASE_DOC)
    doc.pop("sir_target")
    doc["sir_target_db"] = 3.0
    p = tmp_path / "db.json"
    p.write_text(json.dumps(doc))
    scenario, _ = load_scenario(str(p))
    assert scenario.sir_target == pytest.approx(10 ** 0.3)

    missing = {"tiers": [{"density": 1.0, "tx_power": 1.0, "battery": 4}],
               "sir_target": 1.0, "user_density": 5.0}
    p2 = tmp_path / "missing.json"
    p2.write_text(json.dumps(missing))
    with pytest.raises(ScenarioError, match="harvest_rate"):
        load_scenario(str(p2))

    p3 = tmp_path / "no_target.json"
    p3.write_text(json.dumps({"tiers": BASE_DOC["tiers"], "user_density": 5.0}))
    with pytest.raises(ScenarioError, match="sir_target"):
        load_scenario(str(p3))

    p4 = tmp_path / "no_users.json"
    p4.write_text(json.dumps({"tiers": BASE_DOC["tiers"], "sir_target": 1.0}))
    with pytest.raises(ScenarioError, match="user_density"):
        load_scenario(str(p4))


def test_load_scenario_shadowing_block(tmp_path):
    doc = json.loads(json.dumps(BASE_DOC))
    doc["tiers"][0]["shadowing"] = {"mean_db": -1.0, "std_db": 6.0}
    p = tmp_path / "sh.json"
    p.write_text(json.dumps(doc))
    scenario, _ = load_scenario(str(p))
    assert scenario.tiers[0].shadowing.std_db == 6.0
    assert scenario.tiers[1].shadowing.std_db == 0.0


def test_availability_output_matches_library(scenario_file, capsys):
    assert main(["availability", scenario_file]) == 0
    table = rows(capsys)
    assert table[0] == ["tier", "policy", "rho", "gamma", "feasible",
                        "iterations", "residual"]
    scenario, _ = load_scenario(scenario_file)
    want = solve_availability(scenario).rho
    got = [float(r[2]) for r in table[1:]]
    assert got == pytest.approx(list(want), abs=1e-9)
    assert table[1][1] == "S(1)"
    assert float(table[1][3]) == pytest.approx(1.1, abs=1e-12)


def test_availability_policy2_lowers_tier(scenario_file, capsys):
    assert main(["availability", scenario_file]) == 0
    free = [float(r[2]) for r in rows(capsys)[1:]]
    assert main(["availability", scenario_file, "--policy2", "k=2"]) == 0
    table = rows(capsys)
    pinned = [float(r[2]) for r in table[1:]]
    assert table[2][1] == "S(5)"
    assert pinned[1] < free[1] - 1e-3
    assert main(["availability", scenario_file, "--policy2", "k=2:2"]) == 0
    cut2 = [float(r[2]) for r in rows(capsys)[1:]]
    assert pinned[1] < cut2[1] < free[1]


def test_strict_flag_flags_infeasible(scenario_file, infeasible_file, capsys):
    assert main(["availability", infeasible_file, "--strict"]) == 2
    table = rows(capsys)
    assert table[1][4] == "False"
    assert float(table[1][2]) == 0.0
    assert main(["availability", infeasible_file]) == 0
    assert main(["availability", scenario_file, "--strict"]) == 0


def test_region_output(scenario_file, capsys):
    assert main(["region", scenario_file, "--grid", "11"]) == 0
    free = rows(capsys)
    assert free[0] == ["grid", "rho1_star_given_rho2", "rho2_star_given_rho1"]
    assert len(free) == 12
    vals = np.array([[float(x) for x in r] for r in free[1:]])
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert main(["region", scenario_file, "--grid", "11",
                 "--constrain", "k=1", "--constrain", "k=2"]) == 0
    pinned = np.array([[float(x) for x in r] for r in rows(capsys)[1:]])
    assert np.all(pinned[:, 1] <= vals[:, 1] + 1e-9)
    assert np.all(pinned[:, 2] <= vals[:, 2] + 1e-9)


def test_coverage_command(scenario_file, capsys):
    assert main(["coverage", scenario_file]) == 0
    table = rows(capsys)
    assert table[0] == ["sir_target", "path_loss_exp", "coverage"]
    assert float(table[1][2]) == pytest.approx(PC, abs=1e-12)
    assert main(["coverage", scenario_file, "--sir-target-db", "0"]) == 0
    assert float(rows(capsys)[1][2]) == pytest.approx(PC, abs=1e-12)
    assert main(["coverage", scenario_file, "--sir-target-db", "5"]) == 0
    assert float(rows(capsys)[1][2]) < PC


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def test_coverage_at_a_huge_sir_target(capsys):
    # F(1e12, 4) = 1e6 arctan(1e6), so P_c = 6.36619772368e-07
    assert main(["coverage", str(SCENARIOS / "two-tier-baseline.json"),
                 "--sir-target-db", "120"]) == 0
    assert rows(capsys)[1][2] == "6.36619772368e-07"


def test_validate_runs_ctmc_checks_on_gamma_rich(capsys):
    # the ON periods of both tiers span millions to billions of transitions
    assert main(["validate", str(SCENARIOS / "gamma-rich.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    for name in ("availability-ctmc-tier1", "availability-ctmc-tier2"):
        assert any(line.startswith(f"PASS {name}:") for line in lines), name


@pytest.mark.parametrize("db", ["nan", "inf", "-inf", "3100"])
def test_coverage_rejects_bad_sir_target_db(scenario_file, capsys, db):
    assert main(["coverage", scenario_file, f"--sir-target-db={db}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("field, value", [("sir_target_db", 4000.0),
                                          ("sir_target_db", -math.inf),
                                          ("sir_target", math.nan),
                                          ("sir_target", math.inf),
                                          ("sir_target", -1.0)])
def test_scenario_rejects_bad_sir_target(tmp_path, capsys, field, value):
    doc = dict(BASE_DOC)
    doc.pop("sir_target")
    doc[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match="sir_target|overflows"):
        load_scenario(str(path))
    assert main(["coverage", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("field, value", [
    ("density", math.nan), ("density", math.inf),
    ("tx_power", math.nan), ("tx_power", math.inf),
    ("harvest_rate", math.nan), ("harvest_rate", math.inf),
    ("user_density", math.nan), ("user_density", math.inf),
    ("shadowing.mean_db", math.nan), ("shadowing.mean_db", 1e6),
    ("shadowing.std_db", math.nan), ("shadowing.std_db", math.inf),
    ("shadowing.std_db", 1e6),
])
def test_non_finite_scenario_fields_are_rejected(tmp_path, capsys, field, value):
    doc = json.loads(json.dumps(BASE_DOC))
    if field == "user_density":
        doc.pop("over_provisioning")
        doc[field] = value
    elif field.startswith("shadowing."):
        doc["tiers"][1]["shadowing"] = {field.split(".")[1]: value}
    else:
        doc["tiers"][1][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["availability", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert field in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("sim, code", [
    ({"guard_margin": 2}, 1),
    ({"boundary": "toroidal", "guard_margin": 0.0}, 0),
])
def test_guard_margin_needs_guard_boundary(tmp_path, capsys, sim, code):
    doc = json.loads(json.dumps(BASE_DOC))
    doc["sim"].update(sim)
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--replicates", "2"]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: guard_margin needs boundary 'guard'")
    else:
        assert err == ""


def test_sir_target_overflow_exits_without_traceback(scenario_file):
    proc = subprocess.run(
        [sys.executable, "-m", "harvnet.cli", "coverage", scenario_file,
         "--sir-target-db", "3100"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_rate_sweep_and_single_target(scenario_file, tmp_path, capsys):
    assert main(["rate", scenario_file, "--rate-target", "0.0"]) == 0
    table = rows(capsys)
    assert table[0] == ["rate_target", "rate_ccdf"]
    assert float(table[1][1]) == 1.0

    doc = dict(BASE_DOC)
    doc["sweep"] = {"variable": "rate_target", "start": 0.0, "stop": 1.0,
                    "steps": 5}
    p = tmp_path / "sweep.json"
    p.write_text(json.dumps(doc))
    assert main(["rate", str(p)]) == 0
    table = rows(capsys)
    assert len(table) == 6
    vals = [float(r[1]) for r in table[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    doc["sweep"]["steps"] = 5.7
    p.write_text(json.dumps(doc))
    assert main(["rate", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: sweep.steps must be an integer")


def _sweep(**fields):
    """A rate_target sweep; a field given as None is left out."""
    sweep = {"variable": "rate_target", "start": 0.0, "stop": 1.0, "steps": 5,
             **fields}
    return {k: v for k, v in sweep.items() if v is not None}


def _malformed(mutate):
    doc = json.loads(json.dumps(BASE_DOC))
    return mutate(doc) or doc


@pytest.mark.parametrize("command, mutate, message", [
    ("rate", lambda d: d.update(sweep=_sweep(start=None)),
     "sweep: missing field 'start'"),
    ("rate", lambda d: d.update(sweep=_sweep(stop=None)),
     "sweep: missing field 'stop'"),
    ("rate", lambda d: d.update(sweep="rate_target"), "sweep must be a JSON object"),
    ("coverage", lambda d: [d], "scenario must be a JSON object"),
    ("coverage", lambda d: d["tiers"].__setitem__(0, 1.0),
     "tiers[0] must be a JSON object"),
    ("coverage", lambda d: d["tiers"][1].update(shadowing=6.0),
     "tiers[1].shadowing must be a JSON object"),
    ("simulate", lambda d: d.update(sim=[6.0, 6, 7]), "sim must be a JSON object"),
    ("coverage", lambda d: d["tiers"][0].update(density=[1.0]),
     "tiers[0].density must be a number"),
    ("coverage", lambda d: d["tiers"][1].update(tx_power=None),
     "tiers[1].tx_power must be a number"),
    ("coverage", lambda d: d["tiers"][0].update(harvest_rate=True),
     "tiers[0].harvest_rate must be a number"),
    ("coverage", lambda d: d["tiers"][1].update(shadowing={"std_db": "6"}),
     "tiers[1].shadowing.std_db must be a number"),
    ("coverage", lambda d: d.update(tiers=3), "tiers must be a JSON list"),
    ("coverage", lambda d: d.update(path_loss_exp="4"), "path_loss_exp must be a number"),
    ("coverage", lambda d: d.update(sir_target=[1.0]), "sir_target must be a number"),
    ("coverage", lambda d: d.update(over_provisioning="1.1"),
     "over_provisioning must be a number"),
    ("simulate", lambda d: d["sim"].update(window_side=[12]),
     "sim.window_side must be a number"),
    ("simulate", lambda d: d["sim"].update(boundary="guard", guard_margin="1"),
     "sim.guard_margin must be a number"),
    ("rate", lambda d: d.update(sweep=_sweep(stop=None) | {"stop": "1"}),
     "sweep.stop must be a number"),
], ids=["sweep-no-start", "sweep-no-stop", "sweep-not-object", "doc-not-object",
        "tier-not-object", "shadowing-not-object", "sim-not-object",
        "density-list", "tx-power-null", "harvest-rate-bool", "std-db-string",
        "tiers-not-list", "alpha-string", "sir-target-list", "gamma-string",
        "window-list", "guard-margin-string", "sweep-stop-string"])
def test_malformed_scenarios_are_errors(tmp_path, capsys, command, mutate, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_malformed(mutate)))
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + message)


@pytest.mark.parametrize("steps", [0, -3])
def test_rate_sweep_needs_a_step(tmp_path, capsys, steps):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(
        _malformed(lambda d: d.update(sweep=_sweep(steps=steps)))))
    assert main(["rate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: sweep.steps must be >= 1")


def test_rate_surface_runs_without_feasibility(infeasible_file, capsys):
    assert main(["rate", infeasible_file, "--surface", "--grid", "4"]) == 0
    table = rows(capsys)
    assert table[0] == ["rho1", "rho2", "rate_ccdf"]
    assert len(table) == 17
    assert all(0.0 <= float(r[2]) <= 1.0 for r in table[1:])
    for grid in ("0", "1"):
        assert main(["rate", infeasible_file, "--surface", "--grid", grid]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: grid_resolution must be >= 2")


def test_rate_requires_rho_when_infeasible(infeasible_file, capsys):
    assert main(["rate", infeasible_file, "--rate-target", "0.1"]) == 1
    assert "infeasible" in capsys.readouterr().err
    assert main(["rate", infeasible_file, "--rate-target", "0.1",
                 "--rho", "0.5,0.5"]) == 0


@pytest.mark.parametrize("rho, message", [
    ("0,0", "no BS available"),
    ("2,-1", "availabilities must lie in [0, 1]"),
])
@pytest.mark.parametrize("target", [[], ["--rate-target", "0"]], ids=["sweep", "zero"])
def test_rate_rejects_a_bad_rho_at_a_zero_target(scenario_file, capsys, rho, message,
                                                  target):
    # the default sweep starts at T = 0, so its first row is already an error
    assert main(["rate", scenario_file, "--rho", rho, *target]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


# Runs that once wrote the CSV header before they failed, with their stderr.
HEADER_BEFORE_ERROR = [
    (["simulate", "--tier", "3", "--estimator", "area"],
     "usage error: tier index 3 out of range 1..2\n"),
    (["simulate", "--rho", "0,0"],
     "error: no usable replicate for coverage out of 16; enlarge the window\n"),
    (["rate", "--rho", "1,nan"],
     "error: availabilities must lie in [0, 1] (got [ 1. nan])\n"),
    (["rate", "--rho", "0,0"], "error: no BS available: weighted ON density is zero\n"),
    (["rate", "--rho", "2,-1", "--rate-target", "0"],
     "error: availabilities must lie in [0, 1] (got [ 2. -1.])\n"),
    (["rate", "--rate-target", "-1"], "error: rate_target must be >= 0 (got -1.0)\n"),
]


@pytest.mark.parametrize("argv, err", HEADER_BEFORE_ERROR,
                         ids=[" ".join(argv) for argv, _ in HEADER_BEFORE_ERROR])
def test_a_failing_command_writes_no_csv(capsys, argv, err):
    path = str(SCENARIOS / "two-tier-baseline.json")
    assert main([argv[0], path, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


@pytest.mark.parametrize("command", ["availability", "coverage", "rate", "simulate"])
def test_infinite_path_loss_exp_is_an_error(tmp_path, capsys, command):
    doc = json.loads(json.dumps(BASE_DOC))
    doc["path_loss_exp"] = math.inf
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: path_loss_exp must be finite (got inf)\n"


@pytest.mark.parametrize("window, err", [
    ("inf", "error: window_side must be finite (got inf)\n"),
    ("1e300", "error: window_side 1e+300 gives a non-finite expected point count\n"),
], ids=["inf", "1e300"])
def test_simulate_rejects_an_unusable_window(scenario_file, capsys, window, err):
    assert main(["simulate", scenario_file, "--window", window]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


@pytest.mark.parametrize("how", ["flag", "scenario"])
def test_validate_needs_two_replicates(scenario_file, tmp_path, capsys, how):
    if how == "flag":
        argv = [scenario_file, "--replicates", "1"]
    else:
        doc = json.loads(json.dumps(BASE_DOC))
        doc["sim"]["replicates"] = 1
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        argv = [str(path)]
    assert main(["validate", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: replicates must be an integer >= 2 (got 1)\n"


def test_rate_surface_rejects_rho(scenario_file, capsys):
    assert main(["rate", scenario_file, "--surface", "--rho", "0.5,0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: --rho cannot be combined with --surface")


def test_rate_surface_equals_scalar_calls(scenario_file, capsys):
    scenario, _ = load_scenario(scenario_file)
    assert main(["rate", scenario_file, "--surface", "--grid", "3",
                 "--rate-target", "0.3"]) == 0
    table = rows(capsys)
    grid = np.linspace(0.1, 1.0, 3)
    query = RateQuery(rate_target=0.3)
    assert table[1:] == [[format(r1, ".12g"), format(r2, ".12g"),
                          format(rate_ccdf(scenario, [r1, r2], query), ".12g")]
                         for r1 in grid.tolist() for r2 in grid.tolist()]


@pytest.mark.parametrize("argv", [
    ["simulate", "--estimator", "coverage"],
    ["simulate", "--estimator", "area"],
    ["simulate", "--estimator", "rate", "--rate-target", "0.2"],
    ["validate"],
])
def test_output_does_not_depend_on_thread_count(scenario_file, capsys, monkeypatch, argv):
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("HETNET_THREADS", threads)
        code = main([argv[0], scenario_file, *argv[1:], "--replicates", "4"])
        outputs.append((code, capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


def test_few_replicates_widen_the_validate_tolerance(capsys):
    # Two replicates have one degree of freedom: t = 63.66, not z = 2.576.
    path = str(SCENARIOS / "gamma-rich.json")
    assert main(["validate", path, "--replicates", "2"]) == 0
    assert capsys.readouterr().out.endswith("all checks passed\n")


def test_simulate_command(scenario_file, capsys):
    assert main(["simulate", scenario_file, "--replicates", "4"]) == 0
    table = rows(capsys)
    assert table[0][0] == "estimator"
    assert table[1][0] == "coverage"
    assert 0.0 < float(table[1][3]) < 1.0
    assert main(["simulate", scenario_file, "--estimator", "association",
                 "--replicates", "4"]) == 0
    table = rows(capsys)
    assert [r[0] for r in table[1:]] == ["association", "association"]
    assert main(["simulate", scenario_file, "--estimator", "area",
                 "--tier", "2", "--replicates", "4"]) == 0
    table = rows(capsys)
    assert table[1][1] == "2"
    assert main(["simulate", scenario_file, "--estimator", "area",
                 "--tier", "9", "--replicates", "4"]) == 1
    capsys.readouterr()
    assert main(["simulate", scenario_file, "--window", "0.05",
                 "--replicates", "3"]) == 1
    assert "no usable replicate" in capsys.readouterr().err


def test_rate_series_truncation_is_an_error(tmp_path, capsys, monkeypatch):
    # The default query runs until the series converges, so the CLI's
    # handler is reached by capping the series at 2,000 terms.
    doc = json.loads((SCENARIOS / "rate-surface.json").read_text())
    doc["user_density"] = 1000.0
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(harvnet.coverage, "RateQuery",
                        functools.partial(harvnet.coverage.RateQuery, max_terms=2000))
    assert main(["rate", str(path), "--rho", "1,1", "--rate-target", "0.01"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: rate series not converged after 2000 terms")
    assert "Traceback" not in err


def test_rate_series_is_sized_from_the_query(tmp_path, capsys):
    # About log2(1/tol)/T terms: more than the 2,000 the query once capped at.
    doc = json.loads((SCENARIOS / "rate-surface.json").read_text())
    doc["user_density"] = 1000.0
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(doc))
    assert main(["rate", str(path), "--rho", "1,1", "--rate-target", "0.01"]) == 0
    assert rows(capsys) == [["rate_target", "rate_ccdf"], ["0.01", "0.217561912161"]]


@pytest.mark.parametrize("command, flag, value, field", [
    ("simulate", "--replicates", "0", "replicates"),
    ("simulate", "--window", "0", "window_side"),
    ("simulate", "--seed", "-1", "seed"),
    ("validate", "--replicates", "0", "replicates"),
    ("validate", "--seed", "-1", "seed"),
])
def test_explicit_sim_flags_are_checked(scenario_file, capsys, command, flag,
                                        value, field):
    # zeros reach SimConfig instead of falling back to the scenario's values
    assert main([command, scenario_file, flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field} must be")


@pytest.mark.parametrize("path, value, field", [
    (("tiers", 0, "battery"), 10.7, "tiers[0].battery"),
    (("tiers", 1, "battery"), "5", "tiers[1].battery"),
    (("sim", "replicates"), 2.9, "sim.replicates"),
    (("sim", "seed"), 7.5, "sim.seed"),
    (("tiers", 0, "battery"), True, "tiers[0].battery"),
    (("sim", "replicates"), False, "sim.replicates"),
])
def test_non_integral_json_values_are_rejected(tmp_path, capsys, path, value, field):
    doc = json.loads(json.dumps(BASE_DOC))
    *parents, key = path
    node = doc
    for p in parents:
        node = node[p]
    node[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["simulate", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field} must be an integer")


def test_integral_json_floats_load_as_integers(tmp_path):
    doc = json.loads(json.dumps(BASE_DOC))
    doc["tiers"][0]["battery"] = 6.0
    path = tmp_path / "float.json"
    path.write_text(json.dumps(doc))
    scenario, _ = load_scenario(str(path))
    assert scenario.tiers[0].battery == 6 and isinstance(scenario.tiers[0].battery, int)


def test_usage_errors(scenario_file, capsys):
    assert main(["availability", "/nonexistent/x.json"]) == 1
    assert main(["frobnicate", scenario_file]) == 1
    assert main(["availability", scenario_file, "--policy2", "k=9"]) == 1
    assert main(["availability", scenario_file, "--policy2", "k=1:99"]) == 1
    assert main(["availability", scenario_file, "--policy2", "k=zap"]) == 1
    assert main(["rate", scenario_file, "--rho", "0.5"]) == 1
    assert main(["rate", scenario_file, "--rho", "a,b"]) == 1
    capsys.readouterr()


def test_availability_rejects_nonpositive_tol(scenario_file, capsys):
    for tol in ("-1", "0"):
        assert main(["availability", scenario_file, "--tol", tol]) == 1
        err = capsys.readouterr().err
        assert "tolerance must be > 0" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "availability" in capsys.readouterr().out


def test_validate_passes_on_fast_scenario(scenario_file, capsys):
    assert main(["validate", scenario_file]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out
    for name in ("inverse-vs-dense", "availability-ctmc-tier1",
                 "coverage-mc", "service-area-tier1", "association-tier2",
                 "rate-mc"):
        assert any(line.startswith("PASS " + name)
                   for line in out.splitlines()), name


def test_validate_catches_a_broken_constant(scenario_file, capsys,
                                            monkeypatch):
    # simulate a regression: coverage_prob suddenly reports garbage, which
    # the spatial oracle must flag
    monkeypatch.setattr("harvnet.coverage.coverage_prob", lambda sc: 0.9)
    assert main(["validate", scenario_file]) == 3
    out = capsys.readouterr().out
    assert "FAIL coverage-mc" in out
    assert "validation FAILED" in out


def _child_env():
    """Environment whose PYTHONPATH finds the harvnet imported here."""
    src_dir = str(Path(harvnet.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point(scenario_file):
    proc = subprocess.run(
        [sys.executable, "-m", "harvnet.cli", "coverage", scenario_file],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout.startswith("sir_target,")


def test_import_leaves_scipy_optimize_unloaded():
    # every CLI call pays for what `import harvnet` loads
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, harvnet; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_thread_pool_logging_and_scipy_unloaded():
    # a one-shot CLI call pays for every module `import harvnet.cli` loads
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, harvnet.cli; print(sorted(m for m in sys.modules if m.split('.')[0]"
         " in ('concurrent', 'logging', 'scipy')))"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_coverage_calls_leave_scipy_integrate_and_optimize_unloaded():
    code = (
        "import sys, harvnet as hn\n"
        "sc = hn.NetworkScenario((hn.TierParams(1.0, 1.0, 2.0, 6),\n"
        "                         hn.TierParams(10.0, 1.0, 1.0, 5)),\n"
        "                        3.5, 1.0, 5.0)\n"
        "hn.coverage_prob(sc)\n"
        "hn.rate_ccdf(sc, [0.5, 0.5], hn.RateQuery(rate_target=0.1))\n"
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize')\n"
        "             if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_alpha4_commands_leave_scipy_unloaded():
    # every bundled scenario has alpha = 4, where no calculation needs scipy;
    # rate-surface.json is infeasible, so its plain `rate` call exits 1
    paths = sorted(str(p) for p in SCENARIOS.glob("*.json"))
    betas = [0.5, 1.0, 1e3]
    code = (
        "import contextlib, io, json, os, sys\n"
        "import harvnet\n"
        "loaded = ['scipy' in sys.modules]\n"
        "from harvnet.cli import main\n"
        "failed = []\n"
        f"for path in {paths!r}:\n"
        "    for argv in (['availability'], ['region'], ['coverage'], ['rate'],\n"
        "                 ['rate', '--rho', '0.5,0.5'], ['rate', '--surface']):\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            if main([argv[0], path, *argv[1:]]):\n"
        "                failed.append([os.path.basename(path), ' '.join(argv)])\n"
        "loaded.append('scipy' in sys.modules)\n"
        f"f = harvnet.hyper_f({betas!r}, 3.5).tolist()\n"
        "loaded.append('scipy' in sys.modules)\n"
        "print(json.dumps([loaded, failed, f]))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    loaded, failed, f = json.loads(proc.stdout)
    assert loaded == [False, False, True]
    assert failed == [["rate-surface.json", "rate"]]
    for beta, got in zip(betas, f):
        assert got == pytest.approx(float(mp_hyper_f(beta, 3.5)), rel=1e-13)


LAYERS = ("model", "coverage", "markov", "analytic", "region", "simulate")
# Child-side helper: which layers are in sys.modules and which have run.
# It reads type() only, since reading any attribute of a lazy layer runs it.
LAYER_STATE = (
    "import json, sys, types\n"
    "def layer_state():\n"
    "    state = {}\n"
    f"    for layer in {LAYERS!r}:\n"
    "        mod = sys.modules.get('harvnet.' + layer)\n"
    "        state[layer] = ('absent' if mod is None else\n"
    "                        'ran' if type(mod) is types.ModuleType else 'lazy')\n"
    "    return state\n")


def _child_json(code, *argv, **env):
    proc = subprocess.run([sys.executable, "-c", LAYER_STATE + code, *argv],
                          capture_output=True, text=True, env={**_child_env(), **env})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_runs_no_layer():
    state = _child_json("import harvnet\nprint(json.dumps(layer_state()))\n")
    assert state == dict.fromkeys(LAYERS, "lazy")


ANALYTIC_LAYERS = {"model", "coverage", "markov", "analytic"}


# The cli benchmark's one-shot calls and the layers each one runs.
ONE_SHOT = [
    (["availability", "two-tier-baseline"], ANALYTIC_LAYERS),
    (["availability", "battery-sweep", "--policy2", "k=1", "--policy2", "k=2"],
     ANALYTIC_LAYERS),
    (["region", "gamma-rich"], ANALYTIC_LAYERS | {"region"}),
    (["region", "two-tier-baseline", "--constrain", "k=1"], ANALYTIC_LAYERS | {"region"}),
    (["coverage", "rate-surface", "--sir-target-db", "3.0"], {"model", "coverage"}),
    (["rate", "battery-sweep"], ANALYTIC_LAYERS),
    (["rate", "gamma-rich", "--rho", "0.8,0.6"], {"model", "coverage"}),
    (["rate", "rate-surface", "--surface", "--grid", "10", "--rate-target", "0.1"],
     {"model", "coverage"}),
]


@pytest.mark.parametrize("argv, layers", ONE_SHOT, ids=[" ".join(a) for a, _ in ONE_SHOT])
def test_one_shot_commands_run_only_their_layers(argv, layers):
    # the analytic commands never run the simulator, and coverage and rate
    # at a given rho run neither the fixed point nor the CTMC layer
    argv = [argv[0], str(SCENARIOS / f"{argv[1]}.json"), *argv[2:]]
    code = ("import contextlib, io\n"
            "from harvnet.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            "print(json.dumps([code, layer_state()]))\n")
    exit_code, state = _child_json(code)
    assert exit_code == 0
    assert {layer for layer, s in state.items() if s == "ran"} == layers
    assert state["simulate"] == "lazy"


def test_missing_file_exit_runs_no_analytic_layer():
    # the error handler names the layer exceptions only after the common ones
    code = ("import contextlib, io\n"
            "from harvnet.cli import main\n"
            "err = io.StringIO()\n"
            "with contextlib.redirect_stderr(err):\n"
            "    code = main(['coverage', sys.argv[1]])\n"
            "print(json.dumps([code, err.getvalue(), layer_state()]))\n")
    missing = str(SCENARIOS / "no-such-scenario.json")
    exit_code, stderr, state = _child_json(code, missing)
    assert exit_code == 1
    assert stderr.startswith("error: ") and "no-such-scenario.json" in stderr
    assert state["analytic"] != "ran" and state["coverage"] != "ran"


def test_cli_import_leaves_layers_visible_to_vars():
    # a tracer that wraps module attributes reads vars() of every layer
    code = ("import harvnet.cli\n"
            "before = layer_state()\n"
            "names = vars(sys.modules['harvnet.simulate'])\n"
            "print(json.dumps([before, 'spatial_mc' in names, layer_state()]))\n")
    before, found, after = _child_json(code)
    assert before["simulate"] == "lazy"
    assert found
    assert after["simulate"] == "ran"


def test_public_names_resolve_to_their_layers():
    code = ("import harvnet\n"
            "wrong = [name for name in harvnet.__all__\n"
            "         if getattr(harvnet, name) is not getattr(\n"
            "             sys.modules[getattr(harvnet, name).__module__], name)]\n"
            "homes = sorted({getattr(harvnet, name).__module__ for name in harvnet.__all__})\n"
            "copied = sorted(set(harvnet.__all__) & set(vars(harvnet)))\n"
            "try:\n"
            "    harvnet.no_such_name\n"
            "    unknown = None\n"
            "except AttributeError as exc:\n"
            "    unknown = str(exc)\n"
            "print(json.dumps([wrong, homes, copied, unknown]))\n")
    wrong, homes, copied, unknown = _child_json(code)
    assert wrong == []
    assert homes == sorted(f"harvnet.{layer}" for layer in LAYERS)
    # resolved names stay out of the package, so a swapped layer attribute shows
    assert copied == []
    assert unknown == "module 'harvnet' has no attribute 'no_such_name'"


def test_first_spatial_call_loads_no_layer_on_a_worker_thread():
    # LazyLoader does not lock a module's first load on every CPython, so
    # the replicate threads must find every layer they use already run
    code = ("import harvnet\n"
            "from harvnet.cli import load_scenario\n"
            "scenario, _ = load_scenario(sys.argv[1])\n"
            "spatial_mc, config = harvnet.spatial_mc, harvnet.SimConfig(6.0, 4, 11)\n"
            "before = layer_state()\n"
            "est = spatial_mc(scenario, [0.8, 0.6], config, rate_target=0.1,\n"
            "                 area_tiers=(0, 1))\n"
            "values = [est.coverage.mean, est.rate.mean,\n"
            "          *(e.mean for e in est.association), *(e.mean for e in est.area.values())]\n"
            "print(json.dumps([before, layer_state(), values]))\n")
    runs = [_child_json(code, str(SCENARIOS / "gamma-rich.json"), HETNET_THREADS=threads)
            for threads in ("1", "2")]
    for before, after, _ in runs:
        assert before["simulate"] == "ran"
        assert after == before
    assert runs[0][2] == runs[1][2]
