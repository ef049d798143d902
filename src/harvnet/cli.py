"""Batch command line front-end.

Subcommands read a scenario JSON file and print CSV to stdout, so figure
data can be regenerated and piped straight into plotting tools.  All dB to
linear conversion happens here; the library works in linear units.

Exit codes: 0 success, 1 usage or parse error, 2 infeasible scenario under
--strict, 3 validation failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import MISSING, fields, replace

import numpy as np

from . import analytic, coverage, markov, region, simulate
from .model import (NetworkScenario, ScenarioError, ShadowingSpec, TierParams, _check_integer,
                    _check_positive, _two_tier_grid)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VALIDATION = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise _UsageError(message)


def _db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ScenarioError(f"{db} dB overflows a linear value") from None


def _integer(value, field: str) -> int:
    """A JSON number that must be integral: 10 and 10.0 pass, 10.7 and true do not."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{field} must be an integer (got {value!r})")
    return value


def _number(value, field: str) -> float:
    """A JSON number as a float: a string, list, bool or null is an error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{field} must be a number (got {value!r})")
    return float(value)


def _object(value, field: str) -> dict:
    """A JSON object; an absent or null field reads as the empty object."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ScenarioError(
            f"{field} must be a JSON object (got {type(value).__name__})")
    return value


# Readers by dataclass field annotation (a string, as the layers postpone
# annotations); a field of any other type passes as it is.
_READERS = {"float": _number, "int": _integer}


def _known(block: dict, keys, where: str) -> None:
    """A key of `block` outside `keys`, such as a misspelt field, is an error."""
    unknown = sorted(set(block) - set(keys))
    if unknown:
        raise ScenarioError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")


def _field(block: dict, name: str, where: str):
    """block[name]; a missing field is an error naming it."""
    if name not in block:
        raise ScenarioError(f"{where}: missing field {name!r}")
    return block[name]


def _read(cls, block: dict, where: str, **given):
    """Build dataclass `cls` from a JSON object, field by field in field order.

    A field in `given` is not read, one the block leaves out takes its
    default, and a missing field without a default or a key that is no
    field of `cls` is an error.
    """
    _known(block, (f.name for f in fields(cls)), where)
    for f in fields(cls):
        if f.name in given or (f.name not in block and f.default is not MISSING):
            continue
        read = _READERS.get(f.type)
        value = _field(block, f.name, where)
        given[f.name] = read(value, f"{where}.{f.name}") if read else value
    return cls(**given)


_SCENARIO_KEYS = ("tiers", "path_loss_exp", "sir_target", "sir_target_db",
                  "user_density", "over_provisioning", "sim", "sweep")


def load_scenario(path: str) -> tuple[NetworkScenario, dict]:
    """Parse a scenario JSON file; returns the scenario and the raw document.

    The document gives exactly one of `user_density` and an
    `over_provisioning` factor gamma, in which case lambda_u =
    sum(lambda_k mu_k)/(gamma P_c), and exactly one of the linear
    `sir_target` and `sir_target_db`.
    """
    with open(path) as fh:
        doc = _object(json.load(fh), "scenario")
    _known(doc, _SCENARIO_KEYS, "scenario")
    entries = doc.get("tiers", [])
    if not isinstance(entries, list):
        raise ScenarioError(f"tiers must be a JSON list (got {type(entries).__name__})")
    tiers = []
    for i, entry in enumerate(entries):
        where = f"tiers[{i}]"
        entry = _object(entry, where)
        sh = f"{where}.shadowing"
        shadowing = _read(ShadowingSpec, _object(entry.get("shadowing"), sh), sh)
        tiers.append(_read(TierParams, entry, where, shadowing=shadowing))
    if not tiers:
        raise ScenarioError("scenario must define at least one tier")
    alpha = _number(doc.get("path_loss_exp", 4.0), "path_loss_exp")
    for pair in (("sir_target", "sir_target_db"), ("user_density", "over_provisioning")):
        if sum(key in doc for key in pair) != 1:
            raise ScenarioError(f"scenario must set exactly one of {' and '.join(pair)}")
    if "sir_target" in doc:
        beta = _number(doc["sir_target"], "sir_target")
    else:
        beta = _db_to_linear(_number(doc["sir_target_db"], "sir_target_db"))
    if "user_density" in doc:
        lam_u = _number(doc["user_density"], "user_density")
    else:
        gamma = _number(doc["over_provisioning"], "over_provisioning")
        _check_positive(gamma, "over_provisioning")
        # P_c needs a valid (beta, alpha): the probe scenario checks them
        pc = coverage.coverage_prob(NetworkScenario(tuple(tiers), alpha, beta, 1.0))
        harvested = sum(t.density * t.harvest_rate for t in tiers)
        lam_u = harvested / (gamma * pc)
        _check_positive(lam_u, f"user_density from over_provisioning={gamma}")
    return NetworkScenario(tiers=tuple(tiers), path_loss_exp=alpha,
                           sir_target=beta, user_density=lam_u), doc


def _tier_index(tier: int, scenario: NetworkScenario) -> int:
    """0-based index of the 1-based `tier`; a usage error outside 1..K."""
    if not 1 <= tier <= scenario.k_tiers:
        raise _UsageError(f"tier index {tier} out of range 1..{scenario.k_tiers}")
    return tier - 1


def _parse_policies(texts, scenario: NetworkScenario) -> dict[int, markov.PolicySpec]:
    """{0-based tier: PolicySpec} from 'k=TIER[:CUTOFF]' texts, TIER 1-based.

    'k=2' pins tier 2 to its full battery, 'k=2:5' to cutoff 5.  The
    cutoff's range is checked by the library call that takes the map.
    """
    policies = {}
    for text in texts or []:
        body = text[2:] if text.startswith("k=") else text
        tier_txt, _, cut_txt = body.partition(":")
        try:
            tier = int(tier_txt)
        except ValueError:
            raise _UsageError(f"cannot parse tier assignment {text!r}") from None
        k = _tier_index(tier, scenario)
        try:
            cutoff = int(cut_txt) if cut_txt else scenario.tiers[k].battery
        except ValueError:
            raise _UsageError(f"cannot parse cutoff in {text!r}") from None
        policies[k] = markov.PolicySpec(cutoff)
    return policies


def _parse_rho(text: str) -> np.ndarray:
    """Comma-separated floats; their count and range are checked by the library."""
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise _UsageError(f"cannot parse availability vector {text!r}") from None


def _resolve_rho(args, scenario: NetworkScenario) -> np.ndarray:
    if args.rho is not None:
        return _parse_rho(args.rho)
    result = analytic.solve_availability(scenario)
    if not result.feasible:
        raise ScenarioError(
            "scenario is infeasible and no --rho was given; supply one")
    return result.rho


def _sim_config(args, doc: dict, scenario: NetworkScenario,
                rho: np.ndarray) -> simulate.SimConfig:
    """The `sim` block read through SimConfig's fields, under the given flags."""
    block = dict(_object(doc.get("sim"), "sim"))
    flags = {"window_side": getattr(args, "window", None),
             "replicates": args.replicates, "seed": args.seed}
    block.update((key, value) for key, value in flags.items() if value is not None)
    if block.get("window_side") is None:
        block["window_side"] = simulate.suggest_window_side(scenario, rho)
    return _read(simulate.SimConfig, block, "sim")


def _emit(header: list[str], rows) -> None:
    """Write one CSV table to stdout, formatting every row before writing any.

    Floats print to 12 significant digits, anything else as str().
    """
    table = [header, *([format(x, ".12g") if isinstance(x, float) else str(x)
                        for x in row] for row in rows)]
    csv.writer(sys.stdout, lineterminator="\n").writerows(table)


def cmd_availability(args) -> int:
    scenario, _ = load_scenario(args.scenario)
    pinned = _parse_policies(args.policy2, scenario)
    policy = [pinned.get(k, markov.PolicySpec(1)) for k in range(scenario.k_tiers)]
    result = analytic.solve_availability(scenario, policy=policy,
                                         tolerance=args.tol)
    _, gamma = analytic.check_feasibility(scenario)
    _emit(["tier", "policy", "rho", "gamma", "feasible", "iterations", "residual"],
          ([k + 1, f"S({p.cutoff})", rho, gamma, result.feasible, result.iterations,
            result.residual]
           for k, (p, rho) in enumerate(zip(policy, result.rho.tolist()))))
    if args.strict and not result.feasible:
        print("scenario is infeasible (gamma <= 1)", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_region(args) -> int:
    scenario, _ = load_scenario(args.scenario)
    constraints = _parse_policies(args.constrain, scenario)
    # Every rule a sweep checks, in the sweeps' order, before the first sweep runs.
    _two_tier_grid(scenario, args.grid)
    analytic._cutoffs(scenario, constraints)
    b0, b1 = (region.sweep_boundary(scenario, k, args.grid, constraints.get(k))
              for k in (0, 1))
    _emit(["grid", "rho1_star_given_rho2", "rho2_star_given_rho1"],
          zip(b0.grid.tolist(), b0.values.tolist(), b1.values.tolist()))
    return EXIT_OK


def cmd_coverage(args) -> int:
    scenario, _ = load_scenario(args.scenario)
    if args.sir_target_db is not None:
        scenario = replace(scenario,
                           sir_target=_db_to_linear(args.sir_target_db))
    _emit(["sir_target", "path_loss_exp", "coverage"],
          [[scenario.sir_target, scenario.path_loss_exp,
            coverage.coverage_prob(scenario)]])
    return EXIT_OK


def cmd_rate(args) -> int:
    if args.surface and args.rho is not None:
        raise _UsageError("--rho cannot be combined with --surface, "
                          "which sweeps its own availabilities")
    scenario, doc = load_scenario(args.scenario)
    sweep = _object(doc.get("sweep"), "sweep")
    _known(sweep, ("variable", "start", "stop", "steps"), "sweep")
    if sweep and sweep.get("variable") != "rate_target":
        raise ScenarioError(f"sweep.variable must be 'rate_target' "
                            f"(got {sweep.get('variable')!r})")
    if args.surface:
        grid = _two_tier_grid(scenario, args.grid, 0.1)
        query = coverage.RateQuery(0.1 if args.rate_target is None else args.rate_target)
        rho = np.column_stack((np.repeat(grid, grid.size), np.tile(grid, grid.size)))
        values = coverage.rate_ccdf(scenario, rho, query)
        _emit(["rho1", "rho2", "rate_ccdf"],
              ([r1, r2, val] for (r1, r2), val in zip(rho.tolist(), values.tolist())))
        return EXIT_OK
    rho = _resolve_rho(args, scenario)
    if args.rate_target is not None:
        targets = [args.rate_target]
    elif sweep:
        start, stop = (_number(_field(sweep, k, "sweep"), f"sweep.{k}")
                       for k in ("start", "stop"))
        steps = _integer(_field(sweep, "steps", "sweep"), "sweep.steps")
        _check_integer(steps, "sweep.steps", 1)
        targets = np.linspace(start, stop, steps).tolist()
    else:
        targets = np.linspace(0.0, 2.0, 41).tolist()
    _emit(["rate_target", "rate_ccdf"],
          ([t, coverage.rate_ccdf(scenario, rho, coverage.RateQuery(rate_target=t))]
           for t in targets))
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario, doc = load_scenario(args.scenario)
    rho = _resolve_rho(args, scenario)
    config = _sim_config(args, doc, scenario, rho)
    tiers = (range(scenario.k_tiers) if args.tier is None
             else [_tier_index(args.tier, scenario)])
    kind = args.estimator
    target = args.rate_target if kind == "rate" else None
    sim = simulate.spatial_mc(scenario, rho, config, rate_target=target,
                              area_tiers=tiers if kind == "area" else ())
    estimates = {"coverage": {"": sim.coverage}, "rate": {"": sim.rate},
                 "association": dict(enumerate(sim.association, 1)),
                 "area": {k + 1: est for k, est in sim.area.items()}}[kind]
    _emit(["estimator", "tier", "rate_target", "mean", "ci_halfwidth_99", "samples", "seed"],
          ([kind, tier, "" if target is None else target, est.mean, est.ci_halfwidth_99,
            est.samples, est.seed] for tier, est in estimates.items()))
    return EXIT_OK


def _check(lines, name, analytic_val, oracle_val, tol, seed) -> bool:
    diff = abs(analytic_val - oracle_val)
    ok = diff <= tol
    lines.append(f"{'PASS' if ok else 'FAIL'} {name}: analytic={analytic_val:.6f} "
                 f"oracle={oracle_val:.6f} |diff|={diff:.3e} tol={tol:.3e} "
                 f"seed={seed}")
    return ok


def cmd_validate(args) -> int:
    scenario, doc = load_scenario(args.scenario)
    lines: list[str] = []
    ok = True

    # Hitting-time closed form against a dense solve of the same generator.
    # The ratio is pinned near 1 so matrix entries stay O(1) and the identity
    # comparison is meaningful at the 1e-9 scale.
    tier0 = scenario.tiers[0]
    spec = markov.BirthDeathSpec(tier0.harvest_rate, tier0.harvest_rate / 1.2,
                                 min(tier0.battery, 40))
    m = markov.neg_b_inverse(spec)
    b = -markov.generator(spec)[1:, 1:]
    err = float(np.max(np.abs(m @ b - np.eye(spec.battery))))
    ok &= _check(lines, "inverse-vs-dense", 0.0, err, 1e-9, "-")

    result = analytic.solve_availability(scenario)
    rho = result.rho if result.feasible else np.ones(scenario.k_tiers)
    config = _sim_config(args, doc, scenario, rho)
    # Two replicates at least, or no check has a confidence interval.
    _check_integer(config.replicates, "replicates", 2)
    if result.feasible:
        for k in range(scenario.k_tiers):
            tier = scenario.tiers[k]
            nu = analytic.energy_utilization(scenario, rho, k)
            bd = markov.BirthDeathSpec(tier.harvest_rate, nu, tier.battery)
            # The sampler costs O(N) per batch of cycles, whatever the ON
            # time; it refuses only chains whose visit counts overflow.
            try:
                sim = markov.simulate_on_off(bd, markov.PolicySpec(1),
                                             cycles=100_000, seed=config.seed + k)
            except ScenarioError as exc:
                lines.append(f"SKIP availability-ctmc-tier{k + 1}: {exc}")
                continue
            ok &= _check(lines, f"availability-ctmc-tier{k + 1}",
                         float(rho[k]), sim.mean, sim.ci_halfwidth_99, sim.seed)
    else:
        lines.append("SKIP availability-ctmc: scenario infeasible, "
                     "using rho=1 for the spatial checks")

    sim = simulate.spatial_mc(scenario, rho, config, rate_target=args.rate_target,
                              area_tiers=range(scenario.k_tiers))
    pc = coverage.coverage_prob(scenario)
    ok &= _check(lines, "coverage-mc", pc, sim.coverage.mean,
                 sim.coverage.ci_halfwidth_99 + 0.01, sim.coverage.seed)

    for k in range(scenario.k_tiers):
        area = analytic.mean_service_area(scenario, rho, k)
        est = sim.area[k]
        ok &= _check(lines, f"service-area-tier{k + 1}", area, est.mean,
                     est.ci_halfwidth_99 + 0.02 * area, est.seed)

    for k, est in enumerate(sim.association):
        pk = coverage.tier_association_prob(scenario, rho, k)
        ok &= _check(lines, f"association-tier{k + 1}", pk, est.mean,
                     est.ci_halfwidth_99 + 0.01, est.seed)

    series = coverage.rate_ccdf(scenario, rho,
                                coverage.RateQuery(rate_target=args.rate_target))
    ok &= _check(lines, "rate-mc", series, sim.rate.mean, 0.03, sim.rate.seed)

    print("\n".join(lines))
    print("all checks passed" if ok else "validation FAILED")
    return EXIT_OK if ok else EXIT_VALIDATION


def _build_parser() -> _Parser:
    parser = _Parser(prog="harvnet",
                     description="availability, coverage, and rate analysis "
                                 "of energy-harvesting cellular networks")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="scenario JSON file")
        p.set_defaults(func=fn)
        return p

    p = add("availability", cmd_availability,
            "solve the availability fixed point")
    p.add_argument("--policy2", action="append", metavar="k=TIER[:CUTOFF]",
                   help="pin a tier to recharge policy S(battery) or S(cutoff)")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--strict", action="store_true",
                   help="exit 2 when the scenario is infeasible")

    p = add("region", cmd_region, "sweep the two-tier availability region")
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--constrain", action="append", metavar="k=TIER[:CUTOFF]",
                   help="constrain a tier to S(battery) or S(cutoff)")

    p = add("coverage", cmd_coverage, "analytic SIR coverage probability")
    p.add_argument("--sir-target-db", type=float, default=None,
                   help="override the scenario SIR target, in dB")

    p = add("rate", cmd_rate, "downlink rate CCDF (grid over T or rho surface)")
    p.add_argument("--rho", help="comma-separated availabilities "
                                 "(default: solved fixed point)")
    p.add_argument("--rate-target", type=float, default=None,
                   help="single rate threshold in bps/Hz")
    p.add_argument("--surface", action="store_true",
                   help="sweep (rho1, rho2) instead of the rate threshold")
    p.add_argument("--grid", type=int, default=10,
                   help="points per axis for --surface")

    p = add("simulate", cmd_simulate, "Monte Carlo oracles")
    p.add_argument("--estimator", choices=["coverage", "area", "rate",
                                           "association"], default="coverage")
    p.add_argument("--rho", help="comma-separated availabilities")
    p.add_argument("--tier", type=int, default=None,
                   help="tier (1-based) for --estimator area")
    p.add_argument("--rate-target", type=float, default=0.1)
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--window", type=float, default=None,
                   help="override the simulation window side")

    p = add("validate", cmd_validate,
            "run every analytic-vs-oracle cross check")
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--rate-target", type=float, default=0.1)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:      # --help and friends
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
