"""The three workloads: rounds of operations, each with its own output check.

A round is a fixed list of operations built from the round's generator; the
same seed gives the same rounds.  Every operation is one call into the
program (a library call, an in-process subcommand or a child process) and a
check of its output against `oracles`, which share no code with harvnet.
An operation tagged with a fault id is one that fails on today's code for a
reason written down in the README; it is counted as failed, not as wrong.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

SCENARIOS = ("two-tier-baseline", "battery-sweep", "gamma-rich", "rate-surface")

# Over-provisioning grid of the availability-vs-gamma figure: log-spaced
# excess from 2 down to 1e-3, so gamma runs from 3 to 1 + 1e-3.
GAMMAS = 1.0 + np.geomspace(2.0, 1e-3, 24)
RATE_TS = np.linspace(0.0, 2.0, 41)
SIR_DB = np.linspace(-10.0, 20.0, 31)
ALPHAS = np.arange(2.5, 6.01, 0.5)
SURFACE_RHO = np.linspace(0.1, 1.0, 10)
REGION_GRID = 101
VALIDATE_REPLICATES = 4

# Tolerances against the oracles.  The availability solver stops on a step
# of 1e-10, but its true error near gamma = 1 is larger (1e-7 at 1 + 1e-3),
# so availabilities are held to 1e-6.  Boundaries are bisected to 1e-10.
# Rate CCDFs inherit fault F2 below: terms with beta above ~5e11 carry F
# 50% off, which moves the surface at high load by up to 6e-8; the rate
# tolerance sits above that so the fault is counted once, by its own
# operation, and can drop to 1e-9 once F is exact.
TOL_RHO = 1e-6
TOL_BOUNDARY = 1e-8
TOL_RATE = 2e-7
TOL_COVERAGE_REL = 1e-10
# Fault F2: the quadrature behind coverage_prob loses half of F at
# alpha = 4, beta = 1e12, where F = sqrt(beta) atan(sqrt(beta)) exactly.
F2_BETA = 1e12


class Mismatch(Exception):
    """An output disagrees with the oracle or breaks a required property."""


@dataclass
class Op:
    phase: str
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    fault: str | None = None


@dataclass(frozen=True)
class Spec:
    """A scenario as the oracles see it, read from the JSON file directly."""

    tiers: tuple          # (density, tx_power, harvest_rate, battery, mean_db, std_db)
    alpha: float
    beta: float
    user_density: float

    @property
    def pc(self) -> float:
        return oracles.coverage_prob(self.beta, self.alpha)

    def weights(self) -> list[float]:
        return [oracles.tier_weight(p, m, s, self.alpha) for _, p, _, _, m, s in self.tiers]

    def model(self, pc: float | None = None) -> oracles.TwoTierModel:
        rows = [(t[0], w, t[2], t[3]) for t, w in zip(self.tiers, self.weights())]
        return oracles.TwoTierModel(rows, self.user_density, self.pc if pc is None else pc)

    def batteries(self) -> list[int]:
        return [t[3] for t in self.tiers]

    def with_gamma(self, gamma: float, pc: float) -> "Spec":
        harvested = sum(t[0] * t[2] for t in self.tiers)
        return Spec(self.tiers, self.alpha, self.beta, harvested / (gamma * pc))

    def rate(self, t: float, rho) -> float:
        return oracles.rate_ccdf(t, self.alpha, self.pc, self.user_density,
                                 [x[0] for x in self.tiers], self.weights(), rho)

    def program(self, hn, beta: float | None = None, alpha: float | None = None):
        tiers = tuple(hn.TierParams(density=d, tx_power=p, harvest_rate=mu, battery=n,
                                    shadowing=hn.ShadowingSpec(m, s))
                      for d, p, mu, n, m, s in self.tiers)
        return hn.NetworkScenario(tiers=tiers,
                                  path_loss_exp=self.alpha if alpha is None else alpha,
                                  sir_target=self.beta if beta is None else beta,
                                  user_density=self.user_density)


def read_spec(path: Path, beta_scale: float = 1.0, alpha_shift: float = 0.0) -> Spec:
    doc = json.loads(path.read_text())
    tiers = tuple((float(t["density"]), float(t["tx_power"]), float(t["harvest_rate"]),
                   int(t["battery"]), float(t.get("shadowing", {}).get("mean_db", 0.0)),
                   float(t.get("shadowing", {}).get("std_db", 0.0)))
                  for t in doc["tiers"])
    alpha = float(doc.get("path_loss_exp", 4.0)) + alpha_shift
    beta = (float(doc["sir_target"]) if "sir_target" in doc
            else 10.0 ** (float(doc["sir_target_db"]) / 10.0)) * beta_scale
    spec = Spec(tiers, alpha, beta, 0.0)
    if "user_density" in doc:
        return Spec(tiers, alpha, beta, float(doc["user_density"]))
    return spec.with_gamma(float(doc["over_provisioning"]), spec.pc)


def _close(name: str, got, want, tol: float) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise Mismatch(f"{name}: shape {got.shape}, expected {want.shape}")
    err = np.abs(got - want)
    if not np.all(err <= tol):
        i = int(np.argmax(np.where(np.isnan(err), np.inf, err)))
        raise Mismatch(f"{name}: {got.flat[i]!r} vs oracle {want.flat[i]!r} "
                       f"(|diff| {err.flat[i]:.3e} > {tol:.0e})")


def _check_rate_curve(name: str, ts, values, want) -> None:
    values = np.asarray(values, dtype=float)
    _close(name, values, want, TOL_RATE)
    if ts[0] == 0.0 and values[0] != 1.0:
        raise Mismatch(f"{name}: P(rate > 0) = {values[0]!r}, must be 1")
    if np.any(np.diff(values) > 0.0):
        raise Mismatch(f"{name}: CCDF increases in T")


def _check_boundary(name: str, values, want, constrained_ceiling=None) -> None:
    values = np.asarray(values, dtype=float)
    _close(name, values, want, TOL_BOUNDARY)
    if np.any(np.diff(values) < -TOL_BOUNDARY):
        raise Mismatch(f"{name}: boundary decreases in the other tier's availability")
    if constrained_ceiling is not None and np.any(values > constrained_ceiling + TOL_BOUNDARY):
        raise Mismatch(f"{name}: constrained boundary above the unconstrained one")


def _check_inside(name: str, grid, b0, b1, rho) -> None:
    """rho lies in the region sampled by the two boundary curves.

    Boundaries grow with the other tier's availability, so the value at the
    first grid point at or above rho_other bounds the curve at rho_other.
    """
    for k, values in ((0, b0), (1, b1)):
        j = min(int(np.searchsorted(grid, rho[1 - k])), len(grid) - 1)
        if rho[k] > values[j] + TOL_BOUNDARY:
            raise Mismatch(f"{name}: fixed point {rho} outside the tier-{k + 1} boundary")


# --- figures ---------------------------------------------------------------

def figures_round(hn, scenarios: Path, rng: np.random.Generator) -> list[Op]:
    """Data behind the paper's figures, from seeded variations of the scenarios.

    Every round draws a new beta scale and alpha shift per scenario, so
    hyper_f's cache starts cold for each round's thresholds.
    """
    def jittered(name):
        return read_spec(scenarios / f"{name}.json",
                         beta_scale=math.exp(rng.uniform(-0.05, 0.05)),
                         alpha_shift=rng.uniform(-0.05, 0.05))

    ops: list[Op] = []
    base = jittered("two-tier-baseline")
    pc = base.pc
    policies = {"S(1)": [1, 1], "S(N)": base.batteries()}
    for label, cutoffs in policies.items():
        for gamma in GAMMAS:
            spec = base.with_gamma(gamma, pc)
            ops.append(_availability_op(hn, spec, pc, gamma, label, cutoffs))

    model = base.model(pc)
    grid = np.linspace(0.0, 1.0, REGION_GRID)
    rho_star = np.array(model.largest_root([1, 1])[1])
    unconstrained = [model.boundary(k, grid) for k in (0, 1)]
    sweeps: dict = {}
    for pinned in (None, 0, 1):
        for k in (0, 1):
            cutoff = base.batteries()[k] if pinned == k else 1
            ops.append(_sweep_op(hn, base, model, grid, k, pinned, cutoff,
                                 unconstrained, rho_star, sweeps))

    for name in ("two-tier-baseline", "battery-sweep", "gamma-rich"):
        spec = jittered(name)
        rho = spec.model().largest_root([1, 1])[1]
        ts = RATE_TS * math.exp(rng.uniform(0.0, 0.02))
        ops.append(_rate_curve_op(hn, name, spec, rho, ts))
    surf = jittered("rate-surface")
    t_surf = 0.1 * math.exp(rng.uniform(-0.05, 0.05))
    ops.append(_rate_surface_op(hn, surf, t_surf))
    for alpha in ALPHAS + rng.uniform(-0.02, 0.02, ALPHAS.size):
        db = SIR_DB + rng.uniform(-0.1, 0.1)
        ops.append(_coverage_curve_op(hn, base, float(alpha), db))
    ops.append(_f2_op(hn, base))
    return ops


def _availability_op(hn, spec, pc, gamma, label, cutoffs) -> Op:
    scenario = spec.program(hn)
    policy = None if label == "S(1)" else [hn.PolicySpec(c) for c in cutoffs]

    def check(result):
        _, rho = spec.model(pc).largest_root(cutoffs)
        if not result.feasible:
            raise Mismatch(f"gamma={gamma:.6g} {label}: reported infeasible")
        _close(f"rho at gamma={gamma:.6g} {label}", result.rho, rho, TOL_RHO)

    return Op("availability", f"solve_availability gamma={gamma:.6g} {label}",
              lambda: hn.solve_availability(scenario, policy=policy), check)


def _sweep_op(hn, spec, model, grid, k, pinned, cutoff, unconstrained, rho_star,
              sweeps) -> Op:
    scenario = spec.program(hn)
    constraint = hn.PolicySpec(cutoff) if pinned == k else None
    label = f"sweep_boundary tier={k + 1} pinned={'none' if pinned is None else pinned + 1}"

    def check(result):
        want = unconstrained[k] if cutoff == 1 else model.boundary(k, grid, cutoff)
        _close(f"{label} grid", result.grid, grid, 0.0)
        _check_boundary(label, result.values, want,
                        unconstrained[k] if cutoff != 1 else None)
        if pinned is None:
            sweeps[k] = result.values
            if len(sweeps) == 2:
                _check_inside(label, grid, sweeps[0], sweeps[1], rho_star)

    return Op("region", label,
              lambda: hn.sweep_boundary(scenario, k, REGION_GRID, constraint), check)


def _rate_curve_op(hn, name, spec, rho, ts) -> Op:
    scenario = spec.program(hn)

    def run():
        return [hn.rate_ccdf(scenario, rho, hn.RateQuery(rate_target=float(t))) for t in ts]

    def check(values):
        _check_rate_curve(f"rate curve {name}", ts, values,
                          [spec.rate(float(t), rho) for t in ts])

    return Op("rate", f"rate_ccdf curve {name}", run, check)


def _rate_surface_op(hn, spec, t) -> Op:
    scenario = spec.program(hn)
    query = hn.RateQuery(rate_target=t)
    points = [(r1, r2) for r1 in SURFACE_RHO for r2 in SURFACE_RHO]

    def check(values):
        _close("rate surface", values, [spec.rate(t, p) for p in points], TOL_RATE)

    return Op("rate", f"rate_ccdf surface T={t:.4g}",
              lambda: [hn.rate_ccdf(scenario, list(p), query) for p in points], check)


def _coverage_curve_op(hn, spec, alpha, db) -> Op:
    betas = 10.0 ** (db / 10.0)
    scenarios = [spec.program(hn, beta=float(b), alpha=alpha) for b in betas]

    def check(values):
        values = np.asarray(values)
        want = np.array([oracles.coverage_prob(float(b), alpha) for b in betas])
        _close(f"coverage curve alpha={alpha:.4g}", values / want, np.ones_like(want),
               TOL_COVERAGE_REL)
        if np.any(np.diff(values) >= 0.0):
            raise Mismatch(f"coverage curve alpha={alpha:.4g}: not decreasing in beta")

    return Op("rate", f"coverage_prob curve alpha={alpha:.4g}",
              lambda: [hn.coverage_prob(s) for s in scenarios], check)


def _f2_op(hn, spec) -> Op:
    scenario = spec.program(hn, beta=F2_BETA, alpha=4.0)

    def check(value):
        root = math.sqrt(F2_BETA)
        want = 1.0 / (1.0 + root * math.atan(root))
        if abs(value / want - 1.0) > TOL_COVERAGE_REL:
            raise Mismatch(f"coverage_prob(alpha=4, beta=1e12) = {value!r}, "
                           f"exact {want!r}")

    return Op("rate", "coverage_prob alpha=4 beta=1e12", lambda: hn.coverage_prob(scenario),
              check, fault="F2")


# --- validate --------------------------------------------------------------

def _in_process(main, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _pairs(line: str) -> dict:
    return dict(part.split("=", 1) for part in line.split() if "=" in part)


def validate_round(cli, scenarios: Path, stats: dict) -> list[Op]:
    """The `validate` subcommand and `simulate --estimator coverage`, in-process.

    Inputs are the bundled baseline with its own simulation seed: both
    commands make statistical checks, and a seed on which one of them
    missed its interval would make the failed share depend on the seed.
    Both run VALIDATE_REPLICATES replicates instead of the scenario's 16,
    so that three rounds fit in a 30 s run.
    """
    path = scenarios / "two-tier-baseline.json"
    spec = read_spec(path)
    model = spec.model()
    rho = np.array(model.largest_root([1, 1])[1])
    on = rho * np.array([t[0] for t in spec.tiers]) * np.array(spec.weights())
    expected = {"coverage-mc": spec.pc,
                "rate-mc": spec.rate(0.1, rho),
                "inverse-vs-dense": 0.0}
    for k in range(2):
        expected[f"availability-ctmc-tier{k + 1}"] = rho[k]
        expected[f"association-tier{k + 1}"] = on[k] / on.sum()
        expected[f"service-area-tier{k + 1}"] = spec.weights()[k] / on.sum()

    def check_validate(result):
        code, text = result
        lines = text.strip().splitlines()
        if code != 0 or lines[-1] != "all checks passed":
            raise Mismatch(f"validate exited {code}: {lines[-1] if lines else ''}")
        seen = set()
        for line in lines[:-1]:
            verdict, name = line.split()[:2]
            name = name.rstrip(":")
            if verdict != "PASS":
                raise Mismatch(f"validate: {line}")
            if name not in expected:
                raise Mismatch(f"validate: unexpected check {name}")
            # The analytic column is printed with 6 decimals.
            _close(f"validate {name} analytic", float(_pairs(line)["analytic"]),
                   expected[name], TOL_RHO + 5e-7)
            seen.add(name)
        if seen != set(expected):
            raise Mismatch(f"validate: missing checks {sorted(set(expected) - seen)}")

    def check_simulate(result):
        code, text = result
        rows = list(csv.DictReader(io.StringIO(text)))
        if code != 0 or len(rows) != 1:
            raise Mismatch(f"simulate exited {code} with {len(rows)} rows")
        mean, hw = float(rows[0]["mean"]), float(rows[0]["ci_halfwidth_99"])
        if not abs(mean - spec.pc) <= hw + 0.01:
            raise Mismatch(f"simulate coverage {mean} vs P_c {spec.pc} (ci {hw})")
        stats["coverage_ci"] = hw

    reps = ["--replicates", str(VALIDATE_REPLICATES)]
    return [
        Op("validate", "validate two-tier-baseline",
           lambda: _in_process(cli.main, ["validate", str(path), *reps]), check_validate),
        Op("simulate", "simulate --estimator coverage two-tier-baseline",
           lambda: _in_process(cli.main, ["simulate", str(path), "--estimator", "coverage",
                                          *reps]),
           check_simulate),
    ]


# --- cli -------------------------------------------------------------------

@dataclass
class Launcher:
    """Starts one harvnet process per call; traced calls go through cli_child.py."""

    root: Path
    env: dict
    span_dir: Path | None = None
    summaries: list = field(default_factory=list)
    calls: int = 0

    def __call__(self, argv: list[str]) -> tuple[int, str]:
        self.calls += 1
        if self.span_dir is None:
            cmd = [sys.executable, "-m", "harvnet.cli", *argv]
            out = None
        else:
            out = self.span_dir / f"call{self.calls:04d}.json"
            cmd = [sys.executable, str(self.root / "perfbench" / "cli_child.py"),
                   str(out), *argv]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=170)
        if out is not None and out.exists():
            self.summaries.append(json.loads(out.read_text()))
        if proc.returncode != 0:
            raise Mismatch(f"harvnet {' '.join(argv)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-300:]}")
        return proc.returncode, proc.stdout


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def cli_round(launch: Launcher, scenarios: Path, rng: np.random.Generator) -> list[Op]:
    """Eight one-shot analytic calls, two per bundled scenario.

    The seed moves only arguments whose cost barely depends on them: the
    SIR target of `coverage`, the availabilities given to `rate --rho` and
    the threshold of `rate --surface`.
    """
    spec = {name: read_spec(scenarios / f"{name}.json") for name in SCENARIOS}
    path = {name: str(scenarios / f"{name}.json") for name in SCENARIOS}
    ops: list[Op] = []

    def add(phase, argv, check):
        ops.append(Op(phase, "harvnet " + " ".join(argv).replace(str(scenarios) + "/", ""),
                      lambda: launch(argv)[1], check))

    def check_availability(name, cutoffs):
        def check(text):
            rows = _rows(text)
            _, rho = spec[name].model().largest_root(cutoffs)
            _close(f"availability {name}", [float(r["rho"]) for r in rows], rho, TOL_RHO)
            if any(r["feasible"] != "True" for r in rows):
                raise Mismatch(f"availability {name}: reported infeasible")
        return check

    def check_region(name, constrained_tier):
        def check(text):
            rows = _rows(text)
            model = spec[name].model()
            grid = np.array([float(r["grid"]) for r in rows])
            _close(f"region {name} grid", grid, np.linspace(0, 1, REGION_GRID), 1e-12)
            for k, col in enumerate(("rho1_star_given_rho2", "rho2_star_given_rho1")):
                free = model.boundary(k, grid)
                cutoff = spec[name].batteries()[k] if k == constrained_tier else 1
                want = free if cutoff == 1 else model.boundary(k, grid, cutoff)
                _check_boundary(f"region {name} tier {k + 1}",
                                [float(r[col]) for r in rows], want,
                                free if cutoff != 1 else None)
        return check

    def check_coverage(name, db):
        def check(text):
            (row,) = _rows(text)
            want = oracles.coverage_prob(10.0 ** (db / 10.0), spec[name].alpha)
            _close(f"coverage {name}", float(row["coverage"]) / want, 1.0, TOL_COVERAGE_REL)
        return check

    def check_rate(name, rho, ts):
        def check(text):
            rows = _rows(text)
            got_ts = np.array([float(r["rate_target"]) for r in rows])
            _close(f"rate {name} thresholds", got_ts, ts, 1e-12)
            _check_rate_curve(f"rate {name}", got_ts, [float(r["rate_ccdf"]) for r in rows],
                              [spec[name].rate(float(t), rho) for t in got_ts])
        return check

    def check_surface(name, t):
        def check(text):
            rows = _rows(text)
            points = [(float(r["rho1"]), float(r["rho2"])) for r in rows]
            if len(points) != SURFACE_RHO.size ** 2:
                raise Mismatch(f"rate surface {name}: {len(points)} points")
            _close(f"rate surface {name}", [float(r["rate_ccdf"]) for r in rows],
                   [spec[name].rate(t, p) for p in points], TOL_RATE)
        return check

    base, sweep, rich, surf = SCENARIOS
    add("availability", ["availability", path[base]], check_availability(base, [1, 1]))
    add("availability", ["availability", path[sweep], "--policy2", "k=1", "--policy2", "k=2"],
        check_availability(sweep, spec[sweep].batteries()))
    add("region", ["region", path[rich]], check_region(rich, None))
    add("region", ["region", path[base], "--constrain", "k=1"], check_region(base, 0))
    db = 3.0 + rng.uniform(-0.5, 0.5)
    add("coverage", ["coverage", path[surf], "--sir-target-db", repr(db)],
        check_coverage(surf, db))
    rho_sweep = spec[sweep].model().largest_root([1, 1])[1]
    add("rate", ["rate", path[sweep]], check_rate(sweep, rho_sweep, RATE_TS))
    rho = [0.8 + rng.uniform(-0.02, 0.02), 0.6 + rng.uniform(-0.02, 0.02)]
    add("rate", ["rate", path[rich], "--rho", f"{rho[0]!r},{rho[1]!r}"],
        check_rate(rich, rho, RATE_TS))
    t = 0.1 * math.exp(rng.uniform(-0.05, 0.05))
    add("rate_surface", ["rate", path[surf], "--surface", "--grid", str(SURFACE_RHO.size),
                         "--rate-target", repr(t)], check_surface(surf, t))
    return ops


def child_env(root: Path, threads: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["HETNET_THREADS"] = threads
    return env
