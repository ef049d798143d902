#!/usr/bin/env python3
"""harvnet benchmark: closed-loop workloads with checked outputs.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {figures,validate,cli} --seed N \
        --seconds S --trace {0,1}

One client runs whole rounds of its workload's operations, one at a time,
for about S seconds (at least three rounds), and checks every output
against `oracles`.  With
--trace 0 the last line of stdout is the end-to-end result; with --trace 1
untraced and traced rounds alternate, and the last line holds the per-layer
numbers from the traced rounds (see README.md).  A line before it, starting
with "perfbench:", is the full report: environment, rounds, failed
operations by name, phase times.  Exits 2 without a result when the checkout
holds no harvnet sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCENARIOS = ROOT / "scenarios"
OUT = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

# Replicates run on one thread: on a shared two-core machine two threads
# made `validate` both faster and much less repeatable (see README.md).
THREADS = "1"
SETUP_REPS = 7
# The per-operation median needs three rounds to drop a slow one.
MIN_ROUNDS = 3
# Operations run in stretches of at least this much wall time between two
# timings of the reference loop, which cost about 4 ms each.
STRETCH_S = 0.1
IMPORT_REPS = 3
SETUP_CODE = ("import harvnet; from harvnet.cli import load_scenario; "
              "load_scenario('scenarios/two-tier-baseline.json')")

PHASE_METRICS = {
    "figures": {"fig_availability_s": "availability", "fig_region_s": "region",
                "fig_rate_s": "rate"},
    "validate": {"validate_s": "validate"},
}
CLI_SPANS = {"cli.availability_s": "cli.cmd_availability", "cli.region_s": "cli.cmd_region",
             "cli.coverage_s": "cli.cmd_coverage", "cli.rate_s": "cli.rate",
             "cli.rate_surface_s": "cli.rate_surface", "cli.validate_s": "cli.cmd_validate",
             "cli.simulate_s": "cli.cmd_simulate"}
IMPORTS = {"import.harvnet_s": "harvnet", "import.scipy_integrate_s": "scipy.integrate",
           "import.scipy_special_s": "scipy.special"}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["figures", "validate", "cli"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _import_program():
    """Import harvnet from this checkout's src/, never from an installed copy."""
    pkg = ROOT / "src" / "harvnet"
    if not (pkg / "__init__.py").is_file() or not SCENARIOS.is_dir():
        _fail(f"no harvnet sources under {ROOT}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import importlib

    import harvnet
    for layer in LAYERS:
        importlib.import_module(f"harvnet.{layer}")
    if Path(harvnet.__file__).resolve().parent != pkg.resolve():
        _fail(f"imported harvnet from {harvnet.__file__}, not {pkg}")
    return harvnet


def _timed_child(cmd, env) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True, timeout=120)
    return time.perf_counter() - start


def at_ref_speed(wall_s: float, loops: list[float]) -> float:
    """Wall time scaled to the reference host, from the loop timed around it."""
    return wall_s * hostspeed.REF_S / statistics.fmean(loops)


def measure_setup(env) -> tuple[list[float], list[float]]:
    """Fresh interpreters importing harvnet and loading a scenario.

    Returns the wall times and the same times at reference speed.
    """
    cmd = [sys.executable, "-c", SETUP_CODE]
    _timed_child(cmd, env)          # writes bytecode caches on a fresh checkout
    wall, ref = [], []
    loop = hostspeed.loop_s()
    for _ in range(SETUP_REPS):
        wall.append(_timed_child(cmd, env))
        after = hostspeed.loop_s()
        ref.append(at_ref_speed(wall[-1], [loop, after]))
        loop = after
    return wall, ref


def measure_imports(env) -> dict:
    """Cumulative import times from `python -X importtime`, median of a few runs."""
    samples: dict[str, list[float]] = {k: [] for k in IMPORTS}
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import harvnet"],
                              cwd=ROOT, env=env, check=True, capture_output=True,
                              text=True, timeout=120)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        for key, module in IMPORTS.items():
            samples[key].append(cumulative.get(module, 0.0))
    return {k: statistics.median(v) for k, v in samples.items()}


class Round:
    """One round: each operation's busy time, failures and wrong outputs.

    `wall` holds each operation's wall time and `times` the same time at
    reference speed.  The reference loop is timed before the first
    operation and after every stretch of STRETCH_S, and, if `sample_inside`,
    every Sampler.PERIOD_S while an operation runs; each operation is scaled
    by the mean of the timings around and inside it.  Traced rounds do not
    sample inside, so that no span holds the loop's time.
    """

    def __init__(self, ops, sample_inside: bool):
        self.phases = [op.phase for op in ops]
        self.wall: list[float] = []
        self.times: list[float] = []
        self.loops: list[float] = [hostspeed.loop_s()]
        self.failed: list[str] = []
        self.wrong: list[str] = []
        stretch: list[tuple[float, list[float]]] = []
        for i, op in enumerate(ops):
            stretch.append(self._run(op, sample_inside))
            if sum(wall for wall, _ in stretch) >= STRETCH_S or i == len(ops) - 1:
                self.loops.append(hostspeed.loop_s())
                self.times += [at_ref_speed(wall, self.loops[-2:] + inside)
                               for wall, inside in stretch]
                stretch = []

    def _run(self, op, sample_inside: bool) -> tuple[float, list[float]]:
        """Runs and checks one operation; returns its wall time and inner loop timings."""
        sampler = hostspeed.Sampler(enabled=sample_inside)
        raised = False
        t0 = time.perf_counter()
        try:
            with sampler:
                out = op.run()
        except Exception as exc:  # an operation that raises counts as failed
            self.failed.append(f"{op.name}: {type(exc).__name__}: {exc}")
            raised = True
        self.wall.append(time.perf_counter() - t0 - sampler.spent)
        if not raised:
            try:
                op.check(out)
            except workloads.Mismatch as exc:
                if op.fault:
                    self.failed.append(f"{op.fault} {op.name}: {exc}")
                else:
                    self.wrong.append(str(exc))
        return self.wall[-1], sampler.samples

    @property
    def attempted(self) -> int:
        return len(self.wall)


def estimate(rounds: list[Round], phase: str | None = None, wall: bool = False) -> float:
    """Time of one round: the sum over its operations of each one's median.

    Every round runs the same list of operations, so operation i of one
    round is comparable with operation i of the next.  Taking the median per
    operation before summing discards a slow stretch of the machine that
    hits one round, where the median of whole-round sums with three rounds
    would not.  Times are at reference speed unless `wall` is set.
    """
    times = np.median(np.array([r.wall if wall else r.times for r in rounds]), axis=0)
    keep = [phase is None or p == phase for p in rounds[0].phases]
    return float(times[keep].sum())


def _environment(cpu: int) -> dict:
    import scipy
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "pinned_cpu": cpu,
            "HETNET_THREADS": THREADS, "machine": platform.machine()}


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _merge(summaries) -> dict:
    spans: dict = {}
    counters: dict = {}
    for s in summaries:
        for name, row in s["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        for key, value in s["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
    return {"spans": spans, "counters": counters}


def layer_metrics(summary, traced_rounds: int, imports: dict) -> dict:
    """Per-layer numbers per traced round."""
    spans, counters = summary["spans"], summary["counters"]

    def span(name, key):
        return spans.get(name, {}).get(key, 0.0) / traced_rounds

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    out = dict(imports)
    for name in ("model.check_availability_vector", "model.validate",
                 "analytic.solve_availability", "analytic.load_ratio", "coverage.hyper_f",
                 "coverage.rate_ccdf", "coverage.coverage_prob", "region.boundary",
                 "markov.policy_availability", "simulate.sample_network"):
        out[f"{name}.calls"] = span(name, "calls")
    for name in ("analytic.solve_availability", "coverage.hyper_f", "coverage.rate_ccdf",
                 "region.boundary", "region.sweep_boundary", "markov.policy_availability",
                 "markov.simulate_on_off", "simulate.coverage_mc", "simulate.association_mc",
                 "simulate.rate_mc", "simulate.service_area_mc", "cli.load_scenario"):
        out[f"{name}.self_s"] = span(name, "self_s")
    out["analytic.iterations"] = counters.get("analytic.iterations", 0.0) / traced_rounds
    links = counters.get("simulate.links", 0.0) / traced_rounds
    mc_time = sum(span(f"simulate.{n}", "total_s")
                  for n in ("coverage_mc", "association_mc", "rate_mc", "service_area_mc"))
    out["simulate.links"] = links
    out["simulate.links_per_s"] = ratio(links, mc_time)
    out["simulate.replicate_yield"] = ratio(counters.get("simulate.samples", 0.0),
                                            spans.get("simulate.sample_network", {})
                                            .get("calls", 0))
    out["markov.ctmc_cycles_per_s"] = ratio(counters.get("markov.cycles", 0.0) / traced_rounds,
                                            span("markov.simulate_on_off", "total_s"))
    for metric, name in CLI_SPANS.items():
        out[metric] = span(name, "total_s")
    out["trace.spans"] = sum(row["calls"] for row in spans.values()) / traced_rounds
    return out


def phase_metrics(workload: str, rounds: list[Round], stats: dict) -> dict:
    """The workload's own end-to-end breakdown, from untraced rounds."""
    out = {m: 0.0 for w in PHASE_METRICS.values() for m in w}
    out.update(coverage_mc_precision_per_s=0.0, cli_batch_s=0.0)
    for metric, phase in PHASE_METRICS.get(workload, {}).items():
        out[metric] = estimate(rounds, phase)
    if workload == "validate":
        out["coverage_mc_precision_per_s"] = 1.0 / (stats["coverage_ci"] ** 2
                                                    * estimate(rounds, "simulate"))
    if workload == "cli":
        out["cli_batch_s"] = estimate(rounds)
    return out


def pin_to_one_cpu() -> int:
    """Run this process and every child on one CPU; returns that CPU.

    The reference loop only tracks the speed of the CPU it runs on, and on a
    shared host each CPU turns fast or slow on its own, so the program and
    the loop must share one.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main() -> int:
    args = _args()
    cpu = pin_to_one_cpu()
    hn = _import_program()
    env = workloads.child_env(ROOT, THREADS)
    os.environ["HETNET_THREADS"] = THREADS
    oracles.self_check()
    setup_wall, setup = measure_setup(env)
    imports = measure_imports(env) if args.trace else {}

    stats: dict = {}
    launcher = workloads.Launcher(ROOT, env)
    span_dir = OUT / f"spans-{args.workload}-seed{args.seed}"
    if args.workload == "figures":
        def build(r):
            return workloads.figures_round(hn, SCENARIOS, np.random.default_rng([args.seed, r]))
    elif args.workload == "validate":
        def build(r):
            return workloads.validate_round(hn.cli, SCENARIOS, stats)
    else:
        def build(r):
            return workloads.cli_round(launcher, SCENARIOS,
                                       np.random.default_rng([args.seed, r]))

    in_process = args.workload != "cli"
    tracer = Tracer()
    plain: list[Round] = []
    traced: list[Round] = []
    start = time.perf_counter()
    step: list[float] = []
    r = 0
    while True:
        t0 = time.perf_counter()
        plain.append(Round(build(r), sample_inside=in_process))
        r += 1
        if args.trace:
            ops = build(r)
            r += 1
            if args.workload == "cli":
                span_dir.mkdir(parents=True, exist_ok=True)
                launcher.span_dir = span_dir
                traced.append(Round(ops, sample_inside=False))
                launcher.span_dir = None
            else:
                with tracer:
                    traced.append(Round(ops, sample_inside=False))
        step.append(time.perf_counter() - t0)
        if (len(plain) >= MIN_ROUNDS
                and time.perf_counter() - start + statistics.median(step) > args.seconds):
            break

    rounds = plain + traced
    failures: dict[str, int] = {}
    for rnd in rounds:
        for name in rnd.failed:
            failures[name] = failures.get(name, 0) + 1
    wrong = [w for rnd in rounds for w in rnd.wrong]
    round_s = estimate(plain)
    e2e = {"setup_s": statistics.median(setup), "peak_rss_mb": _peak_rss_mb(args.workload),
           "round_ref_s": round_s}
    loops = [t for rnd in plain for t in rnd.loops]
    host = {"round_wall_s": estimate(plain, wall=True),
            "setup_wall_s": statistics.median(setup_wall),
            "host.ref_loop_s": statistics.median(loops)}
    phases = phase_metrics(args.workload, plain, stats)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": _environment(cpu), "rounds": len(plain),
              "traced_rounds": len(traced),
              "ops_per_round": plain[0].attempted,
              "failures": failures, "wrong": wrong[:20],
              "round_busy_s": [sum(rnd.times) for rnd in plain],
              "round_wall_busy_s": [sum(rnd.wall) for rnd in plain],
              "setup_samples_s": setup, "setup_wall_samples_s": setup_wall,
              "end_to_end": e2e, "host": host, "phases": phases}
    if args.trace:
        if args.workload == "cli":
            summary = _merge(launcher.summaries)
        else:
            summary = tracer.summary()
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        overhead = estimate(traced) - round_s
        metrics = layer_metrics(summary, len(traced), imports)
        metrics.update(phases)
        metrics.update(host)
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_share"] = overhead / round_s
        report["spans"] = summary["spans"]
    else:
        metrics = e2e
    report["metrics"] = metrics
    report["op_times_s"] = [rnd.times for rnd in plain]
    report["op_wall_s"] = [rnd.wall for rnd in plain]
    report["ref_loop_s"] = [rnd.loops for rnd in plain]
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print("perfbench: " + json.dumps({k: v for k, v in report.items()
                                      if k not in ("spans", "op_times_s", "op_wall_s",
                                                   "ref_loop_s")}))
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = listed["per_layer" if args.trace else "end_to_end"]
    result = {"correct": not wrong,
              "attempted": sum(rnd.attempted for rnd in rounds),
              "failed": sum(len(rnd.failed) for rnd in rounds),
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in listed}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
