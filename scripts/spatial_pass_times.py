"""Time whole-process `harvnet simulate` runs over window sides.

Each row runs

    python -m harvnet.cli simulate scenarios/two-tier-baseline.json \
        --estimator ESTIMATOR --replicates 4 --window SIDE

in a fresh process with HETNET_THREADS=1, so interpreter and numpy
start-up count, and prints the least wall time over N runs (min of N)
with the estimate the run printed.  The spatial pass does nearly all of
the work past window side 10.  `--src DIR` times the harvnet package
under DIR instead of this checkout's `src`, so two checkouts can be
compared on one host.  Usage:

    python scripts/spatial_pass_times.py [--sides 10 20 40 80] [--repeat N]
        [--estimator coverage|rate] [--src DIR]
"""

import argparse
import csv
import io
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(src: Path, side: float, estimator: str) -> tuple[float, dict]:
    """Wall time and printed row of one fresh `simulate` process."""
    argv = [sys.executable, "-m", "harvnet.cli", "simulate",
            str(ROOT / "scenarios" / "two-tier-baseline.json"),
            "--estimator", estimator, "--replicates", "4", "--window", str(side)]
    env = {**os.environ, "PYTHONPATH": str(src), "HETNET_THREADS": "1"}
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
    elapsed = time.perf_counter() - start
    return elapsed, next(csv.DictReader(io.StringIO(proc.stdout)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sides", type=float, nargs="+", default=[10, 20, 40, 80])
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--estimator", choices=["coverage", "rate"], default="coverage")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(["window_side", "seconds", "mean", "ci_halfwidth_99"])
    for side in args.sides:
        runs = [run(args.src, side, args.estimator) for _ in range(args.repeat)]
        seconds, row = min(runs, key=lambda r: r[0])
        out.writerow([f"{side:g}", f"{seconds:.3f}", row["mean"], row["ci_halfwidth_99"]])
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
