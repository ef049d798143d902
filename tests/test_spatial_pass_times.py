"""scripts/spatial_pass_times.py: one row per window side, as `simulate` prints it."""

import contextlib
import csv
import importlib.util
import io
from pathlib import Path

import pytest

from harvnet.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "spatial_pass_times.py"
_spec = importlib.util.spec_from_file_location("spatial_pass_times", SCRIPT)
spatial_pass_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spatial_pass_times)


def test_prints_each_sides_time_and_estimate(capsys):
    assert spatial_pass_times.main(["--sides", "3", "4.5"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [row["window_side"] for row in rows] == ["3", "4.5"]
    assert all(float(row["seconds"]) > 0 for row in rows)
    for row in rows:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["simulate", str(ROOT / "scenarios" / "two-tier-baseline.json"),
                  "--estimator", "coverage", "--replicates", "4",
                  "--window", row["window_side"]])
        [want] = csv.DictReader(io.StringIO(out.getvalue()))
        assert (row["mean"], row["ci_halfwidth_99"]) == (want["mean"],
                                                         want["ci_halfwidth_99"])


def test_refuses_a_repeat_below_one(capsys):
    with pytest.raises(SystemExit):
        spatial_pass_times.main(["--repeat", "0"])
    assert "--repeat must be >= 1" in capsys.readouterr().err
