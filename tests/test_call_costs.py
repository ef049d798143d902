"""scripts/call_costs.py: one row per timed call, and its --repeat check."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "call_costs.py"
_spec = importlib.util.spec_from_file_location("call_costs", SCRIPT)
call_costs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(call_costs)


def test_prints_a_positive_time_for_every_call(capsys):
    assert call_costs.main(["--repeat", "1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["call", "us/call"]
    labels = [label for label, _, _ in call_costs.cases(1)]
    assert [row.rsplit(None, 1)[0] for row in rows] == labels and len(labels) == 13
    assert all(float(row.rsplit(None, 1)[1]) > 0 for row in rows)


def test_refuses_a_repeat_below_one(capsys):
    with pytest.raises(SystemExit):
        call_costs.main(["--repeat", "0"])
    assert "--repeat must be >= 1" in capsys.readouterr().err
