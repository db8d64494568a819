"""Smoke tests: each demo script runs to completion against the public API."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["bound_tables", "compare_solvers",
                                  "one_step_certificate", "objective_trace",
                                  "success_rates"])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    # objective_trace and success_rates write their CSVs to the cwd
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
