"""Smoke tests: each demo script runs to completion against the public API.

``success_rates.py`` is left out: its 2 x 11 x 3 cells of 10 trials at
m=100, n=200 take over a minute, and every call it makes
(``success_rate_experiment``, ``success_rows``, ``write_csv``) is covered
by tests/test_bench.py.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["bound_tables", "compare_solvers",
                                  "one_step_certificate", "objective_trace"])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # objective_trace writes its CSV to the cwd
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
