import re
from pathlib import Path

import numpy as np
import pytest

from pgthresh import bench, io, operators, theory
from pgthresh.cli import _parse_grid, main

GOLDEN = Path(__file__).parent / "data"


def test_parse_grid():
    assert _parse_grid("2:40:2") == list(range(2, 41, 2))
    assert _parse_grid("1:5") == [1, 2, 3, 4, 5]
    assert _parse_grid("3,7,9") == [3, 7, 9]


def test_bounds_reproduces_published_table(capsys):
    assert main(["bounds", "--q-over-k", "2", "3", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "ratio,pgot_root,pgot_explicit,pgrot_root,pgrot_explicit,pgrotp"
    expected = {"2": (0.1729, 0.0407, 0.0407), "3": (0.1348, 0.0308, 0.0308),
                "4": (0.1106, 0.0248, 0.0248)}
    for line in lines[1:]:
        parts = line.split(",")
        pgot, pgrot, pgrotp = expected[parts[0]]
        assert float(parts[1]) == pytest.approx(pgot, abs=5e-4)
        assert float(parts[3]) == pytest.approx(pgrot, abs=5e-4)
        assert float(parts[5]) == pytest.approx(pgrotp, abs=5e-4)


def test_bounds_rejects_ratio_below_two(capsys):
    assert main(["bounds", "--q-over-k", "1"]) == 1
    assert "q >= 2k" in capsys.readouterr().err


def test_bounds_csv_schema(tmp_path):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--q-over-k", "2", "--csv", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "ratio,pgot_root,pgot_explicit,pgrot_root,pgrot_explicit,pgrotp"
    values = lines[1].split(",")
    assert float(values[1]) == pytest.approx(theory.pgot_root_bound(2, 1))


def test_solve_identity(tmp_path, capsys):
    mat = tmp_path / "a.txt"
    vec = tmp_path / "y.txt"
    out = tmp_path / "x.txt"
    io.write_matrix(mat, np.eye(4))
    io.write_vector(vec, [1.0, 0.0, 0.0, 0.0])
    code = main(["solve", "--matrix", str(mat), "--y", str(vec), "--k", "1",
                 "--truth", str(vec), "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "recovery_criterion_met" in text
    assert "iterations: 1" in text
    assert np.allclose(io.read_vector(out), [1, 0, 0, 0])


def test_solve_missing_file(tmp_path, capsys):
    code = main(["solve", "--matrix", str(tmp_path / "nope.txt"),
                 "--y", str(tmp_path / "nope2.txt"), "--k", "1"])
    assert code == 1


def _write_planted(tmp_path):
    rng = np.random.default_rng(7)
    a = rng.standard_normal((10, 14)) / np.sqrt(10)
    x_star = np.zeros(14)
    x_star[rng.choice(14, size=3, replace=False)] = rng.standard_normal(3)
    io.write_matrix(tmp_path / "a.txt", a)
    io.write_vector(tmp_path / "y.txt", a @ x_star)
    return ["--matrix", str(tmp_path / "a.txt"), "--y", str(tmp_path / "y.txt"),
            "--k", "3"]


def test_solve_prints_rot_nonconvergence_notes(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(operators, "ROT_MAX_ITERATIONS", 1)
    files = _write_planted(tmp_path)
    assert main(["solve", *files, "--algo", "pgrotp", "--max-iters", "2"]) == 0
    notes = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("note: ")]
    assert len(notes) == 2
    for p, note in enumerate(notes, start=1):
        assert re.fullmatch(
            rf"note: rot subproblem not converged at iteration {p} "
            r"\(gap=\d\.\d{3}e[+-]\d+\)", note)
    assert main(["solve", *files, "--algo", "pgrotp", "--max-iters", "0"]) == 1
    assert "max_iterations must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bench", "bounds", "solve"])
def test_unwritable_output_is_a_user_error(command, tmp_path, capsys,
                                           monkeypatch):
    # bench checks --csv before its first cell, so no instance is built
    built = []
    monkeypatch.setattr(bench, "make_trial_problem",
                        lambda *args: built.append(args))
    missing = str(tmp_path / "no such dir" / "out.txt")
    argv = {
        "bench": ["bench", "--experiment", "success", "--m", "10", "--n", "20",
                  "--k-grid", "2", "--algos", "sp", "--trials", "1",
                  "--seed", "1", "--csv", missing],
        "bounds": ["bounds", "--q-over-k", "2", "--csv", missing],
        "solve": ["solve", *_write_planted(tmp_path), "--algo", "sp",
                  "--out", missing],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no such dir" in err
    assert built == []
    assert not (tmp_path / "no such dir").exists()


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_bench_non_finite_sigma_is_a_user_error(sigma, tmp_path, capsys,
                                                monkeypatch):
    built = []
    monkeypatch.setattr(bench, "make_trial_problem",
                        lambda *args: built.append(args))
    out = tmp_path / "s.csv"
    assert main(["bench", "--experiment", "success", "--m", "10", "--n", "20",
                 "--k-grid", "2", "--algos", "sp", "--trials", "1",
                 "--sigma", sigma, "--seed", "1", "--csv", str(out)]) == 1
    assert "sigma" in capsys.readouterr().err
    assert built == []
    assert not out.exists()


def test_solve_infinite_lambda_is_a_user_error(tmp_path, capsys):
    files = _write_planted(tmp_path)
    assert main(["solve", *files, "--lambda", "inf"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "lam" in err


def _bench_rows(tmp_path, *args):
    out = tmp_path / "out.csv"
    assert main(["bench", "--m", "20", "--n", "30", "--seed", "5", *args,
                 "--csv", str(out)]) == 0
    return out.read_text().splitlines()[1:]


def test_bench_success_runs_a_repeated_cell_once(tmp_path):
    rows = _bench_rows(tmp_path, "--experiment", "success", "--k-grid", "2,2",
                       "--algos", "sp,sp", "--trials", "2")
    assert [row.split(",")[:5] for row in rows] == [["20", "30", "2", "4", "sp"]]


def test_bench_iters_runs_each_resolved_q_once(tmp_path):
    # 3k and n both resolve to q = 30
    rows = _bench_rows(tmp_path, "--experiment", "iters", "--k-grid", "10",
                       "--q-list", "2k,3k,n", "--algos", "sp", "--trials", "2")
    assert [row.split(",")[3] for row in rows] == ["20", "30"]


def test_bench_trace_runs_each_resolved_q_once(tmp_path):
    rows = _bench_rows(tmp_path, "--experiment", "trace", "--k-grid", "10",
                       "--q-list", "2k,3k,n", "--trace-iters", "3")
    keys = [(int(row.split(",")[2]), int(row.split(",")[0])) for row in rows]
    assert keys == sorted(set(keys))
    assert {q for q, _ in keys} == {20, 30}


@pytest.mark.parametrize("existing", [False, True])
def test_bench_failing_after_the_csv_check_leaves_no_new_file(existing,
                                                              tmp_path, capsys):
    # the first pgot subproblem exceeds the exhaustive limit, after the
    # --csv check: a file the check created is gone, an existing one intact
    out = tmp_path / "s.csv"
    if existing:
        out.write_text("kept\n")
    code = main(["bench", "--experiment", "success", "--m", "30", "--n", "80",
                 "--k-grid", "20", "--q-list", "60", "--algos", "pgot",
                 "--trials", "1", "--seed", "1", "--csv", str(out)])
    assert code == 1
    assert "too large" in capsys.readouterr().err
    assert out.exists() == existing
    if existing:
        assert out.read_text() == "kept\n"


def test_solve_pgot_exhaustive_guard(tmp_path, capsys):
    rng = np.random.default_rng(0)
    mat = tmp_path / "a.txt"
    vec = tmp_path / "y.txt"
    io.write_matrix(mat, rng.standard_normal((30, 80)))
    io.write_vector(vec, rng.standard_normal(30))
    code = main(["solve", "--matrix", str(mat), "--y", str(vec), "--k", "20",
                 "--q", "60", "--algo", "pgot"])
    assert code == 1
    assert "too large" in capsys.readouterr().err


def test_bench_success_row_count_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    args = ["bench", "--experiment", "success", "--m", "20", "--n", "40",
            "--k-grid", "2:6:2", "--algos", "omp,sp", "--trials", "3",
            "--seed", "7"]
    assert main(args + ["--csv", str(out1)]) == 0
    assert main(args + ["--csv", str(out2), "--threads", "4"]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == "m,n,k,q,algo,sigma,success,trials,rate"
    assert len(lines) == 1 + 3 * 2  # 3 k-values x 2 algorithms


def test_bench_trace_csv(tmp_path):
    out = tmp_path / "t.csv"
    code = main(["bench", "--experiment", "trace", "--m", "20", "--n", "40",
                 "--k-grid", "2", "--q-list", "2k,n",
                 "--seed", "3", "--trace-iters", "5", "--csv", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "iter,algo,q,objective"
    qs = {line.split(",")[2] for line in lines[1:]}
    assert qs == {"4", "40"}


def test_bench_trace_rejects_other_algorithms_and_k(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = main(["bench", "--experiment", "trace", "--m", "20", "--n", "40",
                 "--k-grid", "2,4", "--algos", "omp", "--seed", "3",
                 "--csv", str(out)])
    assert code == 1
    assert "pgrotp on one k" in capsys.readouterr().err
    assert not out.exists()


def test_bench_rejects_a_negative_seed_by_name(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = main(["bench", "--experiment", "success", "--m", "20", "--n", "40",
                 "--k-grid", "2", "--algos", "sp", "--trials", "1",
                 "--seed", "-1", "--csv", str(out)])
    assert code == 1
    assert "seed=-1 must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("iterations", ["0", "-3"])
def test_bench_trace_rejects_nonpositive_trace_iters(iterations, tmp_path,
                                                     capsys):
    # the message names the setting the user gave, not the solver's own
    out = tmp_path / "t.csv"
    code = main(["bench", "--experiment", "trace", "--m", "20", "--n", "40",
                 "--k-grid", "2", "--seed", "3", "--trace-iters", iterations,
                 "--csv", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"trace_iterations={iterations} must be positive" in err
    assert "max_iterations" not in err
    assert not out.exists()


@pytest.mark.parametrize("experiment, flag, value", [
    ("trace", "--trials", "7"),  # the trace runs trial 0 only
    ("success", "--trace-iters", "5"),
    ("iters", "--trace-iters", "5"),
])
def test_bench_rejects_flags_the_experiment_ignores(experiment, flag, value,
                                                    tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["bench", "--experiment", experiment, "--m", "20", "--n", "40",
                 "--k-grid", "2", "--seed", "3", flag, value,
                 "--csv", str(out)])
    assert code == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("m, k_grid, q_list, message", [
    pytest.param("20", "2,0", "2k", "k=0 ", id="2,0-2k-k=0 "),
    pytest.param("20", "2", "2k,foo", "q token 'foo'",
                 id="2-2k,foo-q token 'foo'"),
    pytest.param("0", "2", "2k", "m=0 ", id="m=0"),
    pytest.param("-3", "2", "2k", "m=-3 ", id="m=-3"),
])
def test_bench_rejects_bad_grid_before_any_cell(m, k_grid, q_list, message,
                                                tmp_path, capsys, monkeypatch):
    built = []
    make = bench.make_trial_problem

    def recording_make(*args):
        built.append(args)
        return make(*args)

    monkeypatch.setattr(bench, "make_trial_problem", recording_make)
    out = tmp_path / "s.csv"
    code = main(["bench", "--experiment", "success", "--m", m, "--n", "40",
                 "--k-grid", k_grid, "--q-list", q_list, "--algos", "sp",
                 "--trials", "2", "--seed", "3", "--csv", str(out)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert built == []


def test_bench_unknown_algorithm(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = main(["bench", "--experiment", "success", "--m", "10", "--n", "20",
                 "--k-grid", "2", "--algos", "sp,pgrtop", "--seed", "1",
                 "--csv", str(out)])
    assert code == 1
    assert "unknown algorithm 'pgrtop'" in capsys.readouterr().err
    assert not out.exists()


def test_bench_requires_seed(capsys):
    code = main(["bench", "--experiment", "success", "--m", "10", "--n", "20",
                 "--k-grid", "2", "--csv", "x.csv"])
    assert code == 1


def test_bench_invalid_grid(capsys, tmp_path):
    code = main(["bench", "--experiment", "success", "--m", "10", "--n", "20",
                 "--k-grid", "25", "--seed", "1",
                 "--csv", str(tmp_path / "x.csv")])
    assert code == 1


def test_unknown_flag_rejected(capsys):
    assert main(["bounds", "--q-over-k", "2", "--bogus"]) == 1


@pytest.mark.parametrize("experiment", ["success", "iters"])
def test_bench_csv_is_byte_identical_to_the_golden_file(experiment, tmp_path):
    # every ROT-based id and the three baselines on a grid whose rates
    # vary; a change that moves these bytes says why in CHANGES.md and
    # rewrites the file.  The trace CSV is left out: its 17-digit
    # objectives move with the BLAS build's rounding.
    out = tmp_path / f"{experiment}.csv"
    assert main(["bench", "--experiment", experiment, "--m", "40",
                 "--n", "80", "--k-grid", "3,9,15",
                 "--algos", "pgrot,pgrotp,rot,rotp,iht,omp,sp",
                 "--trials", "3", "--seed", "7", "--csv", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"seed7_{experiment}.csv").read_bytes()
