import numpy as np
import pytest

from pgthresh import io, theory
from pgthresh.cli import _parse_grid, main


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
                 "--k-grid", "2", "--q-list", "2k,n", "--trials", "1",
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
