import numpy as np
import pytest

from pgthresh import (RicTriple, bench, brute_force_ric, ceil_ratio,
                      contraction_constants, pgot_root_bound)
from pgthresh.bench import (CellResult, ExperimentConfig, gen_gaussian_matrix,
                            gen_sparse_vector, iteration_count_experiment,
                            objective_trace_experiment, resolve_q,
                            success_rate_experiment, write_csv)


def test_gen_matrix_deterministic():
    a = gen_gaussian_matrix(20, 30, seed=5)
    b = gen_gaussian_matrix(20, 30, seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, gen_gaussian_matrix(20, 30, seed=6))


def test_gen_matrix_raw_mean():
    a = gen_gaussian_matrix(200, 200, seed=1, scaling="raw")
    assert -0.05 < a.mean() < 0.05


def test_gen_matrix_scaled_column_norms():
    a = gen_gaussian_matrix(400, 100, seed=2)
    norms = np.linalg.norm(a, axis=0)
    assert np.all(norms > 0.85) and np.all(norms < 1.15)


def test_gen_sparse_vector_properties():
    for seed in range(10):
        x = gen_sparse_vector(25, 4, seed=seed)
        assert np.count_nonzero(x) == 4
    assert np.array_equal(gen_sparse_vector(25, 4, 3), gen_sparse_vector(25, 4, 3))


def test_gen_sparse_vector_uniform_support():
    counts = np.zeros(10)
    for seed in range(10_000):
        counts[np.flatnonzero(gen_sparse_vector(10, 1, seed))] += 1
    freq = counts / 10_000
    assert np.all(np.abs(freq - 0.1) < 0.02)


def test_resolve_q_tokens():
    assert resolve_q("2k", 5, 100) == 10
    assert resolve_q("k", 5, 100) == 5
    assert resolve_q("n", 5, 100) == 100
    assert resolve_q(12, 5, 100) == 12
    assert resolve_q("3k", 50, 100) == 100  # clipped to n
    assert resolve_q(2, 5, 100) == 5  # raised to k


def test_write_csv_roundtrip(tmp_path):
    path = tmp_path / "out.csv"
    rows = [(1, "pgrotp", 10, 0.1234567890123456789), (2, "sp", 10, 1.0 / 3.0)]
    write_csv(rows, path, "iter,algo,q,objective")
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,algo,q,objective"
    assert len(lines) == 3
    for line, row in zip(lines[1:], rows):
        parts = line.split(",")
        assert float(parts[3]) == row[3]  # 17 significant digits round-trip


def test_write_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], path, "a,b")
    assert path.read_text() == "a,b\n"


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(m=10, n=20, k_grid=())
    for m, n in [(0, 20), (-3, 20), (10, 0)]:
        with pytest.raises(ValueError, match=f"m={m} and n={n} "):
            ExperimentConfig(m=m, n=n, k_grid=(2,))
    with pytest.raises(ValueError):
        ExperimentConfig(m=10, n=20, k_grid=(30,))
    with pytest.raises(ValueError, match="k=0 "):
        ExperimentConfig(m=10, n=20, k_grid=(2, 0))
    with pytest.raises(ValueError, match="q token 'foo'"):
        ExperimentConfig(m=10, n=20, k_grid=(2,), q_list=("2k", "foo"))
    with pytest.raises(ValueError):
        ExperimentConfig(m=10, n=20, k_grid=(2,), sigma=-1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(m=10, n=20, k_grid=(2,), scaling="weird")
    for iterations in (0, -3):
        with pytest.raises(ValueError,
                           match=f"trace_iterations={iterations} "):
            ExperimentConfig(m=10, n=20, k_grid=(2,),
                             trace_iterations=iterations)


@pytest.mark.parametrize("field, value, message", [
    ("k_grid", (3.0,), "k=3.0 must be an integer"),
    ("k_grid", (2, True), "k=True must be an integer"),
    ("trials", 1.5, "trials=1.5 must be an integer"),
    ("m", 10.0, "m=10.0 must be an integer"),
    ("seed", 7.0, "seed=7.0 must be an integer"),
    ("seed", -1, "seed=-1 must be nonnegative"),
    ("q_list", (True,), "bad q token True"),
])
def test_experiment_config_rejects_non_integers_and_a_negative_seed(
        field, value, message):
    # checked here, not inside the first cell
    kwargs = dict(m=10, n=20, k_grid=(2,))
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"^{message}"):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize("call, name", [
    (lambda value: brute_force_ric(np.eye(4), value), "s"),
    (lambda value: gen_sparse_vector(10, value, 1), "k"),
    (lambda value: gen_sparse_vector(value, 1, 1), "n"),
    (lambda value: gen_gaussian_matrix(value, 4, 1), "m"),
    (lambda value: gen_gaussian_matrix(4, value, 1), "n"),
    (lambda value: ceil_ratio(value, 1), "q"),
    (lambda value: ceil_ratio(4, value), "k"),
    (lambda value: pgot_root_bound(value, 1), "q"),
    (lambda value: contraction_constants(RicTriple(0.1, 0.1, 0.1), value, 1,
                                         "pgot"), "q"),
], ids=["brute_force_ric", "gen_sparse_vector", "gen_sparse_vector-n",
        "gen_gaussian_matrix-m", "gen_gaussian_matrix-n", "ceil_ratio-q",
        "ceil_ratio-k", "pgot_root_bound", "contraction_constants"])
@pytest.mark.parametrize("value", [2.0, True])
def test_public_entry_points_reject_a_non_integer_size(call, name, value):
    # an integral float or a bool would fail later with a bare TypeError,
    # or pass for an integer: pgot_root_bound(2.5, 1) gave the bound for q = 3
    with pytest.raises(ValueError, match=f"^{name}={value!r} must be an integer"):
        call(value)


def test_experiment_config_rejects_unknown_algorithm():
    with pytest.raises(ValueError, match="'pgrtop'"):
        ExperimentConfig(m=10, n=20, k_grid=(2,), algorithms=("sp", "pgrtop"))


def _small_cfg(**kw):
    defaults = dict(m=20, n=40, k_grid=(2, 4), q_list=("2k",),
                    algorithms=("pgrotp", "omp"), trials=3, seed=11)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_success_experiment_bookkeeping():
    results = success_rate_experiment(_small_cfg())
    assert len(results) == 4  # 2 k-values x 2 algorithms
    for r in results:
        assert 0 <= r.success_count <= r.trials == 3
        assert 0.0 <= r.rate <= 1.0
        assert r.mean_iterations <= 50


def test_success_experiment_deterministic_across_threads():
    serial = success_rate_experiment(_small_cfg(threads=1))
    parallel = success_rate_experiment(_small_cfg(threads=4))
    assert serial == parallel


def test_iteration_experiment_rejects_noise():
    with pytest.raises(ValueError):
        iteration_count_experiment(_small_cfg(sigma=0.001))


def test_iteration_experiment_low_sparsity_fast():
    cfg = ExperimentConfig(m=100, n=200, k_grid=(1,), q_list=("2k",),
                           algorithms=("pgrotp",), trials=5, seed=3)
    (result,) = iteration_count_experiment(cfg)
    assert result.mean_iterations <= 5


def test_trace_experiment_identity_like_instance():
    # very overdetermined cell: objective collapses almost immediately
    cfg = ExperimentConfig(m=30, n=40, k_grid=(2,), q_list=("2k", "n"),
                           algorithms=("pgrotp",), trials=1, seed=4,
                           trace_iterations=10)
    rows = objective_trace_experiment(cfg)
    labels = {(r[1], r[2]) for r in rows}
    assert labels == {("pgrotp", 4), ("pgrotp", 40)}
    for q in (4, 40):
        trace = [r[3] for r in rows if r[2] == q]
        assert trace[0] > trace[-1]
        assert trace[-1] <= 1e-3


def test_trace_experiment_rejects_what_it_would_ignore():
    for k_grid, algos in (((2, 4), ("pgrotp",)), ((2,), ("omp",)),
                          ((2,), ("pgrotp", "sp"))):
        cfg = _small_cfg(k_grid=k_grid, algorithms=algos)
        with pytest.raises(ValueError, match="pgrotp on one k"):
            objective_trace_experiment(cfg)


def test_cell_result_rate():
    r = CellResult(1, 2, 3, 4, "sp", 0.0, 3, 4, 1.0)
    assert r.rate == 0.75


def test_trial_problems_reproducible_and_cell_independent():
    cfg = _small_cfg()
    p1 = bench.make_trial_problem(cfg, 2, 4, "pgrotp", 0)
    p2 = bench.make_trial_problem(cfg, 2, 4, "pgrotp", 0)
    assert np.array_equal(p1.a, p2.a) and np.array_equal(p1.y, p2.y)
    p3 = bench.make_trial_problem(cfg, 2, 4, "pgrotp", 1)
    assert not np.array_equal(p1.a, p3.a)
    p4 = bench.make_trial_problem(cfg, 4, 8, "pgrotp", 0)
    assert not np.array_equal(p1.a, p4.a)
