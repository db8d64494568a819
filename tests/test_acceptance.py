"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live).  The desk-scale recovery tests are the slow part; everything else
completes in seconds.
"""

import itertools

import numpy as np
import pytest

from pgthresh import (RicTriple, contraction_constants,
                      exact_optimal_threshold, pgot_explicit_bound,
                      pgot_root_bound, pgrot_root_bound,
                      project_capped_simplex, solve, solve_rot, table1,
                      verify_one_step_bound)
from pgthresh.bench import ExperimentConfig, success_rate_experiment
from pgthresh.cli import main
from pgthresh.theory import brute_force_ric, pgot_cubic, pgrot_cubic


def _report(num, label, ok):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"acceptance criterion {num} failed: {label}"


def test_acceptance_01_bound_table_regression():
    expected = {
        ("pgot", "q=2k"): 0.1729, ("pgot", "2k<q<=3k"): 0.1348,
        ("pgot", "3k<q<=4k"): 0.1106,
        ("pgrot", "q=2k"): 0.0407, ("pgrot", "2k<q<=3k"): 0.0308,
        ("pgrot", "3k<q<=4k"): 0.0248,
        ("pgrotp", "q=2k"): 0.0407, ("pgrotp", "2k<q<=3k"): 0.0308,
        ("pgrotp", "3k<q<=4k"): 0.0248,
    }
    table = table1()
    ok = all(abs(table.entries[key] - value) <= 5e-4
             for key, value in expected.items())
    _report(1, "RIC threshold table matches published values to 5e-4", ok)


def test_acceptance_02_explicit_bound_regression():
    targets = {2: 0.1517, 3: 0.1211, 4: 0.1009}
    ok = all(abs(pgot_explicit_bound(q, 1) - v) <= 5e-4
             for q, v in targets.items())
    _report(2, "closed-form sufficient bounds match published values", ok)


def test_acceptance_03_root_consistency():
    ok = True
    for q in (2, 3, 4):
        ok &= abs(pgot_cubic(pgot_root_bound(q, 1), q, 1)) <= 1e-9
        ok &= abs(pgrot_cubic(pgrot_root_bound(q, 1), q, 1)) <= 1e-9
        root = pgot_root_bound(q, 1)
        cc = contraction_constants(RicTriple(root, root, root), q, 1, "pgot")
        ok &= abs(cc.rho - 1.0) <= 1e-3
    _report(3, "cubic roots are exact and sit at the rho = 1 boundary", ok)


def test_acceptance_04_relaxation_dominance():
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(100):
        m = int(rng.integers(6, 9))
        n = int(rng.integers(10, 13))
        a = rng.standard_normal((m, n)) / np.sqrt(m)
        y = rng.standard_normal(m)
        u = rng.standard_normal(n)
        sol = solve_rot(a, y, u, 2)
        _, x = exact_optimal_threshold(a, y, u, 2)
        binary_obj = float(np.linalg.norm(y - a @ x) ** 2)
        ok &= sol.objective <= binary_obj + 1e-6
    _report(4, "relaxed objective never exceeds binary optimum + 1e-6 "
               "on 100 instances", ok)


def _projection_oracle_batch(v, k):
    # all 3^n clamp patterns (0 = at zero, 1 = at one, 2 = free), vectorized
    n = v.size
    patterns = np.array(list(itertools.product((0, 1, 2), repeat=n)))
    free = patterns == 2
    nfree = free.sum(axis=1)
    fixed = (patterns == 1).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        theta = ((free * v).sum(axis=1) + fixed - k) / nfree
    theta = np.where(nfree > 0, theta, 0.0)
    w = np.where(patterns == 1, 1.0, 0.0)
    w = np.where(free, v - theta[:, None], w)
    feasible = ((np.abs(w.sum(axis=1) - k) <= 1e-9)
                & np.all(w >= -1e-12, axis=1) & np.all(w <= 1 + 1e-12, axis=1))
    dists = np.where(feasible, np.linalg.norm(w - v, axis=1), np.inf)
    return w[np.argmin(dists)]


def test_acceptance_05_projection_oracle_equivalence():
    rng = np.random.default_rng(55)
    ok = True
    for _ in range(500):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(0, n + 1))
        v = rng.standard_normal(n) * float(rng.choice([0.3, 1.0, 4.0]))
        w = project_capped_simplex(v, k)
        oracle = _projection_oracle_batch(v, k)
        ok &= bool(np.max(np.abs(w - oracle)) <= 1e-8)
    _report(5, "capped-simplex projection matches exhaustive KKT oracle "
               "on 500 instances", ok)


def test_acceptance_06_one_step_error_bound():
    rng = np.random.default_rng(66)
    checked = 0
    ok = True
    while checked < 200:
        m = int(rng.integers(6, 11))
        n = int(rng.integers(10, 13))
        k = int(rng.integers(1, 3))
        a = rng.standard_normal((m, n)) / np.sqrt(m)
        if brute_force_ric(a, 2 * k) >= 1.0:
            continue
        x_star = np.zeros(n)
        x_star[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k)
        x_p = np.zeros(n)
        x_p[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k)
        _, _, holds = verify_one_step_bound(a, x_star, x_p, 2 * k, k)
        ok &= holds
        checked += 1
    _report(6, "one-step error bound holds on 200 exhaustively "
               "analyzable instances", ok)


def test_one_step_error_bound_where_rho_is_below_one():
    # acceptance 6 draws rho of 10-208, so its bound holds whatever the step
    # does; tall Gaussian matrices (m = 1500, n = 12) give RICs small enough
    # for rho < 1, where the bound says the PGOT step contracts
    rng = np.random.default_rng(0)
    m, n, k = 1500, 12, 1
    rhos = []
    for _ in range(20):
        a = rng.standard_normal((m, n)) / np.sqrt(m)
        x_star = np.zeros(n)
        x_star[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k)
        x_p = np.zeros(n)
        x_p[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k)
        lhs, rhs, holds = verify_one_step_bound(a, x_star, x_p, 2 * k, k)
        assert holds and lhs > 0.0
        rhos.append(rhs / np.linalg.norm(x_p - x_star))
    assert sum(rho < 1.0 for rho in rhos) >= 15


K_GRID = (2, 6, 10, 14, 18, 22, 26, 30)


def _success_cfg(sigma, k_grid, algorithms):
    return ExperimentConfig(m=100, n=200, k_grid=k_grid, q_list=("2k",),
                            algorithms=algorithms, trials=20, sigma=sigma,
                            seed=20240, threads=4)


@pytest.fixture(scope="module")
def noiseless_rates():
    rows = success_rate_experiment(
        _success_cfg(0.0, K_GRID, ("pgrotp", "sp", "omp")))
    return {(algo, k): rate for _, _, k, _, algo, _, _, _, rate in rows}


def test_acceptance_07_desk_scale_recovery(noiseless_rates):
    ok = noiseless_rates[("pgrotp", 10)] >= 0.9
    for k in K_GRID:
        ok &= noiseless_rates[("pgrotp", k)] >= noiseless_rates[("sp", k)] - 0.15
        ok &= noiseless_rates[("pgrotp", k)] >= noiseless_rates[("omp", k)] - 0.15
    _report(7, "desk-scale noiseless recovery rates (pgrotp vs sp/omp)", ok)


def test_acceptance_08_noise_robustness(noiseless_rates):
    (row,) = success_rate_experiment(_success_cfg(0.001, (10,), ("pgrotp",)))
    noisy_rate = row[-1]  # the rate column
    ok = abs(noisy_rate - noiseless_rates[("pgrotp", 10)]) <= 0.10
    _report(8, "noisy success rate at k=10 within 10 points of noiseless", ok)


def test_acceptance_09_full_gradient_reduction_identity():
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(900 + seed)
        a = rng.standard_normal((15, 30)) / np.sqrt(15)
        x_star = np.zeros(30)
        x_star[rng.choice(30, size=3, replace=False)] = rng.standard_normal(3)
        from pgthresh import ProblemInstance
        problem = ProblemInstance(a, a @ x_star, k=3, q=30, truth=x_star)
        rep_a = solve(problem, "pgrotp")
        rep_b = solve(problem, "rotp")
        ok &= rep_a.iterations == rep_b.iterations
        ok &= bool(np.array_equal(rep_a.final_x, rep_b.final_x))
        ok &= rep_a.trace == rep_b.trace
    _report(9, "pgrotp with q=n is bit-identical to rotp on 20 instances", ok)


def test_acceptance_10_bench_determinism(tmp_path):
    args = ["bench", "--experiment", "success", "--m", "30", "--n", "60",
            "--k-grid", "2:6:2", "--algos", "pgrotp,omp", "--trials", "4",
            "--seed", "99"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code1 = main(args + ["--csv", str(out1), "--threads", "1"])
    code2 = main(args + ["--csv", str(out2), "--threads", "8"])
    ok = code1 == 0 and code2 == 0 and out1.read_bytes() == out2.read_bytes()
    _report(10, "bench CSV is byte-identical across thread counts", ok)
