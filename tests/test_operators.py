import itertools

import numpy as np
import pytest

from pgthresh import (ExhaustiveLimitError, SolverConfig,
                      exact_optimal_threshold, hard_threshold,
                      project_capped_simplex, solve, solve_rot, top_k_support)
from pgthresh import operators, solvers
from pgthresh.bench import ExperimentConfig, make_trial_problem


def test_hard_threshold_examples():
    assert np.allclose(hard_threshold([3, 1, -4, 0], 2), [3, 0, -4, 0])
    assert np.allclose(hard_threshold([3, 1, -4, 0], 4), [3, 1, -4, 0])
    # tie between 2 and -2: lower index wins
    assert np.allclose(hard_threshold([2, -2, 1], 1), [2, 0, 0])
    assert hard_threshold([3, 1, -4, 0], 0).tobytes() == np.zeros(4).tobytes()
    # k = n keeps every entry bit for bit, signed zeros included
    v = np.array([-0.0, 2.5, 0.0, -1.0, -0.0])
    assert hard_threshold(v, v.size).tobytes() == v.tobytes()


def test_hard_threshold_rejects_bad_k():
    with pytest.raises(ValueError):
        hard_threshold([1, 2], -1)
    with pytest.raises(ValueError):
        hard_threshold([1, 2], 3)


def test_hard_threshold_is_best_k_sparse_approximation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        v = rng.standard_normal(n)
        k = int(rng.integers(0, n + 1))
        best = min(
            sum((v[i]) ** 2 for i in range(n) if i not in set(supp))
            for supp in itertools.combinations(range(n), k))
        kept = hard_threshold(v, k)
        assert np.linalg.norm(v - kept) ** 2 <= best + 1e-12


def test_top_k_support():
    assert list(top_k_support([3, 1, -4, 0], 2)) == [0, 2]
    assert list(top_k_support([0, 0, 5, 0], 3)) == [2]
    assert list(top_k_support([2, -2, 1], 1)) == [0]


def test_exact_optimal_threshold_zero_residual():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 8))
    u = np.zeros(8)
    u[[2, 6]] = [1.5, -0.5]
    y = a @ u
    w, x = exact_optimal_threshold(a, y, u, 2)
    assert np.allclose(x, u)
    assert np.allclose(np.flatnonzero(w), [2, 6])


def test_exact_optimal_threshold_k_equals_n():
    a = np.random.default_rng(2).standard_normal((4, 3))
    w, x = exact_optimal_threshold(a, np.ones(4), np.ones(3), 3)
    assert np.allclose(w, 1)


def test_exact_optimal_threshold_derived_pattern():
    a = np.array([[1.0, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    w, x = exact_optimal_threshold(a, [1, 1, 0], np.ones(4), 2)
    assert np.allclose(w, [1, 1, 0, 0])
    assert np.allclose(a @ x, [1, 1, 0])


def test_exact_optimal_threshold_limit_guard():
    a = np.ones((2, 30))
    with pytest.raises(ExhaustiveLimitError):
        exact_optimal_threshold(a, [1, 1], np.ones(30), 15)


def _binary_optimum(a, y, u, k):
    # min ||y - A (u * w)||^2 over every w in {0,1}^n with exactly k ones
    best = np.inf
    for supp in itertools.combinations(range(u.size), k):
        r = y - a[:, list(supp)] @ u[list(supp)]
        best = min(best, float(r @ r))
    return best


@pytest.mark.parametrize("padded", [False, True])
def test_exact_optimal_threshold_matches_brute_force(padded):
    # padded: |supp u| < k, so the k ones are completed outside supp(u)
    rng = np.random.default_rng(41 + padded)
    for _ in range(25):
        n = int(rng.integers(4, 11))
        m = int(rng.integers(3, 9))
        k = int(rng.integers(1, n + 1)) if padded else int(rng.integers(0, n + 1))
        t = int(rng.integers(0, k)) if padded else int(rng.integers(k, n + 1))
        u = np.zeros(n)
        u[rng.choice(n, size=t, replace=False)] = rng.standard_normal(t)
        a = rng.standard_normal((m, n))
        y = rng.standard_normal(m)
        w, x = exact_optimal_threshold(a, y, u, k)
        assert np.count_nonzero(w) == k and set(np.unique(w)) <= {0.0, 1.0}
        assert np.array_equal(x, u * w)
        r = y - a @ x
        best = _binary_optimum(a, y, u, k)
        assert float(r @ r) <= best + 1e-10 * max(1.0, best)


def test_exact_optimal_threshold_rejects_bad_k():
    a = np.ones((2, 4))
    with pytest.raises(ValueError):
        exact_optimal_threshold(a, [1, 1], np.ones(4), 5)
    with pytest.raises(ValueError):
        exact_optimal_threshold(a, [1, 1], np.ones(4), -1)


def _projection_kkt_oracle(v, k):
    # enumerate clamp patterns: each coordinate at 0, at 1, or free = v - theta
    v = np.asarray(v, dtype=float)
    n = v.size
    best, best_dist = None, np.inf
    for pattern in itertools.product((0, 1, 2), repeat=n):
        free = [i for i, p in enumerate(pattern) if p == 2]
        fixed = sum(1 for p in pattern if p == 1)
        if free:
            theta = (v[free].sum() + fixed - k) / len(free)
        elif fixed != k:
            continue
        else:
            theta = 0.0
        w = np.empty(n)
        for i, p in enumerate(pattern):
            w[i] = 0.0 if p == 0 else 1.0 if p == 1 else v[i] - theta
        if np.any(w < -1e-12) or np.any(w > 1 + 1e-12):
            continue
        if abs(w.sum() - k) > 1e-9:
            continue
        dist = float(np.linalg.norm(w - v))
        if dist < best_dist:
            best, best_dist = w, dist
    return best


def test_projection_examples():
    assert np.allclose(project_capped_simplex([1, 0, 0], 1), [1, 0, 0])
    assert np.allclose(project_capped_simplex([0.3, -2.0, 7.0], 3), [1, 1, 1])
    assert np.allclose(project_capped_simplex([0.9, 0.5, 0.1], 1), [0.7, 0.3, 0.0])


def test_projection_rejects_bad_k():
    with pytest.raises(ValueError):
        project_capped_simplex([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        project_capped_simplex([1.0, 2.0], -1)


def test_projection_matches_kkt_oracle():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(0, n + 1))
        v = rng.standard_normal(n) * rng.choice([0.5, 1.0, 3.0])
        w = project_capped_simplex(v, k)
        assert abs(w.sum() - k) <= 1e-10 * max(1, k)
        assert np.all(w >= -1e-12) and np.all(w <= 1 + 1e-12)
        oracle = _projection_kkt_oracle(v, k)
        assert np.allclose(w, oracle, atol=1e-8)


def test_projection_with_ties_matches_kkt_oracle():
    # repeated entries and entries exactly 1 apart make breakpoints coincide
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(1, 8))
        k = int(rng.integers(0, n + 1))
        v = rng.integers(-2, 5, size=n) * 0.5
        w = project_capped_simplex(v, k)
        assert abs(w.sum() - k) <= 1e-10 * max(1, k)
        assert np.allclose(w, _projection_kkt_oracle(v, k), atol=1e-10)


def test_projection_idempotent_and_nonexpansive():
    rng = np.random.default_rng(22)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        k = int(rng.integers(1, n + 1))
        a = rng.standard_normal(n) * 2
        b = rng.standard_normal(n) * 2
        pa, pb = project_capped_simplex(a, k), project_capped_simplex(b, k)
        assert np.allclose(project_capped_simplex(pa, k), pa, atol=1e-10)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


def test_solve_rot_zero_objective_attainable():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((6, 9))
    u = rng.standard_normal(9)
    w0 = np.zeros(9)
    w0[[1, 4]] = 1.0
    y = a @ (u * w0)
    sol = solve_rot(a, y, u, 2)
    assert sol.converged
    assert sol.objective <= 1e-8


def test_solve_rot_k_equals_n():
    rng = np.random.default_rng(32)
    sol = solve_rot(rng.standard_normal((4, 5)), rng.standard_normal(4),
                    rng.standard_normal(5), 5)
    assert np.allclose(sol.w, 1)


def test_solve_rot_feasible_and_below_binary_optimum():
    rng = np.random.default_rng(33)
    for _ in range(15):
        a = rng.standard_normal((6, 10)) / np.sqrt(6)
        y = rng.standard_normal(6)
        u = rng.standard_normal(10)
        sol = solve_rot(a, y, u, 2)
        assert abs(sol.w.sum() - 2) <= 1e-9 * 2
        assert np.all(sol.w >= -1e-12) and np.all(sol.w <= 1 + 1e-12)
        _, x = exact_optimal_threshold(a, y, u, 2)
        binary_obj = float(np.linalg.norm(y - a @ x) ** 2)
        assert sol.objective <= binary_obj + 1e-6


def test_solve_rot_iteration_exhaustion_flagged():
    # at (36, 86) a restart makes the best iterate differ from the last one
    for seed, max_iterations in [(34, 2), (36, 86)]:
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((20, 40))
        y = rng.standard_normal(20)
        u = rng.standard_normal(40)
        cfg = SolverConfig(rot_max_iterations=max_iterations, rot_tolerance=1e-14)
        sol = solve_rot(a, y, u, 5, cfg)
        assert not sol.converged
        assert abs(sol.w.sum() - 5) <= 1e-9 * 5
        # the reported residual is the fixed-point residual of the returned w
        b = a * u
        step = 1.0 / (2.0 * np.linalg.norm(b, 2) ** 2)
        grad = 2.0 * b.T @ (b @ sol.w - y)
        kkt = np.linalg.norm(sol.w - project_capped_simplex(sol.w - step * grad, 5))
        assert sol.kkt_residual == pytest.approx(kkt, rel=1e-6)


@pytest.mark.parametrize("k", [10, 20, 30])
def test_solve_rot_converges_at_bench_scale(k):
    # first outer PGROTP iteration (x0 = 0, q = 2k) on bench instances; the
    # step must respect the 2 lambda_max(B^T B) Lipschitz constant of the
    # gradient for these to converge within the iteration cap
    cfg = SolverConfig()
    exp = ExperimentConfig(m=100, n=200, k_grid=(k,), seed=1)
    for trial in range(4):
        problem = make_trial_problem(exp, k, 2 * k, "pgrotp", trial)
        u = hard_threshold(problem.a.T @ problem.y, problem.q)
        sol = solve_rot(problem.a, problem.y, u, k, cfg)
        assert sol.converged, (k, trial, sol.kkt_residual)
        assert sol.kkt_residual <= cfg.rot_tolerance


@pytest.mark.parametrize("n, k, t", [
    (10, 4, 2),   # t < k: supp(u) alone cannot carry the k ones
    (10, 4, 8),   # n - t < k: sum(w_S) >= k - (n - t) > 0
    (10, 3, 10),  # t = n: the q = n reductions
])
def test_solve_rot_reduced_feasible_set(n, k, t):
    rng = np.random.default_rng(35 + t)
    cfg = SolverConfig()
    for _ in range(10):
        a = rng.standard_normal((6, n)) / np.sqrt(6)
        y = rng.standard_normal(6)
        u = np.zeros(n)
        u[rng.choice(n, size=t, replace=False)] = rng.standard_normal(t)
        sol = solve_rot(a, y, u, k, cfg)
        assert abs(sol.w.sum() - k) <= 1e-9 * k
        assert np.all(sol.w >= 0) and np.all(sol.w <= 1)
        assert sol.converged and sol.kkt_residual <= cfg.rot_tolerance
        _, x = exact_optimal_threshold(a, y, u, k)
        binary_obj = float(np.linalg.norm(y - a @ x) ** 2)
        assert sol.objective <= binary_obj + 1e-6


@pytest.mark.parametrize("k", [10, 20, 30])
def test_solve_rot_projects_at_most_once_per_iteration(k, monkeypatch):
    # the stop test uses the gradient mapping at the extrapolated point, so
    # the only extra projection is the fixed-point certificate at the end
    calls = []
    project = operators.project_capped_simplex

    def counting_project(v, total):
        calls.append(total)
        return project(v, total)

    per_solve = []
    rot = solvers.solve_rot

    def counting_rot(*args, **kwargs):
        before = len(calls)
        sol = rot(*args, **kwargs)
        per_solve.append((len(calls) - before, sol.iterations))
        return sol

    monkeypatch.setattr(operators, "project_capped_simplex", counting_project)
    monkeypatch.setattr(solvers, "solve_rot", counting_rot)
    exp = ExperimentConfig(m=100, n=200, k_grid=(k,), seed=1)
    solve(make_trial_problem(exp, k, 2 * k, "pgrotp", 0), "pgrotp")
    assert per_solve
    for projections, iterations in per_solve:
        assert projections <= iterations + 1


@pytest.mark.parametrize("u", [np.zeros(6), np.arange(1.0, 7.0)])
def test_solve_rot_constant_objective_converges(u):
    # empty supp(u), or B = A diag(u) = 0: any feasible w is a minimizer
    a = np.zeros((4, 6))
    sol = solve_rot(a, np.ones(4), u, 2)
    assert sol.converged and sol.kkt_residual <= 1e-12
    assert abs(sol.w.sum() - 2) <= 1e-12
    assert np.all(sol.w >= 0) and np.all(sol.w <= 1)
