import ast
import itertools
import warnings
from pathlib import Path

import numpy as np
import pytest

from pgthresh import (ExhaustiveLimitError, exact_optimal_threshold,
                      hard_threshold, project_capped_simplex, solve,
                      solve_rot, top_k_support)
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
def test_exact_optimal_threshold_matches_brute_force(padded, monkeypatch):
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
        with monkeypatch.context() as patch:  # one or two patterns a chunk
            patch.setattr(operators, "CHUNK_FLOATS", 2 * m)
            assert exact_optimal_threshold(a, y, u, k)[0].tobytes() == w.tobytes()


def _first_minimiser(a, y, u, k):
    # the per-pattern loop: every support size in turn, lexicographic
    # subsets of supp(u), strict < so the first minimiser is kept
    n = u.size
    supp = np.flatnonzero(u)
    t = supp.size
    best, best_obj = (), np.inf
    for j in range(max(0, k - (n - t)), min(k, t) + 1):
        for sub in itertools.combinations(range(t), j):
            r = y - a[:, supp[list(sub)]] @ u[supp[list(sub)]]
            if float(r @ r) < best_obj:
                best, best_obj = sub, float(r @ r)
    w = np.zeros(n)
    w[supp[list(best)]] = 1.0
    w[np.setdiff1d(np.arange(n), supp)[: k - len(best)]] = 1.0
    return w


@pytest.mark.parametrize("chunk_floats", [None, 1, 20])
def test_exact_optimal_threshold_ties_keep_first_minimiser(chunk_floats,
                                                           monkeypatch):
    # duplicated integer columns and integer u, y: every objective is an
    # exact integer, so tied patterns tie exactly; a budget of a few floats
    # (None: the default) spreads one enumeration over many chunks
    if chunk_floats is not None:
        monkeypatch.setattr(operators, "CHUNK_FLOATS", chunk_floats)
    rng = np.random.default_rng(43)
    for trial in range(30):
        n = int(rng.integers(4, 9))
        cols = rng.integers(-2, 3, size=(2, int(rng.integers(1, n))))
        a = cols[:, rng.integers(0, cols.shape[1], size=n)].astype(float)
        k = int(rng.integers(0, n + 1))
        t = 0 if trial < 3 else int(rng.integers(0, n + 1))  # t = 0: empty pattern
        u = np.zeros(n)
        u[rng.choice(n, size=t, replace=False)] = rng.integers(1, 3, size=t)
        y = rng.integers(-3, 4, size=2).astype(float)
        w, x = exact_optimal_threshold(a, y, u, k)
        assert w.tobytes() == _first_minimiser(a, y, u, k).tobytes(), (trial, k, t)
        assert np.array_equal(x, u * w)


def test_one_exhaustive_enumeration_in_src():
    # the exact OP and the brute-force RIC share operators.combination_chunks:
    # it alone calls itertools.combinations, compares with EXHAUSTIVE_LIMIT
    # and raises ExhaustiveLimitError
    src = Path(operators.__file__).parent
    sites = {"combinations": [], "EXHAUSTIVE_LIMIT": [],
             "ExhaustiveLimitError": []}

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = (f"{where}.{child.name}"
                     if isinstance(child, (ast.FunctionDef, ast.ClassDef))
                     else where)
            if (isinstance(child, ast.Call)
                    and ast.unparse(child.func).split(".")[-1] == "combinations"):
                sites["combinations"].append(inner)
            if isinstance(child, ast.Compare) and any(
                    isinstance(n, ast.Name) and n.id == "EXHAUSTIVE_LIMIT"
                    for n in ast.walk(child)):
                sites["EXHAUSTIVE_LIMIT"].append(inner)
            if isinstance(child, ast.Raise) and child.exc is not None and any(
                    isinstance(n, ast.Name) and n.id == "ExhaustiveLimitError"
                    for n in ast.walk(child.exc)):
                sites["ExhaustiveLimitError"].append(inner)
            visit(child, inner)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    helper = ["operators.combination_chunks"]
    assert sites == {"combinations": helper, "EXHAUSTIVE_LIMIT": helper,
                     "ExhaustiveLimitError": helper}


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


def _fixed_point_residual(a, y, u, sol, k):
    b = a * u
    step = 1.0 / (2.0 * np.linalg.norm(b, 2) ** 2)
    grad = 2.0 * b.T @ (b @ sol.w - y)
    return np.linalg.norm(sol.w - project_capped_simplex(sol.w - step * grad, k))


def test_solve_rot_iteration_exhaustion_flagged(monkeypatch):
    # caps below the kernel's own step count: one step, and one step short
    for seed in (34, 36):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((20, 40))
        y = rng.standard_normal(20)
        u = rng.standard_normal(40)
        steps = solve_rot(a, y, u, 5).iterations
        assert steps > 2
        for max_iterations in (1, steps - 1):
            monkeypatch.setattr(operators, "ROT_MAX_ITERATIONS", max_iterations)
            sol = solve_rot(a, y, u, 5)
            assert not sol.converged
            assert sol.iterations == max_iterations
            assert abs(sol.w.sum() - 5) <= 1e-9 * 5
            # the reported residual is the fixed-point residual of the returned w
            assert sol.kkt_residual == pytest.approx(
                _fixed_point_residual(a, y, u, sol, 5), rel=1e-6)


@pytest.mark.parametrize("k", [10, 20, 30])
def test_solve_rot_converges_at_bench_scale(k):
    # first outer PGROTP iteration (x0 = 0, q = 2k) on bench instances; the
    # step must respect the 2 lambda_max(B^T B) Lipschitz constant of the
    # gradient for these to converge within the iteration cap
    exp = ExperimentConfig(m=100, n=200, k_grid=(k,), seed=1)
    for trial in range(4):
        problem = make_trial_problem(exp, k, 2 * k, "pgrotp", trial)
        u = hard_threshold(problem.a.T @ problem.y, problem.q)
        sol = solve_rot(problem.a, problem.y, u, k)
        assert sol.converged, (k, trial, sol.kkt_residual)
        assert sol.kkt_residual <= operators.ROT_TOLERANCE


@pytest.mark.parametrize("n, k, t", [
    (10, 4, 2),   # t < k: supp(u) alone cannot carry the k ones
    (10, 4, 8),   # n - t < k: sum(w_S) >= k - (n - t) > 0
    (10, 3, 10),  # t = n: the q = n reductions
])
def test_solve_rot_reduced_feasible_set(n, k, t):
    rng = np.random.default_rng(35 + t)
    for _ in range(10):
        a = rng.standard_normal((6, n)) / np.sqrt(6)
        y = rng.standard_normal(6)
        u = np.zeros(n)
        u[rng.choice(n, size=t, replace=False)] = rng.standard_normal(t)
        sol = solve_rot(a, y, u, k)
        assert abs(sol.w.sum() - k) <= 1e-9 * k
        assert np.all(sol.w >= 0) and np.all(sol.w <= 1)
        assert sol.converged and sol.kkt_residual <= operators.ROT_TOLERANCE
        _, x = exact_optimal_threshold(a, y, u, k)
        binary_obj = float(np.linalg.norm(y - a @ x) ** 2)
        assert sol.objective <= binary_obj + 1e-6


def test_solve_rot_certifies_ill_conditioned_seed4_subproblem(monkeypatch):
    # the fourth ROT solve of this pgrotp run has cond(B^T B) of about 1e10
    certificates = []
    rot = solvers.solve_rot

    def recording_rot(*args):
        sol = rot(*args)
        certificates.append((sol.converged, sol.kkt_residual))
        return sol

    monkeypatch.setattr(solvers, "solve_rot", recording_rot)
    exp = ExperimentConfig(m=100, n=200, k_grid=(20,), seed=4)
    solve(make_trial_problem(exp, 20, 40, "pgrotp", 3), "pgrotp")
    assert len(certificates) >= 4
    for converged, kkt in certificates:
        assert converged and kkt <= operators.ROT_TOLERANCE, (converged, kkt)


@pytest.mark.parametrize("k", [10, 20, 30])
def test_solve_rot_projects_at_most_once_per_iteration(k, monkeypatch):
    # the active-set steps never project: the one projection per solve is
    # the fixed-point certificate of the returned w
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
        per_solve.append(len(calls) - before)
        return sol

    monkeypatch.setattr(operators, "project_capped_simplex", counting_project)
    monkeypatch.setattr(solvers, "solve_rot", counting_rot)
    exp = ExperimentConfig(m=100, n=200, k_grid=(k,), seed=1)
    solve(make_trial_problem(exp, k, 2 * k, "pgrotp", 0), "pgrotp")
    assert per_solve
    for projections in per_solve:
        assert projections <= 1


def _rot_pattern_oracle(b, y, lo, hi):
    """min ||y - B w||^2 over 0 <= w <= 1, lo <= sum(w) <= hi, by solving the
    equality QP of every (box pattern x sum state) pair and keeping the best
    feasible solution; B must have full column rank."""
    t = b.shape[1]
    gram, corr = b.T @ b, b.T @ y
    best = np.inf
    for pattern in itertools.product((0.0, 1.0, None), repeat=t):
        free = [i for i, v in enumerate(pattern) if v is None]
        fixed = [i for i, v in enumerate(pattern) if v is not None]
        w = np.array([0.0 if v is None else v for v in pattern])
        rhs = corr[free] - gram[np.ix_(free, fixed)] @ w[fixed]
        for target in (None, lo, hi):
            if target is None:
                w[free] = np.linalg.solve(gram[np.ix_(free, free)], rhs)
            elif free:
                f = len(free)
                kkt = np.zeros((f + 1, f + 1))
                kkt[:f, :f] = gram[np.ix_(free, free)]
                kkt[:f, f] = kkt[f, :f] = 1.0
                sol = np.linalg.solve(kkt, np.append(rhs, target - w[fixed].sum()))
                w[free] = sol[:f]
            feasible = (np.all(w >= -1e-12) and np.all(w <= 1 + 1e-12)
                        and lo - 1e-12 <= w.sum() <= hi + 1e-12)
            if feasible:
                r = y - b @ w
                best = min(best, float(r @ r))
    return best


@pytest.mark.parametrize("n, k, t", [
    (7, 3, 5),   # lo = 1 > 0
    (9, 4, 3),   # t < k
    (6, 2, 6),   # t = n: lo = hi
    (10, 3, 7),  # lo = 0 < hi
])
def test_solve_rot_matches_kkt_pattern_oracle(n, k, t):
    rng = np.random.default_rng(40 + 10 * n + t)
    starts = np.random.default_rng(50 + 10 * n + t)
    for _ in range(4):
        m = int(rng.integers(t, t + 3))
        a = rng.standard_normal((m, n)) / np.sqrt(m)
        y = rng.standard_normal(m)
        u = np.zeros(n)
        u[rng.choice(n, size=t, replace=False)] = rng.standard_normal(t)
        supp = np.flatnonzero(u)
        oracle = _rot_pattern_oracle(a[:, supp] * u[supp], y,
                                     max(0, k - (n - t)), min(k, t))
        sol = solve_rot(a, y, u, k)
        assert sol.converged
        assert sol.objective == pytest.approx(oracle, abs=1e-10)
        # starts with weights below 0, inside and above 1
        for start in starts.uniform(-0.5, 1.5, (3, n)):
            _assert_warm_start_matches_cold(a, y, u, k, start, sol)


def _assert_warm_start_matches_cold(a, y, u, k, start, cold):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = solve_rot(a, y, u, k, start)
    assert sol.converged and sol.kkt_residual <= operators.ROT_TOLERANCE
    assert sol.objective == pytest.approx(cold.objective, abs=1e-10)


@pytest.mark.parametrize("n, k, t, start", [
    # t = n, so lo = hi = k: every weight starts at a bound, and the working
    # sum would make them dependent
    (6, 2, 6, [0.0, 1.0, 0.0, 0.0, 1.0, 0.0]),
    # clipped sum t = 5 > hi = 3, and 7 > hi with t = n
    (7, 3, 5, [2.0, 1.0, 0.9, 3.0, 1.5, 0.8, 4.0]),
    (7, 3, 7, [2.0, 1.0, 0.9, 3.0, 1.5, 0.8, 4.0]),
    # clipped sum 0.1 < lo = 1, and 0.1 < lo = 3 with t = n
    (7, 3, 5, [-1.0, 0.0, 0.1, -2.0, 0.0, -0.5, 0.0]),
    (7, 3, 7, [-1.0, 0.0, 0.1, -2.0, 0.0, -0.5, 0.0]),
])
def test_solve_rot_warm_start_outside_feasible_set(n, k, t, start):
    rng = np.random.default_rng(60 + t)
    for _ in range(4):
        a = rng.standard_normal((t + 1, n)) / np.sqrt(t + 1)
        y = rng.standard_normal(t + 1)
        u = np.zeros(n)
        u[:t] = rng.standard_normal(t)
        cold = solve_rot(a, y, u, k)
        assert cold.converged
        _assert_warm_start_matches_cold(a, y, u, k, np.array(start), cold)


def test_solve_rot_restarted_at_its_minimiser_takes_at_most_two_steps():
    # the returned sum is k only up to rounding: a start there must keep its
    # weights at 0 and 1 in the working set, not project them off their bounds
    rng = np.random.default_rng(70)
    for _ in range(50):
        t = int(rng.integers(6, 13))
        a = rng.standard_normal((t + 2, 12))
        y = rng.standard_normal(t + 2)
        u = np.zeros(12)
        u[rng.choice(12, size=t, replace=False)] = rng.standard_normal(t)
        cold = solve_rot(a, y, u, 4)
        sol = solve_rot(a, y, u, 4, cold.w)
        assert sol.converged and sol.iterations <= 2, (t, sol.iterations)
        assert sol.objective == pytest.approx(cold.objective, abs=1e-10)


def test_solve_rot_rejects_start_of_wrong_length():
    a = np.ones((3, 6))
    for u in (np.ones(6), np.zeros(6)):  # also where the start goes unused
        with pytest.raises(ValueError, match="start"):
            solve_rot(a, np.ones(3), u, 2, np.ones(5))


def _duplicated_columns(rng):
    a = rng.standard_normal((6, 10)) / np.sqrt(6)
    a[:, 1] = a[:, 0]
    a[:, 5] = -2.0 * a[:, 3]
    u = rng.standard_normal(10)
    u[1] = u[0]
    u[9] = 0.0  # t = 9 < n: the sum is an inequality
    return a, u


def _wide(rng):  # t = 10 > m = 4
    return rng.standard_normal((4, 10)) / 2.0, rng.standard_normal(10)


@pytest.mark.parametrize("make", [_duplicated_columns, _wide])
@pytest.mark.parametrize("k", [2, 5])
def test_solve_rot_exactly_singular_gram(make, k):
    rng = np.random.default_rng(41 + k)
    for _ in range(8):
        a, u = make(rng)
        y = rng.standard_normal(a.shape[0])
        sol = solve_rot(a, y, u, k)
        assert sol.converged and sol.kkt_residual <= operators.ROT_TOLERANCE
        assert abs(sol.w.sum() - k) <= 1e-9 * k
        assert np.all(sol.w >= 0) and np.all(sol.w <= 1)
        _, x = exact_optimal_threshold(a, y, u, k)
        assert sol.objective <= float(np.linalg.norm(y - a @ x) ** 2) + 1e-6


def test_solve_rot_nearly_dependent_columns():
    # a column 3e-7 from zero and one 3e-7 from a copy count as dependent:
    # f is then nearly, not exactly, linear along the zero-curvature steps,
    # and the solve must still end certified
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((6, 10)) / np.sqrt(6)
        a[:, 1] = a[:, 0] + 3e-7 * rng.standard_normal(6)
        u = rng.standard_normal(10)
        u[3] = 3e-7
        y = rng.standard_normal(6)
        for k in (2, 5):
            sol = solve_rot(a, y, u, k)
            assert sol.converged, (seed, k, sol.iterations)
            assert sol.kkt_residual <= operators.ROT_TOLERANCE
            _, x = exact_optimal_threshold(a, y, u, k)
            assert sol.objective <= float(np.linalg.norm(y - a @ x) ** 2) + 1e-6


def test_solve_rot_step_cap_on_singular_gram(monkeypatch):
    a, u = _wide(np.random.default_rng(43))
    y = np.random.default_rng(44).standard_normal(4)
    monkeypatch.setattr(operators, "ROT_MAX_ITERATIONS", 1)
    sol = solve_rot(a, y, u, 3)
    assert not sol.converged and sol.iterations == 1
    assert sol.kkt_residual == pytest.approx(
        _fixed_point_residual(a, y, u, sol, 3), rel=1e-6)


@pytest.mark.parametrize("u", [np.zeros(6), np.arange(1.0, 7.0)])
def test_solve_rot_constant_objective_converges(u):
    # empty supp(u), or B = A diag(u) = 0: any feasible w is a minimizer
    a = np.zeros((4, 6))
    sol = solve_rot(a, np.ones(4), u, 2)
    assert sol.converged and sol.kkt_residual <= 1e-12
    assert abs(sol.w.sum() - 2) <= 1e-12
    assert np.all(sol.w >= 0) and np.all(sol.w <= 1)
