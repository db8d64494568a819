import ast
import itertools
import tracemalloc
import warnings
from fractions import Fraction
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


@pytest.mark.parametrize("call", [
    lambda k: hard_threshold([1.0, 2.0, 3.0], k),
    lambda k: project_capped_simplex([0.2, 0.9, 0.4], k),
    lambda k: exact_optimal_threshold(np.eye(3), np.ones(3), np.ones(3), k),
    lambda k: solve_rot(np.eye(3), np.ones(3), np.ones(3), k),
], ids=["hard_threshold", "project", "exact_optimal_threshold", "solve_rot"])
@pytest.mark.parametrize("k", [2.0, True])
def test_operators_reject_a_non_integer_k(call, k):
    # an integral float would fail later with a bare numpy TypeError
    with pytest.raises(ValueError, match=f"^k={k!r} must be an integer"):
        call(k)


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


def _stable_sort_threshold(v, k):
    """The reference selection: the first k of a stable sort on -|v|."""
    out = np.zeros_like(v)
    order = np.argsort(-np.abs(v), kind="stable")[:k]
    out[order] = v[order]
    return out


def _selection_vectors(n, rng):
    """Vectors of length n that stress the tie rule of hard_threshold."""
    yield "gaussian", rng.standard_normal(n)
    # few distinct magnitudes of both signs: ties at the k-th magnitude
    yield "tied", rng.integers(-3, 4, n) * 0.5
    sparse = np.zeros(n)
    sparse[rng.choice(n, size=max(1, n // 8), replace=False)] = 1.5
    yield "fewer-nonzeros-than-k", sparse * rng.choice([-1.0, 1.0], n)
    yield "signed-zeros", rng.choice([0.0, -0.0], n)
    mixed = rng.choice([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf], n)
    yield "zeros-ones-infs", mixed
    with_nan = rng.standard_normal(n)
    with_nan[rng.random(n) < 0.5] = np.nan
    yield "nan", with_nan


@pytest.mark.parametrize("n", [1, 7, 200, 1024])
def test_hard_threshold_matches_stable_sort(n):
    rng = np.random.default_rng(n)
    for name, v in _selection_vectors(n, rng):
        for k in sorted({0, 1, n // 2, n - 1, n}):
            expected = _stable_sort_threshold(v, k)
            assert hard_threshold(v, k).tobytes() == expected.tobytes(), (name, k)


def test_top_k_support():
    assert list(top_k_support([3, 1, -4, 0], 2)) == [0, 2]
    assert list(top_k_support([0, 0, 5, 0], 3)) == [2]
    assert list(top_k_support([2, -2, 1], 1)) == [0]


@pytest.mark.parametrize("op", [hard_threshold, top_k_support])
@pytest.mark.parametrize("v", [np.ones((2, 3)), np.ones((1, 4)), 2.5])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_thresholding_rejects_an_input_that_is_not_1d(op, v, k):
    # before the check, k = 0 returned zeros of v's shape and larger k
    # failed inside numpy, with an error that depended on k
    with pytest.raises(ValueError, match="must be 1-d"):
        op(v, k)


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
        with monkeypatch.context() as patch:  # small levels built, not cached
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
    # (None: the default) builds each level afresh instead of from the cache
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


@pytest.mark.parametrize("n", [5, 8])
def test_exact_optimal_threshold_tie_across_sizes_keeps_smaller_support(n):
    # column 0 of A is zero, so a support and the same support with 0 added
    # tie exactly; n = 5 (lo + hi > t) scores the complements instead
    a = np.zeros((3, n))
    a[:, 1:4] = np.eye(3)
    a[:, 4:] = 1.0
    u = np.zeros(n)
    u[:4] = 1.0
    w, _ = exact_optimal_threshold(a, [1.0, 1.0, 1.0], u, 4)
    assert w.tolist() == [0, 1, 1, 1, 1] + [0] * (n - 5)
    assert w.tobytes() == _first_minimiser(a, np.ones(3), u, 4).tobytes()


@pytest.mark.parametrize("planted", [False, True])
def test_exact_optimal_threshold_matches_residual_loop(planted):
    # float data: the Gram expansion rounds each objective differently from
    # the residual loop, yet keeps the same w.  planted: u = x* plus
    # off-support entries of 1e-4 .. 1e-13 and y = A x*, so the best
    # objective is near 0, where the expansion loses the most digits
    rng = np.random.default_rng(47 + planted)
    for trial in range(24):
        t = int(rng.integers(1, 16))
        k = int(rng.integers(1, min(6, t) + 1))
        n = t + int(rng.integers(0, 3))  # n = t or close: lo > 0, complements
        m = int(rng.integers(4, 20))
        a = rng.standard_normal((m, n)) / np.sqrt(m)
        supp = rng.choice(n, size=t, replace=False)
        u = np.zeros(n)
        if planted:
            u[supp[:k]] = rng.standard_normal(k)
            y = a @ u
            u[supp[k:]] = (rng.choice([-1.0, 1.0], size=t - k)
                           * 10.0 ** -rng.integers(4, 14, size=t - k))
        else:
            u[supp] = rng.standard_normal(t)
            y = rng.standard_normal(m)
        w, _ = exact_optimal_threshold(a, y, u, k)
        assert w.tobytes() == _first_minimiser(a, y, u, k).tobytes(), (trial, t, k)


def test_exact_optimal_threshold_memory_at_widest_level():
    # t = n = 20, k = 10: the 184 756 patterns of level 10 and every level
    # below it, whose tables the enumeration holds at once
    rng = np.random.default_rng(53)
    a = rng.standard_normal((30, 20)) / np.sqrt(30)
    u = rng.standard_normal(20)
    y = rng.standard_normal(30)
    tracemalloc.start()
    try:
        w, _ = exact_optimal_threshold(a, y, u, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(w) == 10
    assert peak < 64 * 2**20


def test_subset_levels_enumerate_lexicographically():
    for t in range(8):
        levels = operators.subset_levels(t, range(t + 1))
        for j, level in enumerate(levels):
            combos = [list(c) for c in itertools.combinations(range(t), j)]
            assert operators.subsets(t, j).tolist() == combos
            if j:  # each row is its parent row with its last index appended
                parents = [list(c) for c in itertools.combinations(range(t), j - 1)]
                assert [parents[p] + [e] for p, e in
                        zip(level.parent, level.last)] == combos
                assert not level.last.flags.writeable


def test_subset_level_cache_is_bounded(monkeypatch):
    # only levels whose four arrays fit in CHUNK_FLOATS entries are cached,
    # and at most 4 * CHUNK_FLOATS entries in all
    monkeypatch.setattr(operators, "CHUNK_FLOATS", 64)
    monkeypatch.setattr(operators, "_LEVELS", {})
    for t in range(1, 14):
        operators.subset_levels(t, range(t // 2 + 1))
    sizes = [4 * level.last.size for level in operators._LEVELS.values()]
    assert sizes and max(sizes) <= 64 and sum(sizes) <= 4 * 64


def test_one_exhaustive_enumeration_in_src():
    # the exact OP and the brute-force RIC share operators.subset_levels: it
    # alone builds patterns (itertools.combinations, or np.repeat to expand
    # each level's parents), compares with EXHAUSTIVE_LIMIT and raises
    # ExhaustiveLimitError
    src = Path(operators.__file__).parent
    sites = {"patterns": [], "EXHAUSTIVE_LIMIT": [],
             "ExhaustiveLimitError": []}

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = (f"{where}.{child.name}"
                     if isinstance(child, (ast.FunctionDef, ast.ClassDef))
                     else where)
            if (isinstance(child, ast.Call)
                    and ast.unparse(child.func).split(".")[-1]
                    in ("combinations", "repeat")):
                sites["patterns"].append(inner)
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
    helper = ["operators.subset_levels"]
    assert sites == {"patterns": helper, "EXHAUSTIVE_LIMIT": helper,
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


def test_one_feasible_set_projection_in_operators():
    # solve_rot's start and each round's point share one clip-then-project
    # path; the certificate is the Frank-Wolfe gap, which never projects, and
    # operators imports nothing from linalg
    tree = ast.parse(Path(operators.__file__).read_text(encoding="utf-8"))
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = (f"{where}.{child.name}"
                     if isinstance(child, ast.FunctionDef) else where)
            if (isinstance(child, ast.Call)
                    and ast.unparse(child.func) == "project_capped_simplex"):
                sites.append(inner)
            visit(child, inner)

    visit(tree, "operators")
    assert sorted(set(sites)) == ["operators.solve_rot.working_set"]
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "linalg"]


def test_projection_rejects_bad_k():
    with pytest.raises(ValueError):
        project_capped_simplex([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        project_capped_simplex([1.0, 2.0], -1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_projection_rejects_non_finite_entries(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="v entries must be finite"):
            project_capped_simplex(np.array([0.2, bad, 0.5, 0.1]), 2)


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


def _exact_projection(v, k):
    """The projection onto {w : sum(w) = k, 0 <= w <= 1} in exact rational
    arithmetic: clamp(v - theta, 0, 1) for the theta among the breakpoints
    and the free-window solutions (the a largest entries at 1, the next f
    free) whose clamped sum is exactly k."""
    vals = [Fraction(x) for x in v]
    desc = sorted(vals, reverse=True)
    thetas = vals + [x - 1 for x in vals]
    for a in range(k + 1):
        for f in range(1, len(vals) - a + 1):
            thetas.append((sum(desc[a:a + f]) + a - k) / f)
    for theta in thetas:
        w = [min(max(x - theta, 0), 1) for x in vals]
        if sum(w) == k:
            return w
    raise AssertionError("no theta found")


@pytest.mark.parametrize("v, k", [
    ([1e17, 0.3, 0.2, 0.1], 1),
    ([1e300, 0.5, 0.2], 1),
    ([1e16, 1e16 + 2, 0.5], 1),
    ([1e17, 1e17, 0.5], 1),
    ([1e17, -1e17, 0.5, 0.25], 2),
])
def test_projection_of_entries_far_apart_matches_exact_oracle(v, k):
    # the breakpoint sums cancel here; the result must still be the
    # projection, in [0, 1] and summing to k up to rounding
    w = project_capped_simplex(v, k)
    assert np.all(w >= 0.0) and np.all(w <= 1.0)
    assert abs(w.sum() - k) <= 4 * len(v) * np.finfo(float).eps * k
    expect = np.array([float(x) for x in _exact_projection(v, k)])
    np.testing.assert_allclose(w, expect, rtol=0.0, atol=1e-15)


def test_projection_of_ordinary_entries_is_vectorised(monkeypatch):
    # the exact fallback is for sums that cancel, not for ordinary inputs
    def refuse(v, k):
        raise AssertionError(f"exact fallback on {v}, {k}")

    monkeypatch.setattr(operators, "_project_exact", refuse)
    rng = np.random.default_rng(24)
    for _ in range(500):
        n = int(rng.integers(2, 200))
        v = rng.standard_normal(n) * rng.choice([0.1, 1.0, 10.0])
        project_capped_simplex(v, int(rng.integers(1, n)))


def test_projection_of_ordinary_entries_matches_the_exact_path():
    # the draws above, at the sizes solve_rot meets: the float search is
    # within 4.8e-15 of the exact one on them; the prefix-sum pass it
    # replaced was 1.7e-13 off, from sums that cancel
    rng = np.random.default_rng(24)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 200))
        v = rng.standard_normal(n) * rng.choice([0.1, 1.0, 10.0])
        k = int(rng.integers(1, n))
        w = project_capped_simplex(v, k)
        worst = max(worst, np.abs(w - operators._project_exact(v, k)).max())
    assert worst <= 2e-14


@pytest.mark.parametrize("v, k, expect", [
    ([1e17, 1e17], 1, [0.5, 0.5]),
    ([-1e17, -1e17, -1e17], 1, [1 / 3, 1 / 3, 1 / 3]),
])
def test_projection_where_every_breakpoint_coincides(v, k, expect):
    # v - 1 rounds to v, so the float search's bracket fails at its lowest
    # breakpoint: no 0 / 0, and the exact path gives the projection
    np.testing.assert_array_equal(project_capped_simplex(v, k), expect)


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
    """||w_S - P(w_S - grad f(w_S) / L)|| with the exact L = 2 ||B||_2^2 and
    P the projection onto the feasible w_S: [0, 1]^t with lo <= sum <= hi."""
    supp = np.flatnonzero(u)
    n, t = u.size, supp.size
    lo, hi = max(0, k - (n - t)), min(k, t)
    b = a[:, supp] * u[supp]
    w = sol.w[supp]
    z = w - (b.T @ (b @ w - y)) / np.linalg.norm(b, 2) ** 2
    p = z.clip(0.0, 1.0)
    if not lo <= p.sum() <= hi:
        p = project_capped_simplex(z, hi if p.sum() > hi else lo)
    return float(np.linalg.norm(w - p))


def _frank_wolfe_gap(a, y, u, sol, k):
    """grad . w - min grad . w' over 0 <= w' <= 1 with sum(w') = k, in all n
    weights: the minimum takes the k smallest entries of the gradient."""
    b = a * u
    grad = 2.0 * b.T @ (b @ sol.w - y)
    return float(grad @ sol.w - np.sort(grad)[:k].sum())


def _gap_bound(a, y, u):
    """ROT_TOLERANCE max(||y||^2, max_j ||B e_j||^2)."""
    b = a * u
    return operators.ROT_TOLERANCE * max(float(y @ y),
                                         float((b * b).sum(axis=0).max()))


def _assert_certified(a, y, u, k, sol):
    """sol converged, its gap within the bound, and the fixed-point residual
    of its w, with the exact L, within ROT_TOLERANCE."""
    assert sol.converged
    assert sol.gap <= _gap_bound(a, y, u)
    assert _fixed_point_residual(a, y, u, sol, k) <= operators.ROT_TOLERANCE


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
            # the reported gap is the Frank-Wolfe gap of the returned w
            assert sol.gap == pytest.approx(
                _frank_wolfe_gap(a, y, u, sol, 5), rel=1e-6)


def test_solve_rot_step_cap_counts_the_crash(monkeypatch):
    # t = n = 20 <= m = 24: B has full column rank, and the crash's
    # iterations count against the cap; caps of one step and one step short
    for seed in (34, 36):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((24, 20))
        y = rng.standard_normal(24)
        u = rng.standard_normal(20)
        steps = solve_rot(a, y, u, 5).iterations
        assert steps > 2
        for max_iterations in (1, steps - 1):
            monkeypatch.setattr(operators, "ROT_MAX_ITERATIONS", max_iterations)
            sol = solve_rot(a, y, u, 5)
            assert not sol.converged
            assert sol.iterations == max_iterations
            assert abs(sol.w.sum() - 5) <= 1e-9 * 5
            assert sol.gap == pytest.approx(
                _frank_wolfe_gap(a, y, u, sol, 5), rel=1e-6)


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
        assert sol.converged, (k, trial, sol.gap)
        _assert_certified(problem.a, problem.y, u, k, sol)


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
        _assert_certified(a, y, u, k, sol)
        _, x = exact_optimal_threshold(a, y, u, k)
        binary_obj = float(np.linalg.norm(y - a @ x) ** 2)
        assert sol.objective <= binary_obj + 1e-6


def test_solve_rot_certifies_ill_conditioned_seed4_subproblem(monkeypatch):
    # the fourth ROT solve of this pgrotp run has cond(B^T B) of about 1e10
    certificates = []
    rot = solvers.solve_rot

    def recording_rot(a, y, u, k, start):
        sol = rot(a, y, u, k, start)
        certificates.append((a, y, u, k, sol))
        return sol

    monkeypatch.setattr(solvers, "solve_rot", recording_rot)
    exp = ExperimentConfig(m=100, n=200, k_grid=(20,), seed=4)
    solve(make_trial_problem(exp, 20, 40, "pgrotp", 3), "pgrotp")
    assert len(certificates) >= 4
    for a, y, u, k, sol in certificates:
        _assert_certified(a, y, u, k, sol)


def test_solve_rot_active_set_path_is_pinned(monkeypatch):
    # steps per ROT solve of three pgrotp runs, crash iterations included; a
    # change to the crash or to the rounds' rules shows here first.  The counts
    # may hang on rounding: their subproblems are strictly convex (t <= 3k <
    # m), but a sign test can land within rounding of its threshold
    steps = []
    rot = solvers.solve_rot

    def recording_rot(*args):
        sol = rot(*args)
        assert sol.converged
        steps.append(sol.iterations)
        return sol

    monkeypatch.setattr(solvers, "solve_rot", recording_rot)
    exp = ExperimentConfig(m=100, n=200, k_grid=(20,), seed=1)
    expected = [[4, 5, 7, 7], [3, 7, 6], [4, 6, 6]]
    for trial, counts in enumerate(expected):
        steps.clear()
        problem = make_trial_problem(exp, 20, 40, "pgrotp", trial)
        report = solve(problem, "pgrotp")
        assert steps == counts, trial
        np.testing.assert_array_equal(np.flatnonzero(report.final_x),
                                      np.flatnonzero(problem.truth))


@pytest.mark.parametrize("k", [10, 20, 30])
def test_solve_rot_projects_at_most_once_per_call(k, monkeypatch):
    # the crash and the certificate never project: only a start or a
    # round's point whose clipped sum leaves [lo, hi] is projected
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


def test_solve_rot_gap_bounds_the_objective_gap(monkeypatch):
    # gap >= f(w) - f*, by convexity, for every feasible w: capped solves
    # (one step, two steps) and converged ones, cold and warm
    rng = np.random.default_rng(120)
    capped = converged = 0
    for n, k, t in [(7, 3, 5), (9, 4, 3), (6, 2, 6), (10, 3, 7)]:
        for _ in range(3):
            m = int(rng.integers(t, t + 3))
            a = rng.standard_normal((m, n)) / np.sqrt(m)
            y = rng.standard_normal(m)
            u = np.zeros(n)
            u[rng.choice(n, size=t, replace=False)] = rng.standard_normal(t)
            supp = np.flatnonzero(u)
            oracle = _rot_pattern_oracle(a[:, supp] * u[supp], y,
                                         max(0, k - (n - t)), min(k, t))
            for start in (None, rng.uniform(-0.5, 1.5, n)):
                for cap in (1, 2, 5000):
                    monkeypatch.setattr(operators, "ROT_MAX_ITERATIONS", cap)
                    sol = solve_rot(a, y, u, k, start)
                    capped += not sol.converged
                    converged += sol.converged
                    assert sol.gap >= sol.objective - oracle - 1e-12
                    assert sol.gap == pytest.approx(
                        _frank_wolfe_gap(a, y, u, sol, k), rel=1e-6, abs=1e-12)
    assert capped >= 10 and converged >= 24


def _kernel_objective_and_gap(a, y, u, k, sol):
    """(||y - B w_S||^2, the Frank-Wolfe gap) of sol.w, formed from w_S as
    solve_rot forms them, the gap before its clamp at 0."""
    supp = np.flatnonzero(u)
    n, t = u.size, supp.size
    lo, hi = max(0, k - (n - t)), min(k, t)
    b = a[:, supp] * u[supp]
    w = sol.w[supp]
    r = y - b @ w
    grad = -2.0 * (b.T @ r)
    ones = min(max(int(np.count_nonzero(grad < 0.0)), lo), hi)
    return float(r @ r), float(grad @ w - np.sort(grad)[:ones].sum())


def _recorded_rot_calls(monkeypatch, seed, trials):
    """The (a, y, u, k, start) of every solve_rot call of pgrotp on the
    phase instances (m=100, n=200, k=20, q=2k) of ``seed`` and ``trials``."""
    calls = []
    rot = solvers.solve_rot

    def recording_rot(a, y, u, k, start):
        calls.append((a, y, u, k, start))
        return rot(a, y, u, k, start)

    monkeypatch.setattr(solvers, "solve_rot", recording_rot)
    exp = ExperimentConfig(m=100, n=200, k_grid=(20,), seed=seed)
    for trial in trials:
        solve(make_trial_problem(exp, 20, 40, "pgrotp", trial), "pgrotp")
    monkeypatch.setattr(solvers, "solve_rot", rot)
    return calls


def test_solve_rot_objective_and_gap_come_from_the_returned_weights(monkeypatch):
    # one residual serves the last gap test and the objective: on
    # phase-sized calls (t <= m), converged and at the cap, both are what the
    # returned w gives, bit for bit
    calls = _recorded_rot_calls(monkeypatch, 1, range(4))
    capped = converged = 0
    for cap in (operators.ROT_MAX_ITERATIONS, 3):
        monkeypatch.setattr(operators, "ROT_MAX_ITERATIONS", cap)
        for a, y, u, k, start in calls:
            assert np.count_nonzero(u) <= y.size
            sol = solve_rot(a, y, u, k, start)
            capped += not sol.converged
            converged += sol.converged
            objective, gap = _kernel_objective_and_gap(a, y, u, k, sol)
            assert sol.objective == objective
            assert sol.gap == max(gap, 0.0)
    assert capped >= 5 and converged >= 10


def test_solve_rot_clamps_a_gap_negative_by_rounding(monkeypatch):
    # found by search: the second ROT call of this phase instance minimises
    # f to rounding, and its Frank-Wolfe gap rounds to -1.3e-15
    a, y, u, k, start = _recorded_rot_calls(monkeypatch, 2, [24])[1]
    sol = solve_rot(a, y, u, k, start)
    _, gap = _kernel_objective_and_gap(a, y, u, k, sol)
    assert gap < 0.0
    assert sol.converged and sol.gap == 0.0
    assert f"{sol.gap:.3e}" == "0.000e+00"


@pytest.mark.parametrize("m, n, k, t", [
    (12, 20, 3, 6),   # lo = 0: w_S = 0 is optimal
    (10, 8, 4, 6),    # lo = 2: weight is forced onto S
    (6, 10, 3, 10),   # t = n > m: lo = hi = k, B^T B singular
    (6, 12, 4, 10),   # t > m with lo = 2: B has a null vector there
])
def test_solve_rot_zero_measurements(m, n, k, t):
    # y = 0: the gap bound's floor, the largest squared column norm of B,
    # keeps it above rounding where weight on S leaves f(w) > 0 or B w ~ 0
    rng = np.random.default_rng(130 + t)
    for _ in range(3):
        a = rng.standard_normal((m, n)) / np.sqrt(m)
        u = np.zeros(n)
        u[rng.choice(n, size=t, replace=False)] = rng.standard_normal(t)
        y = np.zeros(m)
        sol = solve_rot(a, y, u, k)
        _assert_certified(a, y, u, k, sol)
        assert abs(sol.w.sum() - k) <= 1e-9 * k
        assert np.all(sol.w >= 0.0) and np.all(sol.w <= 1.0)
        if t <= m:
            supp = np.flatnonzero(u)
            oracle = _rot_pattern_oracle(a[:, supp] * u[supp], y,
                                         max(0, k - (n - t)), min(k, t))
            assert sol.objective == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("y", [np.zeros(4), np.ones(4)])
def test_solve_rot_zero_columns_on_the_support(y):
    # B = A[:, S] diag(u_S) = 0 while A is not: the uniform weights, no step
    a = np.zeros((4, 6))
    a[:, [1, 4]] = 1.0
    u = np.array([0.0, 0.0, 2.0, -1.0, 0.0, 3.0])
    sol = solve_rot(a, y, u, 2)
    assert sol.converged and sol.gap == 0.0 and sol.iterations == 0
    np.testing.assert_array_equal(sol.w, np.full(6, 2 / 6))


def test_operators_takes_no_eigendecomposition():
    # solve_rot's certificate needs no L, dependent columns take a proximal
    # term, not an SVD null space, and no Cholesky test decides the first
    # round's: the crash's face solves are the kernel's only factorizations
    tree = ast.parse(Path(operators.__file__).read_text(encoding="utf-8"))
    calls = {ast.unparse(node.func).rsplit(".", 1)[-1]
             for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert not calls & {"eig", "eigh", "eigvals", "eigvalsh", "svd",
                        "cholesky"}


def _recorded_crashes(monkeypatch) -> list:
    """The list that every later _pdas_crash call appends its (sign-test
    scale, iterations, settled) to."""
    crashes = []
    crash = operators._pdas_crash

    def recording_crash(gram, corr, bound, upper, k, scale, cap):
        w, iterations, settled = crash(gram, corr, bound, upper, k, scale, cap)
        crashes.append((scale, iterations, settled))
        return w, iterations, settled

    monkeypatch.setattr(operators, "_pdas_crash", recording_crash)
    return crashes


def test_solve_rot_ends_certified_where_the_crash_cycles(monkeypatch):
    # found by search: from the cold start, the first round's crash returns
    # to an earlier partition well before the round's cap of 30, so it stops
    # unsettled, and the kernel retries with a proximal term
    rng = np.random.default_rng(0)
    t, m, n, k = 4, 5, 5, 2
    a = rng.standard_normal((m, n))
    y = rng.standard_normal(m)
    u = np.zeros(n)
    u[:t] = rng.standard_normal(t)
    crashes = _recorded_crashes(monkeypatch)
    sol = solve_rot(a, y, u, k)
    (_, iterations, settled), *retries = crashes
    assert not settled
    assert 2 <= iterations < 30
    assert retries
    assert sol.iterations == sum(steps for _, steps, _ in crashes)
    _assert_certified(a, y, u, k, sol)
    oracle = _rot_pattern_oracle(a[:, :t] * u[:t], y, max(0, k - (n - t)), k)
    assert sol.objective == pytest.approx(oracle, abs=1e-10)


@pytest.mark.parametrize("n, k, t", [(7, 3, 5), (9, 4, 3), (6, 2, 6), (10, 3, 7)])
def test_solve_rot_settled_crash_takes_no_kernel_step(n, k, t, monkeypatch):
    # B has full column rank (t <= m), so the first round runs the crash on
    # f itself: if it settles, its point minimises f, the gap test passes,
    # and no second round follows
    crashes = _recorded_crashes(monkeypatch)
    rng = np.random.default_rng(80 + 10 * n + t)
    settled = 0
    for _ in range(6):
        m = int(rng.integers(t, t + 3))
        a = rng.standard_normal((m, n)) / np.sqrt(m)
        y = rng.standard_normal(m)
        u = np.zeros(n)
        u[rng.choice(n, size=t, replace=False)] = rng.standard_normal(t)
        supp = np.flatnonzero(u)
        oracle = _rot_pattern_oracle(a[:, supp] * u[supp], y,
                                     max(0, k - (n - t)), min(k, t))
        for start in (None, rng.uniform(-0.5, 1.5, n)):
            crashes.clear()
            sol = solve_rot(a, y, u, k, start)
            _assert_certified(a, y, u, k, sol)
            assert sol.objective == pytest.approx(oracle, abs=1e-10)
            assert sol.iterations == sum(steps for _, steps, _ in crashes)
            (_, _, first_settled), *later = crashes
            if first_settled:
                settled += 1
                assert not later
    assert settled >= 3  # the first crash can also cycle


def _largest_squared_column_norm(a, u) -> float:
    """c = max_j ||B e_j||^2 for B = A diag(u)."""
    return float(((a * u) ** 2).sum(axis=0).max())


def test_solve_rot_phase_calls_run_one_crash_on_f_itself(monkeypatch):
    # the phase-pgrotp path: t <= q + k = 60 < m = 100, and every call runs
    # one crash, on f itself (eps = 0, so its sign-test scale is 2c), which
    # settles on the minimiser.  A change that adds proximal rounds or a
    # second crash to these calls fails here
    crashes = _recorded_crashes(monkeypatch)
    per_call = []
    rot = solvers.solve_rot

    def recording_rot(a, y, u, k, start):
        crashes.clear()
        sol = rot(a, y, u, k, start)
        per_call.append((_largest_squared_column_norm(a, u), list(crashes), sol))
        return sol

    monkeypatch.setattr(solvers, "solve_rot", recording_rot)
    exp = ExperimentConfig(m=100, n=200, k_grid=(20,), seed=1)
    for trial in range(3):
        solve(make_trial_problem(exp, 20, 40, "pgrotp", trial), "pgrotp")
    assert len(per_call) >= 9
    for c, calls, sol in per_call:
        [(scale, iterations, settled)] = calls
        # eps >= 1e-8 c would move the scale by at least 1e-8 relative
        assert scale == pytest.approx(2.0 * c, rel=1e-12)
        assert settled and sol.converged and sol.iterations == iterations


def test_solve_rot_releases_a_wrong_face_from_a_settled_crash(monkeypatch):
    # a first round that settles on the wrong face, w_0 at 0, and returns
    # that face's exact minimiser: the gap test fails, and the later rounds
    # must release w_0
    rng = np.random.default_rng(90)
    m, n, k = 12, 5, 2
    a = rng.standard_normal((m, n)) / np.sqrt(m)
    u = np.ones(n)
    y = a @ np.full(n, k / n) + 0.01 * rng.standard_normal(m)
    gram, corr = a.T @ a, a.T @ y
    # w_0 = 0 and G_FF w_F + sigma / 2 = corr_F with sum(w_F) = k: t = n,
    # so o's box is [0, 0] and o is bound too
    kkt = np.ones((n, n))
    kkt[:-1, :-1] = gram[1:, 1:]
    kkt[-1, -1] = 0.0
    face_w = np.append(0.0, np.linalg.solve(kkt, np.append(corr[1:], k))[:-1])
    assert np.all(face_w[1:] > 0.0) and np.all(face_w[1:] < 1.0)
    crashes = []
    crash = operators._pdas_crash

    def wrong_crash(gram, corr, bound, upper, k, scale, cap):
        crashes.append(cap)
        if len(crashes) == 1:
            return face_w.copy(), 2, True
        return crash(gram, corr, bound, upper, k, scale, cap)

    monkeypatch.setattr(operators, "_pdas_crash", wrong_crash)
    sol = solve_rot(a, y, u, k)
    assert len(crashes) >= 2
    assert sol.iterations > 2  # the fake round's two, then the later rounds'
    _assert_certified(a, y, u, k, sol)
    assert sol.w[0] > 0.0
    oracle = _rot_pattern_oracle(a, y, k, k)
    assert sol.objective == pytest.approx(oracle, abs=1e-10)
    r = y - a @ face_w
    assert float(r @ r) > oracle + 1e-6  # the wrong face is worse


def test_solve_rot_runs_the_crash_where_t_exceeds_m(monkeypatch):
    # rot's subproblems have t = n = 80 > m = 40, so B^T B is singular: the
    # crash serves them too, in proximal rounds, on every subproblem
    crashes = _recorded_crashes(monkeypatch)
    per_call = []
    rot = solvers.solve_rot

    def recording_rot(a, y, u, k, start):
        before = len(crashes)
        sol = rot(a, y, u, k, start)
        per_call.append((np.count_nonzero(u), y.size, crashes[before:], sol))
        return sol

    monkeypatch.setattr(solvers, "solve_rot", recording_rot)
    exp = ExperimentConfig(m=40, n=80, k_grid=(6,), seed=7)
    solve(make_trial_problem(exp, 6, 12, "rot", 0), "rot")
    assert len(per_call) >= 2
    for t, m, rounds, sol in per_call:
        assert t > m and rounds
        assert sol.converged
        assert sol.iterations == sum(steps for _, steps, _ in rounds)


def test_solve_rot_crash_settles_where_its_test_binds_every_variable(
        monkeypatch):
    # found by search on the seed-7 golden grid: the second ROT call of
    # these pgrot solves (t <= m) has a crash whose z-test binds every
    # variable, cold and from its start.  Freeing the weight nearest its box
    # lets that crash settle, on the minimiser
    calls = []
    rot = solvers.solve_rot

    def recording_rot(a, y, u, k, start):
        calls.append((a, y, u, k, start))
        return rot(a, y, u, k, start)

    monkeypatch.setattr(solvers, "solve_rot", recording_rot)
    crashes = _recorded_crashes(monkeypatch)
    exp = ExperimentConfig(m=40, n=80, k_grid=(3,), seed=7)
    for trial in (1, 2):
        calls.clear()
        solve(make_trial_problem(exp, 3, 6, "pgrot", trial), "pgrot")
        a, y, u, k, start = calls[1]
        assert np.count_nonzero(u) <= y.size
        for s in (None, start):
            crashes.clear()
            sol = solve_rot(a, y, u, k, s)
            [(_, iterations, settled)] = crashes
            assert settled and sol.iterations == iterations
            _assert_certified(a, y, u, k, sol)


def _assert_warm_start_matches_cold(a, y, u, k, start, cold):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = solve_rot(a, y, u, k, start)
    _assert_certified(a, y, u, k, sol)
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


def test_solve_rot_restarted_at_its_minimiser_takes_no_iteration():
    # the returned sum is k only up to rounding: a start there must keep its
    # weights at 0 and 1, not project them off their bounds.  Its gap is
    # then the one the first call stopped at, and no round runs, whether B
    # has full column rank (t + 2 rows) or not (t - 2 rows)
    for seed, rows, t_end in ((70, 2, 13), (71, -2, 12)):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            t = int(rng.integers(6, t_end))
            a = rng.standard_normal((t + rows, 12))
            y = rng.standard_normal(t + rows)
            u = np.zeros(12)
            u[rng.choice(12, size=t, replace=False)] = rng.standard_normal(t)
            cold = solve_rot(a, y, u, 4)
            sol = solve_rot(a, y, u, 4, cold.w)
            assert sol.converged and sol.iterations == 0, (t, sol.iterations)
            np.testing.assert_array_equal(sol.w, cold.w)
            assert sol.objective == cold.objective and sol.gap == cold.gap


def test_solve_rot_projects_an_out_of_range_start_unclipped(monkeypatch):
    # the clipped start sums to 5 > hi = 3: the start is projected from its
    # entries before the clip
    calls = []
    project = operators.project_capped_simplex

    def recording_project(v, total):
        calls.append((v.copy(), total))
        return project(v, total)

    monkeypatch.setattr(operators, "project_capped_simplex", recording_project)
    rng = np.random.default_rng(61)
    n, k, t = 7, 3, 5
    for m in (t + 1, t - 1):  # eps = 0, and a proximal term
        a = rng.standard_normal((m, n)) / np.sqrt(m)
        y = rng.standard_normal(m)
        u = np.zeros(n)
        u[:t] = rng.standard_normal(t)
        start = np.array([2.0, 1.0, 0.9, 3.0, 1.5, 0.8, 4.0])
        calls.clear()
        sol = solve_rot(a, y, u, k, start)
        v, total = calls[0]
        np.testing.assert_array_equal(v, start[:t])
        assert total == k
        _assert_certified(a, y, u, k, sol)


def test_solve_rot_rejects_start_of_wrong_length():
    a = np.ones((3, 6))
    for u in (np.ones(6), np.zeros(6)):  # also where the start goes unused
        with pytest.raises(ValueError, match="start"):
            solve_rot(a, np.ones(3), u, 2, np.ones(5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("m", [60, 30])
def test_solve_rot_rejects_non_finite_start(bad, m):
    # n = 40 and a dense u: t = 40 <= m = 60 starts with eps = 0, t > m = 30
    # with a proximal term; both check the start before they use it
    rng = np.random.default_rng(100 + m)
    a = rng.standard_normal((m, 40))
    y = rng.standard_normal(m)
    u = rng.standard_normal(40)
    start = np.full(40, 5 / 40)
    start[7] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="start entries must be finite"):
            solve_rot(a, y, u, 5, start)


@pytest.mark.parametrize("subproblem", [solve_rot, exact_optimal_threshold],
                         ids=["solve_rot", "exact_optimal_threshold"])
@pytest.mark.parametrize("where", ["a", "y", "u"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("k", [0, 2, 6])  # k = 0 and k = n return early
def test_subproblems_reject_non_finite_input(subproblem, where, bad, k):
    # a non-finite entry of y, of u, or of a column of A on supp(u) used to
    # come back certified (converged, gap 0) or with fewer than k ones; it
    # is rejected before any work, with no RuntimeWarning
    rng = np.random.default_rng(140)
    a = rng.standard_normal((4, 6))
    y = rng.standard_normal(4)
    u = rng.standard_normal(6)
    u[5] = 0.0
    a[:, 5] = np.nan  # off supp(u): A is not checked there
    {"a": a[1], "y": y, "u": u}[where][2] = bad
    with pytest.raises(ValueError, match="must be finite"):
        subproblem(a, y, u, k)


@pytest.mark.parametrize("subproblem", [solve_rot, exact_optimal_threshold],
                         ids=["solve_rot", "exact_optimal_threshold"])
@pytest.mark.parametrize("where", ["y", "u"])
def test_subproblems_reject_non_finite_input_where_b_is_zero(subproblem, where):
    # A[:, S] = 0, so B = 0 and solve_rot returns early: the check comes first
    a = np.zeros((4, 6))
    a[:, [1, 4]] = 1.0
    u = np.array([0.0, 0.0, 2.0, -1.0, 0.0, 3.0])
    y = np.array([1.0, 0.5, 0.0, 2.0])
    {"y": y, "u": u}[where][{"y": 1, "u": 3}[where]] = np.nan
    with pytest.raises(ValueError, match="must be finite"):
        subproblem(a, y, u, 2)


@pytest.mark.parametrize("subproblem", [solve_rot, exact_optimal_threshold],
                         ids=["solve_rot", "exact_optimal_threshold"])
@pytest.mark.parametrize("k", [0, 2, 6])
def test_subproblems_reject_an_inf_of_a_that_meets_a_zero_of_y(subproblem, k):
    # inf * 0 makes that entry of B^T y NaN, which the check catches too;
    # numpy may warn of the invalid product first
    a = np.random.default_rng(141).standard_normal((4, 6))
    a[1, 2] = np.inf
    y = np.array([1.0, 0.0, -2.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError, match="must be finite"):
            subproblem(a, y, np.ones(6), k)


@pytest.mark.parametrize("subproblem", [solve_rot, exact_optimal_threshold],
                         ids=["solve_rot", "exact_optimal_threshold"])
@pytest.mark.parametrize("k", [0, 2, 6])
def test_subproblems_reject_inf_and_minus_inf_in_one_column_of_a(subproblem,
                                                                 k):
    # inf * 1 + (-inf) * 0.5 makes that entry of B^T y NaN, which the check
    # catches; numpy may warn of the invalid sum first
    a = np.random.default_rng(142).standard_normal((4, 6))
    a[[0, 3], 2] = [np.inf, -np.inf]
    y = np.array([1.0, -1.5, -2.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError, match="must be finite"):
            subproblem(a, y, np.ones(6), k)


def _duplicated_columns(rng, m=6):
    a = rng.standard_normal((m, 10)) / np.sqrt(m)
    a[:, 1] = a[:, 0]
    a[:, 5] = -2.0 * a[:, 3]
    u = rng.standard_normal(10)
    u[1] = u[0]
    u[9] = 0.0  # t = 9 < n: the sum is an inequality
    return a, u


def _tall_duplicated_columns(rng):
    # t = 9 <= m = 12, but B has rank 7: the first crash runs on f itself,
    # and a singular face sends the kernel to a proximal retry
    return _duplicated_columns(rng, m=12)


def _wide(rng):  # t = 10 > m = 4
    return rng.standard_normal((4, 10)) / 2.0, rng.standard_normal(10)


@pytest.mark.parametrize("make", [_duplicated_columns, _tall_duplicated_columns,
                                  _wide])
@pytest.mark.parametrize("k", [2, 5])
def test_solve_rot_exactly_singular_gram(make, k):
    rng = np.random.default_rng(41 + k)
    for _ in range(8):
        a, u = make(rng)
        y = rng.standard_normal(a.shape[0])
        sol = solve_rot(a, y, u, k)
        _assert_certified(a, y, u, k, sol)
        assert abs(sol.w.sum() - k) <= 1e-9 * k
        assert np.all(sol.w >= 0) and np.all(sol.w <= 1)
        _, x = exact_optimal_threshold(a, y, u, k)
        assert sol.objective <= float(np.linalg.norm(y - a @ x) ** 2) + 1e-6


def test_crash_ends_unsettled_at_a_singular_face_or_a_non_finite_point():
    # every variable free, so the first face is all of gram.  One LU finds
    # exactly singular ends the crash at that iteration, unsettled; one it
    # solves to infinities (a subnormal gram) repeats its partition, but a
    # non-finite point never counts as settled
    bound = np.zeros(3, dtype=np.int8)
    upper = np.array([1.0, 1.0, 1.0])
    _, iterations, settled = operators._pdas_crash(
        np.ones((2, 2)), np.ones(2), bound, upper, 1, 2.0, 30)
    assert (iterations, settled) == (1, False)
    with np.errstate(all="ignore"):
        w, iterations, settled = operators._pdas_crash(
            np.full((2, 2), 1e-320), np.ones(2), bound, upper, 1, 2.0, 30)
    assert not np.isfinite(w).all()
    assert (iterations, settled) == (1, False)


@pytest.mark.parametrize("k", [2, 5])
def test_solve_rot_retries_a_singular_first_crash_with_a_proximal_term(
        k, monkeypatch):
    # t = 9 <= m = 12, so the first crash runs on f itself (eps = 0, scale
    # 2c), though B has rank 7.  From the uniform start every weight is free,
    # so its first face is all of B^T B: LU raises where the duplicated
    # column leaves an exact zero pivot, or, where rounding hides it or the
    # scaled duplicate (column 5 = -2 column 3) leaves a tiny one, returns a
    # garbage face.  A crash that does not settle is retried with eps =
    # 1e-6 c, and the solve still ends certified, with no RuntimeWarning
    crashes = _recorded_crashes(monkeypatch)
    rng = np.random.default_rng(41 + k)
    unsettled = 0
    for _ in range(8):
        a, u = _tall_duplicated_columns(rng)
        y = rng.standard_normal(a.shape[0])
        crashes.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol = solve_rot(a, y, u, k)
        _assert_certified(a, y, u, k, sol)
        assert sol.iterations == sum(steps for _, steps, _ in crashes)
        c = _largest_squared_column_norm(a, u)
        (scale, _, settled), *later = crashes
        assert scale == pytest.approx(2.0 * c, rel=1e-12)
        if not settled:
            unsettled += 1
            assert later[0][0] == pytest.approx(2.0 * (c + 1e-6 * c),
                                                rel=1e-12)
    assert unsettled >= 4


def test_solve_rot_nearly_dependent_columns():
    # t = 10 > m = 6, so every round is proximal; a column 3e-7 from zero
    # and one 3e-7 from a copy leave its matrix nearly, not exactly,
    # singular, and the solve must still end certified
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
            _assert_certified(a, y, u, k, sol)
            _, x = exact_optimal_threshold(a, y, u, k)
            assert sol.objective <= float(np.linalg.norm(y - a @ x) ** 2) + 1e-6


def test_solve_rot_step_cap_on_singular_gram(monkeypatch):
    a, u = _wide(np.random.default_rng(43))
    y = np.random.default_rng(44).standard_normal(4)
    monkeypatch.setattr(operators, "ROT_MAX_ITERATIONS", 1)
    sol = solve_rot(a, y, u, 3)
    assert not sol.converged and sol.iterations == 1
    assert sol.gap == pytest.approx(_frank_wolfe_gap(a, y, u, sol, 3),
                                    rel=1e-6)


@pytest.mark.parametrize("u", [np.zeros(6), np.arange(1.0, 7.0)])
def test_solve_rot_constant_objective_converges(u):
    # empty supp(u), or B = A diag(u) = 0: any feasible w is a minimizer
    a = np.zeros((4, 6))
    sol = solve_rot(a, np.ones(4), u, 2)
    assert sol.converged and sol.gap == 0.0
    assert abs(sol.w.sum() - 2) <= 1e-12
    assert np.all(sol.w >= 0) and np.all(sol.w <= 1)


def test_partition_clauses():
    upper = np.array([1.0, 1.0, 1.0, 2.0])
    # -1 at or below low, +1 at or above high, free between, as int8
    bound = operators._partition(np.array([-0.5, 0.5, 1.0, 0.0]), 0.0, upper)
    assert bound.dtype == np.int8
    np.testing.assert_array_equal(bound, [-1, 0, 1, -1])
    np.testing.assert_array_equal(
        operators._partition(np.array([0.1, 0.9, 0.5, 1.5]),
                             np.array([0.0, 0.0, 0.0, 0.5]),
                             np.array([1.0, 0.9, 1.0, 1.5])), [0, 1, 0, 1])
    # high[-1] <= 0 (o's box is [0, 0] when t = n): o stays at 0
    for o in (-1.0, 0.0, 0.5, 3.0):
        bound = operators._partition(np.array([0.5, 0.2, o]), 0.0,
                                     np.array([1.0, 1.0, 0.0]))
        np.testing.assert_array_equal(bound, [0, 0, -1])
    # every variable bound: the weight nearest its box [0, 1] is freed, the
    # first on a tie, and never o
    np.testing.assert_array_equal(
        operators._partition(np.array([-0.3, 1.1, -0.05, 2.5]), 0.0, upper),
        [-1, 1, 0, 1])
    np.testing.assert_array_equal(
        operators._partition(np.array([0.0, 1.0, 0.0, 0.0]), 0.0, upper),
        [0, 1, -1, -1])
    np.testing.assert_array_equal(
        operators._partition(np.array([-2.0, 1.5, 5.0]), 0.0,
                             np.array([1.0, 1.0, 0.0])), [-1, 0, -1])


def _inline_start_partition(w, k, n):
    """A start's partition as solve_rot wrote it inline before
    ``_partition``, kept as the oracle: -1 at 0, +1 at 1, o at an end of
    its box to t ulps (at 0 for good when t = n), and the first weight freed
    where all t + 1 variables are bound."""
    t = w.size
    ulps = t * np.finfo(float).eps
    bound = np.empty(t + 1, dtype=np.int8)
    bound[:t] = (w == 1.0).astype(np.int8) - (w == 0.0)
    o = k - w.sum()
    bound[t] = -1 if t == n or o <= ulps else 1 if o >= n - t - ulps else 0
    all_bound = bool(bound.all())
    if all_bound:
        bound[0] = 0
    return bound, all_bound


def _inline_crash_partition(z, upper):
    """A crash iteration's partition as _pdas_crash wrote it inline before
    ``_partition``, kept as the oracle."""
    t = z.size - 1
    bound = (z >= upper).astype(np.int8) - (z <= 0.0)
    if upper[t] == 0.0:
        bound[t] = -1
    if bound.all():
        bound[np.argmin(np.maximum(-z[:t], z[:t] - 1.0))] = 0
    return bound


def _sum_near(total: int, t: int, shift: int) -> np.ndarray:
    """t weights in [0, 1], some exactly 0 and 1, whose float sum is off
    ``total``, 0 < total < t, by rounding alone: less than t ulps, in the
    direction of ``shift``."""
    w = np.zeros(t)
    w[:total] = 1.0
    w[0], w[-1] = 0.75, 0.25 + shift * 0.5 * t * np.finfo(float).eps
    return w


@pytest.mark.parametrize("n, k, t", [(8, 3, 5), (8, 3, 8), (6, 3, 5),
                                     (9, 4, 6)])
def test_start_partition_matches_the_inline_rule(n, k, t, monkeypatch):
    # every start and every settled point is partitioned as the inline rule
    # did, bit for bit, and so is every crash iteration's z
    calls = []
    partition = operators._partition

    def recording(v, low, high):
        bound = partition(v, low, high)
        calls.append((v.copy(), np.ndim(low), np.array(high), bound))
        return bound

    monkeypatch.setattr(operators, "_partition", recording)
    rng = np.random.default_rng(150 + 10 * n + t)
    lo, hi = max(0, k - (n - t)), min(k, t)
    ulps = t * np.finfo(float).eps
    starts = [None]
    for _ in range(6):
        starts.append(rng.uniform(-0.5, 1.5, n))
        exact = rng.uniform(0.0, 1.0, n)  # exact 0 and 1 entries
        exact[rng.choice(n, size=n // 2, replace=False)] = rng.integers(0, 2,
                                                                         n // 2)
        starts.append(exact)
    for total in (lo, hi):  # all-bound starts where lo or hi is an integer
        w = np.zeros(n)
        w[:total] = 1.0
        starts.append(w)
        for shift in (-1, 1) if total else ():  # sums at lo and hi
            w_s = _sum_near(total, t, shift)
            assert 0.0 < shift * (w_s.sum() - total) <= ulps
            starts.append(np.concatenate((w_s, rng.uniform(0.0, 1.0, n - t))))
    all_bound = at_ends = 0
    for start in starts:
        m = t + int(rng.integers(-1, 2))  # eps = 0, and a proximal term
        a = rng.standard_normal((m, n)) / np.sqrt(m)
        y = rng.standard_normal(m)
        u = np.zeros(n)
        u[:t] = rng.standard_normal(t)
        calls.clear()
        sol = solve_rot(a, y, u, k, start)
        _assert_certified(a, y, u, k, sol)
        assert calls and calls[0][1] == 1  # the start is partitioned first
        for v, ndim, high, bound in calls:
            if ndim:  # a start or a settled point, against its edges
                w = v[:t]
                assert v[t] == k - w.sum()
                oracle, bound_all = _inline_start_partition(w, k, n)
                all_bound += bound_all
                at_ends += bound[t] != 0 and t < n
            else:  # a crash iteration, against [0, upper]
                oracle = _inline_crash_partition(v, high)
            assert bound.tobytes() == oracle.tobytes()
    assert all_bound and (at_ends or t == n)
