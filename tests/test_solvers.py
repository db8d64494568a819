import dataclasses
import re

import numpy as np
import pytest

from pgthresh import (ALGORITHM_IDS, MAX_ITERATIONS, RECOVERY, RESIDUAL,
                      STALLED, ProblemInstance, SolverConfig, check_recovery,
                      hard_threshold, least_squares_on_support, pgot_step,
                      residual_norm, solve, solve_rot, top_k_support)
from pgthresh import operators, solvers
from pgthresh.bench import ExperimentConfig, make_trial_problem
from pgthresh.solvers import _partial_gradient_point


@pytest.mark.parametrize("field, value", [
    ("k", 3.0), ("k", 2.5), ("k", True), ("q", 6.0)])
def test_problem_instance_rejects_a_non_integer_size(field, value):
    # an integral float or a bool would fail, or run as 1, deep inside a solve
    sizes = {"k": 3, "q": 6, field: value}
    with pytest.raises(ValueError, match=f"^{field}={value!r} must be an integer"):
        ProblemInstance(np.eye(8), np.ones(8), **sizes)


def test_problem_instance_takes_numpy_integer_sizes():
    problem = ProblemInstance(np.eye(8), np.ones(8), k=np.int64(3), q=np.int32(6))
    assert solve(problem, "pgrotp").final_x.shape == (8,)


@pytest.mark.parametrize("value", [2.5, 2.0, True])
def test_solver_config_rejects_a_non_integer_budget(value):
    with pytest.raises(ValueError, match=f"^max_iterations={value!r} must be"):
        SolverConfig(max_iterations=value)


def _planted(m, n, k, q, seed, sigma=0.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)) / np.sqrt(m)
    x_star = np.zeros(n)
    support = rng.choice(n, size=k, replace=False)
    x_star[support] = rng.standard_normal(k)
    y = a @ x_star
    if sigma > 0:
        # noise scaled with the matrix so the noise-to-signal ratio matches
        # the raw-ensemble protocol
        eta = sigma * rng.standard_normal(m) / np.sqrt(m)
        y = y + eta
    return ProblemInstance(a, y, k=k, q=q, truth=x_star)


def _identity_problem(n, k):
    x_star = np.zeros(n)
    x_star[:k] = np.arange(1, k + 1, dtype=float)
    return ProblemInstance(np.eye(n), x_star, k=k, q=min(2 * k, n), truth=x_star)


@pytest.mark.parametrize("algo", ["pgot", "pgrot", "pgrotp", "iht", "sp"])
def test_identity_recovery_one_iteration(algo):
    report = solve(_identity_problem(8, 2), algo)
    assert report.termination == RECOVERY
    assert report.iterations == 1


def test_omp_identity_recovery_in_k_iterations():
    report = solve(_identity_problem(8, 3), "omp")
    assert report.termination == RECOVERY
    assert report.iterations <= 3


@pytest.mark.parametrize("algo", ["pgot", "pgrot", "pgrotp", "iht", "omp", "sp"])
def test_zero_measurements_zero_iterations(algo):
    problem = ProblemInstance(np.eye(5), np.zeros(5), k=2, q=4)
    report = solve(problem, algo)
    assert report.iterations == 0
    assert report.termination == RESIDUAL
    assert np.allclose(report.final_x, 0)
    assert len(report.trace) == report.iterations + 1


def test_pgrot_k_equals_n_equals_q():
    # singleton feasible set: w = e, H_n identity, so x^1 = u^0
    problem = _planted(6, 4, 4, 4, seed=9)
    report = solve(problem, "pgrot", SolverConfig(max_iterations=1))
    u0 = _partial_gradient_point(problem, np.zeros(4),
                                 problem.a.T @ problem.y)
    assert np.allclose(report.trace[1].objective,
                       residual_norm(problem.a, problem.y, u0))


def test_pgot_desk_recovery():
    problem = _planted(8, 12, 2, 4, seed=3)
    report = solve(problem, "pgot")
    assert report.trace[-1].relative_error <= 1e-3


def test_pgrot_desk_recovery():
    problem = _planted(8, 12, 2, 4, seed=3)
    report = solve(problem, "pgrot")
    assert report.trace[-1].relative_error <= 1e-3


def test_pgrotp_desk_recovery_rate():
    hits = 0
    for seed in range(20):
        report = solve(_planted(100, 200, 10, 20, seed=seed), "pgrotp")
        hits += report.termination == RECOVERY
    assert hits >= 16  # >= 80% of noiseless trials


def test_pgrotp_noisy_rate_close_to_noiseless():
    noiseless = sum(
        solve(_planted(100, 200, 10, 20, seed=s), "pgrotp").termination == RECOVERY
        for s in range(20))
    noisy = sum(
        solve(_planted(100, 200, 10, 20, seed=s, sigma=0.001),
              "pgrotp").termination == RECOVERY
        for s in range(20))
    assert abs(noisy - noiseless) <= 2  # within 10 percentage points


def test_iht_desk_recovery():
    hits = sum(
        solve(_planted(100, 200, 5, 10, seed=s), "iht").termination == RECOVERY
        for s in range(10))
    assert hits >= 6


def test_niht_step_is_the_exact_line_search_on_the_support(monkeypatch):
    # A = 3 I: NIHT's mu = ||g_G||^2 / ||3 g_G||^2 = 1/9 maps y = 3 x* to x*
    # in one step, which a step off the exact line search misses by more
    # than the tolerance; at A = 0 the gradient is 0 and the step returns x
    monkeypatch.setattr(solvers, "RECOVERY_TOLERANCE", 1e-12)
    x_star = np.array([0.0, 2.0, 0.0, -1.0, 0.0, 0.0])
    problem = ProblemInstance(3 * np.eye(6), 3 * x_star, k=2, q=2, truth=x_star)
    cfg = SolverConfig(normalize_stepsize=True)
    report = solve(problem, "iht", cfg)
    assert report.termination == RECOVERY and report.iterations == 1
    zero = ProblemInstance(np.zeros((3, 5)), np.ones(3), k=2, q=2)
    assert np.all(solve(zero, "iht", cfg).final_x == 0)


@pytest.mark.parametrize("k", [10, 20])
def test_niht_recovers_the_bench_instances(k):
    # the fixed step 1/||A||_2^2 recovered none of these in 50 steps
    cfg = ExperimentConfig(m=100, n=200, k_grid=(k,), seed=7)
    hits = sum(
        solve(make_trial_problem(cfg, k, 2 * k, "iht", trial), "iht",
              SolverConfig(normalize_stepsize=True)).termination == RECOVERY
        for trial in range(10))
    assert hits >= 9


@pytest.mark.parametrize("m, n, k, seed", [
    (40, 80, 8, 0), (40, 80, 10, 1), (60, 120, 15, 2), (100, 200, 30, 3)])
def test_niht_trace_objective_never_rises(m, n, k, seed):
    problem = dataclasses.replace(
        _planted(m, n, k, 2 * k, seed=seed, sigma=0.05), truth=None)
    report = solve(problem, "iht", SolverConfig(normalize_stepsize=True))
    objectives = [entry.objective for entry in report.trace]
    assert all(later <= earlier * (1 + 1e-12)
               for earlier, later in zip(objectives, objectives[1:]))


def test_niht_backtracks_until_mu_passes_omega():
    # at this instance's second step, H_k(x + mu g) at the first mu leaves
    # supp(x) and fails mu <= omega; the step returns H_k(x + mu' g) for the
    # first mu' = mu / (kappa (1 - c))^j that passes, with j >= 1
    problem = _planted(8, 16, 3, 6, seed=0)
    a, y, k = problem.a, problem.y, problem.k
    step = solvers._iht(problem, SolverConfig(normalize_stepsize=True))
    x = step(np.zeros(16), a.T @ y, 0, [])
    g = a.T @ (y - a @ x)
    support = np.flatnonzero(x)
    mu = (g[support] @ g[support]) / np.sum((a[:, support] @ g[support]) ** 2)

    def passes(mu):
        x_next = hard_threshold(x + mu * g, k)
        d = x_next - x
        return (np.array_equal(np.flatnonzero(x_next), support)
                or mu * np.sum((a @ d) ** 2) <= 0.99 * (d @ d))

    assert not passes(mu)
    while not passes(mu):
        mu /= 2 * 0.99
    x_next = step(x, g, 1, [])
    assert np.allclose(x_next, hard_threshold(x + mu * g, k), rtol=1e-12, atol=0)
    assert np.linalg.norm(y - a @ x_next) < np.linalg.norm(y - a @ x)


@pytest.mark.parametrize("a, y, k, final_x, iterations", [
    # x = 0 and A^T y = 0: the support of H_k(g) is empty
    (np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([0.0, 1.0]), 1,
     np.zeros(2), 1),
    # A = I: the first step fits y on its support, so g_G = 0 at the second
    (np.eye(4), np.array([3.0, -2.0, 1.0, 0.5]), 2,
     np.array([3.0, -2.0, 0.0, 0.0]), 2)])
def test_niht_stalls_where_a_g_on_the_support_is_zero(a, y, k, final_x,
                                                      iterations):
    # A != 0, but A_G g_G = 0: the step returns x rather than divide 0 by 0
    report = solve(ProblemInstance(a, y, k=k, q=k), "iht",
                   SolverConfig(normalize_stepsize=True))
    assert report.termination == STALLED
    assert report.iterations == iterations
    assert np.array_equal(report.final_x, final_x)


@pytest.mark.parametrize("max_iterations", [1, 4, 5, 6, 50])
def test_omp_runs_k_steps_whatever_max_iterations(max_iterations):
    # noisy and without truth: neither the recovery nor the residual stop
    # fires and every step adds a column, so only the budget ends the solve
    problem = dataclasses.replace(_planted(20, 40, 5, 10, seed=4, sigma=0.1),
                                  truth=None)
    report = solve(problem, "omp", SolverConfig(max_iterations=max_iterations))
    assert report.termination == MAX_ITERATIONS
    assert report.iterations == problem.k
    assert np.count_nonzero(report.final_x) == problem.k


def test_pgot_step_is_one_pgot_iteration():
    # pgot_step and solve(..., "pgot") take the same step, bit for bit; at
    # 30 x 60 a residual from all n columns of A would differ from the
    # loop's, formed on supp(x), in its last bits, and the steps show it
    for m, n, k, q, seed in ((8, 12, 2, 4, 3), (30, 60, 4, 8, 0)):
        problem = dataclasses.replace(
            _planted(m, n, k, q, seed=seed, sigma=0.1), truth=None)
        x = np.zeros(problem.n)
        for p in range(1, 5):
            x = pgot_step(problem.a, problem.y, x, problem.k, problem.q)
            report = solve(problem, "pgot", SolverConfig(max_iterations=p))
            assert report.iterations == p
            assert x.tobytes() == report.final_x.tobytes()


def test_omp_desk_recovery():
    report = solve(_planted(100, 200, 5, 10, seed=3), "omp")
    assert report.termination == RECOVERY


def _omp_iterates(problem, steps):
    """The first ``steps`` omp iterates, by the step of omp's own builder."""
    step = solvers._omp(problem, SolverConfig())
    x = np.zeros(problem.n)
    iterates = []
    for p in range(steps):
        x = step(x, problem.a.T @ (problem.y - problem.a @ x), p, [])
        iterates.append(x)
    return iterates


def _refit_omp_iterates(problem, steps):
    """The reference: omp that refits its whole support at every step."""
    x, support, iterates = np.zeros(problem.n), [], []
    for _ in range(steps):
        corr = np.abs(problem.a.T @ (problem.y - problem.a @ x))
        corr[support] = -np.inf
        support.append(int(np.argmax(corr)))
        x = least_squares_on_support(problem.a, problem.y, support)
        iterates.append(x)
    return iterates


def _count_least_squares(monkeypatch):
    """Record the support of every least_squares_on_support call from solvers."""
    supports = []
    fit = solvers.linalg.least_squares_on_support

    def counting(a, y, support):
        supports.append(list(support))
        return fit(a, y, support)

    monkeypatch.setattr(solvers.linalg, "least_squares_on_support", counting)
    return supports


@pytest.mark.parametrize("k", [20, 40, 60])
def test_omp_grown_factor_matches_least_squares_on_wide_instances(k, monkeypatch):
    # the wide omp instances of the baseline benchmark: m=256, n=1024,
    # sigma=1e-3, seed 1, trials 0-3
    cfg = ExperimentConfig(m=256, n=1024, k_grid=(k,), sigma=1e-3, seed=1,
                           scaling="inv_sqrt_m")
    calls = _count_least_squares(monkeypatch)
    for trial in range(4):
        problem = make_trial_problem(cfg, k, 2 * k, "omp", trial)
        iterates = _omp_iterates(problem, k)
        assert not calls  # every step used the grown factor
        for j, x in enumerate(iterates, start=1):
            support = np.flatnonzero(x)
            assert support.size == j
            ref = least_squares_on_support(problem.a, problem.y, support)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_omp_well_conditioned_solve_makes_no_least_squares_call(monkeypatch):
    problem = dataclasses.replace(_planted(100, 200, 10, 20, seed=5, sigma=0.1),
                                  truth=None)
    calls = _count_least_squares(monkeypatch)
    report = solve(problem, "omp")
    assert report.iterations == problem.k
    assert calls == []


@pytest.mark.parametrize("kappa", [1e2, 1e3])
def test_omp_grown_factor_matches_lstsq_on_ill_conditioned_support(kappa,
                                                                   monkeypatch):
    # k = n columns with singular values spread over [1/kappa, 1]: omp selects
    # them all, and its last iterate is the least-squares fit on all of them
    rng = np.random.default_rng(int(kappa))
    calls = _count_least_squares(monkeypatch)
    for m, n in [(40, 12), (30, 30)]:
        u = np.linalg.qr(rng.standard_normal((m, n)))[0]
        v = np.linalg.qr(rng.standard_normal((n, n)))[0]
        a = (u * np.logspace(0.0, -np.log10(kappa), n)) @ v.T
        y = rng.standard_normal(m)
        x = _omp_iterates(ProblemInstance(a, y, k=n, q=n), n)[-1]
        ref = np.linalg.lstsq(a, y, rcond=None)[0]
        assert calls == []
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_omp_near_duplicate_column_hands_over_to_least_squares(monkeypatch):
    rng = np.random.default_rng(21)
    a = rng.standard_normal((20, 6))
    a[:, 4] = a[:, 1] + 1e-7 * rng.standard_normal(20)
    y = rng.standard_normal(20)
    problem = ProblemInstance(a, y, k=6, q=6)
    calls = _count_least_squares(monkeypatch)
    iterates = _omp_iterates(problem, 6)
    # from the step that adds the second of columns 1 and 4, every step fits
    # with least_squares_on_support, and so returns what a refit returns
    first = len(calls[0])
    assert {1, 4} <= set(calls[0]) and calls[0][-1] in (1, 4)
    assert [len(s) for s in calls] == list(range(first, 7))
    monkeypatch.undo()
    reference = _refit_omp_iterates(problem, 6)
    for x, ref in zip(iterates[first - 1:], reference[first - 1:]):
        assert x.tobytes() == ref.tobytes()


def test_omp_support_beyond_m_rows_hands_over_to_least_squares(monkeypatch):
    rng = np.random.default_rng(22)
    a = rng.standard_normal((5, 12))
    y = rng.standard_normal(5)
    problem = ProblemInstance(a, y, k=8, q=8)
    calls = _count_least_squares(monkeypatch)
    iterates = _omp_iterates(problem, 8)
    assert [len(s) for s in calls] == [6, 7, 8]
    monkeypatch.undo()
    reference = _refit_omp_iterates(problem, 8)
    for x, ref in zip(iterates[5:], reference[5:]):
        assert x.tobytes() == ref.tobytes()


def test_sp_desk_recovery():
    report = solve(_planted(100, 200, 10, 20, seed=3), "sp")
    assert report.termination == RECOVERY


@pytest.mark.parametrize("algo", ["pgot", "pgrot", "pgrotp", "iht", "omp", "sp"])
def test_outputs_are_k_sparse(algo):
    problem = _planted(10, 14, 3, 6, seed=7)
    report = solve(problem, algo)
    assert np.count_nonzero(report.final_x) <= problem.k


def test_pgrotp_pursuit_dominates_hard_thresholding():
    problem = _planted(12, 20, 3, 6, seed=15)
    x = np.zeros(20)
    for _ in range(5):
        g = problem.a.T @ (problem.y - problem.a @ x)
        u = _partial_gradient_point(problem, x, g)
        sol = solve_rot(problem.a, problem.y, u, problem.k)
        candidate = hard_threshold(sol.w * u, problem.k)
        support = top_k_support(sol.w * u, problem.k)
        x = least_squares_on_support(problem.a, problem.y, support)
        assert (residual_norm(problem.a, problem.y, x)
                <= residual_norm(problem.a, problem.y, candidate) + 1e-10)


@pytest.mark.parametrize("partial,full", [("pgot", "ot"), ("pgrot", "rot"),
                                          ("pgrotp", "rotp")])
def test_full_gradient_reduction_traces_identical(partial, full):
    problem = _planted(8, 12, 2, 12, seed=5)
    cfg = SolverConfig(max_iterations=8)
    rep_partial = solve(problem, partial, cfg)
    rep_full = solve(problem, full, cfg)
    assert rep_partial.iterations == rep_full.iterations
    assert np.array_equal(rep_partial.final_x, rep_full.final_x)
    for ep, ef in zip(rep_partial.trace, rep_full.trace):
        assert ep == ef


@pytest.mark.parametrize("algo", ALGORITHM_IDS)
def test_recovery_reported_only_when_criterion_passes(algo):
    # the loop's own recovery test agrees with the public helper, and its
    # trace objective is ||y - A[:, S] x_S|| on S = supp(x), bit for bit; the
    # exhaustive pgot / ot subproblems need a smaller instance
    for seed in range(10):
        problem = (_planted(8, 12, 2, 4, seed=seed) if algo in ("pgot", "ot")
                   else _planted(20, 40, 4, 8, seed=seed))
        report = solve(problem, algo, SolverConfig(max_iterations=10))
        assert ((report.termination == RECOVERY)
                == check_recovery(report.final_x, problem.truth, 1e-3))
        x = report.final_x
        supp = np.flatnonzero(x)
        assert report.trace[-1].objective == np.linalg.norm(
            problem.y - problem.a[:, supp] @ x[supp])


@pytest.mark.parametrize("algo", ALGORITHM_IDS)
def test_first_trace_objective_is_the_norm_of_y(algo):
    # x0 = 0 has no nonzero column to gather: r = y exactly
    problem = _planted(8, 12, 2, 4, seed=2, sigma=0.1)
    report = solve(problem, algo, SolverConfig(max_iterations=1))
    assert report.trace[0].iteration == 0
    assert report.trace[0].objective == np.linalg.norm(problem.y)


@pytest.mark.parametrize("algo", ["pgrot", "pgrotp", "rotp"])
def test_rot_nonconvergence_reported_per_iteration(algo, monkeypatch):
    problem = _planted(10, 14, 3, 6, seed=7)
    with monkeypatch.context() as patch:
        patch.setattr(operators, "ROT_MAX_ITERATIONS", 1)
        report = solve(problem, algo, SolverConfig(max_iterations=2))
    assert len(report.events) == 2
    for p, event in enumerate(report.events, start=1):
        assert re.fullmatch(
            rf"rot subproblem not converged at iteration {p} "
            r"\(gap=\d\.\d{3}e[+-]\d+\)", event)
    assert solve(problem, algo).events == []


def _rot_recorded_solve(problem, algo, monkeypatch, cold):
    """solve(problem, algo), recording each ROT call's (u, start, solution);
    cold forces every start to None."""
    calls = []
    rot = solvers.solve_rot

    def recording_rot(a, y, u, k, start=None):
        sol = rot(a, y, u, k, None if cold else start)
        calls.append((u, start, sol))
        return sol

    with monkeypatch.context() as patch:
        patch.setattr(solvers, "solve_rot", recording_rot)
        report = solve(problem, algo)
    return report, calls


@pytest.mark.parametrize("algo", ["pgrot", "pgrotp", "rot", "rotp"])
def test_rot_warm_start_from_previous_step(algo, monkeypatch):
    exp = ExperimentConfig(m=40, n=80, k_grid=(6,), seed=7)
    warm_steps = cold_steps = 0
    for trial in range(4):
        problem = make_trial_problem(exp, 6, 12, algo, trial)
        cold, cold_calls = _rot_recorded_solve(problem, algo, monkeypatch, True)
        warm, calls = _rot_recorded_solve(problem, algo, monkeypatch, False)
        assert calls[0][1] is None
        for (u, _, previous), (_, start, _) in zip(calls, calls[1:]):
            assert np.array_equal(start, previous.w * (u != 0))
        assert warm.iterations == cold.iterations
        assert warm.termination == cold.termination
        if algo in ("pgrotp", "rotp"):
            # the pursuit step reads only the support of w * u
            assert np.array_equal(warm.final_x, cold.final_x)
        else:
            # x = H_k(w * u): both w are the QP's minimiser, up to rounding
            # and the certificate's slack
            assert np.array_equal(np.flatnonzero(warm.final_x),
                                  np.flatnonzero(cold.final_x))
            assert np.allclose(warm.final_x, cold.final_x, rtol=0, atol=1e-8)
        warm_steps += sum(sol.iterations for _, _, sol in calls)
        cold_steps += sum(sol.iterations for _, _, sol in cold_calls)
    if algo in ("pgrot", "rot"):
        assert warm_steps < cold_steps
    # the warm start saves no steps on the pgrotp and rotp subproblems here:
    # pgrotp's 11 take 49 steps cold and 51 warm, and rotp's 8 take 396 cold
    # and 402 warm


def test_check_recovery_cases():
    x = np.array([1.0, 2.0])
    assert check_recovery(x, x)
    assert not check_recovery(np.zeros(2), x)
    # boundary: relative error exactly tol counts as success
    x_star = np.array([1.0, 0.0])
    assert check_recovery(np.array([1.0 + 1e-3, 0.0]), x_star, 1e-3)
    # zero truth degenerates to a norm test on x
    assert check_recovery(np.array([1e-4, 0.0]), np.zeros(2), 1e-3)
    assert not check_recovery(np.array([1.0, 0.0]), np.zeros(2), 1e-3)


def test_check_recovery_rejects_mismatched_shapes():
    # numpy used to broadcast them: ones(3) "recovered" ones(1)
    for x, x_star in ((np.ones(3), np.ones(1)), (np.ones((3, 1)), np.ones(3)),
                      (np.ones(2), np.ones(3))):
        with pytest.raises(ValueError, match="shape"):
            check_recovery(x, x_star)
    # a non-finite x still just fails to recover
    for bad in (np.nan, np.inf):
        assert not check_recovery(np.array([1.0, bad]), np.array([1.0, 0.0]))
        assert not check_recovery(np.array([bad, 0.0]), np.zeros(2))


def test_max_iterations_termination():
    problem = _planted(10, 30, 8, 16, seed=2)
    report = solve(problem, "iht", SolverConfig(max_iterations=3))
    if report.termination == MAX_ITERATIONS:
        assert report.iterations == 3
    assert len(report.trace) == report.iterations + 1


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        solve(_identity_problem(4, 1), "nope")
