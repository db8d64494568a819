import dataclasses
import re

import numpy as np
import pytest

from pgthresh import (ALGORITHM_IDS, MAX_ITERATIONS, RECOVERY, RESIDUAL,
                      ProblemInstance, SolverConfig, check_recovery,
                      hard_threshold, least_squares_on_support, pgot_step,
                      residual_norm, solve, solve_rot, top_k_support)
from pgthresh import operators, solvers
from pgthresh.bench import ExperimentConfig, make_trial_problem
from pgthresh.solvers import _partial_gradient_point


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


def test_iht_normalized_step_is_exact_inverse_lipschitz(monkeypatch):
    # A = 3 I: lam = 1 / ||A||_2^2 = 1/9 maps y = 3 x* to x* in one step,
    # which an estimated or padded ||A||_2^2 misses by more than the tolerance
    monkeypatch.setattr(solvers, "RECOVERY_TOLERANCE", 1e-12)
    x_star = np.array([0.0, 2.0, 0.0, -1.0, 0.0, 0.0])
    problem = ProblemInstance(3 * np.eye(6), 3 * x_star, k=2, q=2, truth=x_star)
    cfg = SolverConfig(normalize_stepsize=True)
    report = solve(problem, "iht", cfg)
    assert report.termination == RECOVERY and report.iterations == 1
    zero = ProblemInstance(np.zeros((3, 5)), np.ones(3), k=2, q=2)
    assert np.all(solve(zero, "iht", cfg).final_x == 0)


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
    # pgot_step and solve(..., "pgot") take the same step
    problem = dataclasses.replace(_planted(8, 12, 2, 4, seed=3, sigma=0.1),
                                  truth=None)
    x = np.zeros(problem.n)
    for p in range(1, 4):
        x = pgot_step(problem.a, problem.y, x, problem.k, problem.q)
        report = solve(problem, "pgot", SolverConfig(max_iterations=p))
        assert report.iterations == p
        assert x.tobytes() == report.final_x.tobytes()


def test_omp_desk_recovery():
    report = solve(_planted(100, 200, 5, 10, seed=3), "omp")
    assert report.termination == RECOVERY


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
    # the loop's own recovery test and trace objective agree with the public
    # helpers; the exhaustive pgot / ot subproblems need a smaller instance
    for seed in range(10):
        problem = (_planted(8, 12, 2, 4, seed=seed) if algo in ("pgot", "ot")
                   else _planted(20, 40, 4, 8, seed=seed))
        report = solve(problem, algo, SolverConfig(max_iterations=10))
        assert ((report.termination == RECOVERY)
                == check_recovery(report.final_x, problem.truth, 1e-3))
        assert report.trace[-1].objective == residual_norm(
            problem.a, problem.y, report.final_x)


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
            r"\(kkt_residual=\d\.\d{3}e[+-]\d+\)", event)
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
    assert warm_steps < cold_steps


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


def test_max_iterations_termination():
    problem = _planted(10, 30, 8, 16, seed=2)
    report = solve(problem, "iht", SolverConfig(max_iterations=3))
    if report.termination == MAX_ITERATIONS:
        assert report.iterations == 3
    assert len(report.trace) == report.iterations + 1


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        solve(_identity_problem(4, 1), "nope")
