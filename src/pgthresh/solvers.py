"""Partial-gradient optimal-thresholding solvers and greedy baselines.

Implements PGOT (exhaustive binary thresholding), PGROT (convex relaxation),
PGROTP (relaxation plus pursuit step) and the IHT / OMP / SP baselines, all
behind a shared iteration/stopping harness.  The q = n reductions OT, ROT and
ROTP are the same algorithms with the partial-gradient width forced to n.
"""

from __future__ import annotations

import dataclasses
import itertools
from math import comb

import numpy as np

from . import linalg
from .model import (MAX_ITERATIONS, RECOVERY, RESIDUAL, STALLED,
                    ProblemInstance, SolverConfig, SolverReport, TraceEntry)
from .operators import (EXHAUSTIVE_LIMIT, ExhaustiveLimitError, _check_k,
                        hard_threshold, solve_rot, top_k_support)

ALGORITHM_IDS = ("pgot", "pgrot", "pgrotp", "ot", "rot", "rotp",
                 "iht", "omp", "sp")

# q = n reductions: full-gradient counterparts of the partial-gradient methods
_FULL_GRADIENT_ALIASES = {"ot": "pgot", "rot": "pgrot", "rotp": "pgrotp"}


def check_recovery(x, x_star, tol: float = 1e-3) -> bool:
    """Relative-error recovery criterion ||x - x*|| / ||x*|| <= tol (inclusive).

    For x* = 0 the criterion degenerates to ||x|| <= tol.
    """
    x = np.asarray(x, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    denom = np.linalg.norm(x_star)
    if denom == 0.0:
        return float(np.linalg.norm(x)) <= tol
    return float(np.linalg.norm(x - x_star)) / denom <= tol


def _partial_gradient_point(problem: ProblemInstance, x: np.ndarray,
                            g: np.ndarray) -> np.ndarray:
    """u = x + lam * H_q(g), with g = A^T (y - A x) the gradient at x."""
    return x + problem.lam * hard_threshold(g, problem.q)


def optimal_threshold_on_support(a, y, u, k: int):
    """Binary optimal k-thresholding: min ||y - A (u * w)||_2^2 over w in
    {0,1}^n with exactly k ones.

    Since the objective depends on w only where u is nonzero, enumeration is
    restricted to supports inside supp(u); the exactly-k-ones pattern is
    recovered by padding with lowest-index zero positions of u.  All support
    sizes compatible with a k-ones pattern are enumerated, in lexicographic
    order keeping the first minimizer, so the result is a global minimizer
    of the full binary problem.  Returns (w, x) with x = u * w.
    """
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    n = u.size
    _check_k(k, n)
    supp = np.flatnonzero(u)
    t = supp.size
    j_max = min(k, t)
    j_min = max(0, k - (n - t))
    total = sum(comb(t, j) for j in range(j_min, j_max + 1))
    if total > EXHAUSTIVE_LIMIT:
        raise ExhaustiveLimitError(
            f"instance too large for exact OP: {total} patterns > {EXHAUSTIVE_LIMIT}")
    b = a[:, supp] * u[supp]
    best_obj = np.inf
    best: tuple = ()
    for j in range(j_min, j_max + 1):
        for sub in itertools.combinations(range(t), j):
            r = y - b[:, sub].sum(axis=1) if j else y
            obj = float(r @ r)
            if obj < best_obj:
                best_obj = obj
                best = sub
    chosen = supp[list(best)]
    w = np.zeros(n)
    w[chosen] = 1.0
    if chosen.size < k:
        zeros = np.setdiff1d(np.arange(n), supp)
        w[zeros[: k - chosen.size]] = 1.0
    return w, u * w


def pgot_step(a, y, x, k: int, q: int, lam: float = 1.0) -> np.ndarray:
    """One exact PGOT iteration from x (used by the theory verifier too)."""
    problem = ProblemInstance(a, y, k=k, q=q, lam=lam)
    x = np.asarray(x, dtype=float)
    g = problem.a.T @ (problem.y - problem.a @ x)
    u = _partial_gradient_point(problem, x, g)
    _, x_next = optimal_threshold_on_support(a, y, u, k)
    return x_next


def _run(problem: ProblemInstance, cfg: SolverConfig, step):
    """Shared iteration loop: x0 = 0, stopping by recovery / residual / stall.

    The only place the loop forms the residual r = y - A x: ||r|| is the
    trace objective and the residual stop, and ``step(x, g, p, events)``
    receives the gradient g = A^T r of the iterate it moves from.
    """
    a, y, truth = problem.a, problem.y, problem.truth
    denom = None if truth is None else np.linalg.norm(truth)
    x = np.zeros(problem.n)
    x_prev = None
    events: list[str] = []
    trace: list[TraceEntry] = []
    p = 0
    while True:
        r = y - a @ x
        residual = float(np.linalg.norm(r))
        rel = None
        if truth is not None:
            # check_recovery's relative error, so the test below is its test
            rel = (float(np.linalg.norm(x - truth)) / denom
                   if denom > 0 else float(np.linalg.norm(x)))
        trace.append(TraceEntry(p, residual, rel))
        if rel is not None and rel <= cfg.recovery_tolerance:
            termination = RECOVERY
        elif residual <= cfg.residual_tolerance:
            termination = RESIDUAL
        elif x_prev is not None and np.array_equal(x, x_prev):
            termination = STALLED
        elif p >= cfg.max_iterations:
            termination = MAX_ITERATIONS
        else:
            x_prev, x = x, step(x, a.T @ r, p, events)
            p += 1
            continue
        return SolverReport(final_x=x, iterations=p, trace=trace,
                            termination=termination, events=events)


def pgot(problem: ProblemInstance, cfg: SolverConfig | None = None) -> SolverReport:
    """Partial-gradient optimal k-thresholding with exhaustive subproblem."""
    cfg = cfg or SolverConfig()

    def step(x, g, p, events):
        u = _partial_gradient_point(problem, x, g)
        _, x_next = optimal_threshold_on_support(problem.a, problem.y, u,
                                                 problem.k)
        return x_next

    return _run(problem, cfg, step)


def _rot_weights(problem, u, cfg, p, events):
    sol = solve_rot(problem.a, problem.y, u, problem.k, cfg)
    if not sol.converged:
        events.append(
            f"rot subproblem not converged at iteration {p + 1} "
            f"(kkt_residual={sol.kkt_residual:.3e})")
    return sol.w


def pgrot(problem: ProblemInstance, cfg: SolverConfig | None = None) -> SolverReport:
    """Relaxed partial-gradient optimal k-thresholding."""
    cfg = cfg or SolverConfig()

    def step(x, g, p, events):
        u = _partial_gradient_point(problem, x, g)
        w = _rot_weights(problem, u, cfg, p, events)
        return hard_threshold(w * u, problem.k)

    return _run(problem, cfg, step)


def pgrotp(problem: ProblemInstance, cfg: SolverConfig | None = None) -> SolverReport:
    """Relaxed partial-gradient optimal k-thresholding with pursuit step."""
    cfg = cfg or SolverConfig()

    def step(x, g, p, events):
        u = _partial_gradient_point(problem, x, g)
        w = _rot_weights(problem, u, cfg, p, events)
        support = top_k_support(w * u, problem.k)
        return linalg.least_squares_on_support(problem.a, problem.y, support)

    return _run(problem, cfg, step)


def iht(problem: ProblemInstance, cfg: SolverConfig | None = None) -> SolverReport:
    """Iterative hard thresholding x <- H_k(x + lam A^T (y - A x))."""
    cfg = cfg or SolverConfig()
    lam = problem.lam
    if cfg.normalize_stepsize:
        lmax = linalg.gram_lambda_max(problem.a)
        lam = 1.0 / lmax if lmax > 0 else lam  # A = 0: the step is moot

    def step(x, g, p, events):
        return hard_threshold(x + lam * g, problem.k)

    return _run(problem, cfg, step)


def omp(problem: ProblemInstance, cfg: SolverConfig | None = None) -> SolverReport:
    """Orthogonal matching pursuit, run for (at most) k greedy iterations."""
    cfg = cfg or SolverConfig()
    support: list[int] = []

    def step(x, g, p, events):
        corr = np.abs(g)
        corr[support] = -np.inf
        support.append(int(np.argmax(corr)))  # argmax breaks ties at lowest index
        return linalg.least_squares_on_support(problem.a, problem.y, support)

    budget = dataclasses.replace(cfg, max_iterations=problem.k)
    return _run(problem, budget, step)


def sp(problem: ProblemInstance, cfg: SolverConfig | None = None) -> SolverReport:
    """Subspace pursuit: merge top-k correlations, fit, prune to k, re-fit."""
    cfg = cfg or SolverConfig()

    def step(x, g, p, events):
        merged = np.union1d(np.flatnonzero(x), top_k_support(g, problem.k))
        z = linalg.least_squares_on_support(problem.a, problem.y, merged)
        pruned = top_k_support(z, problem.k)
        return linalg.least_squares_on_support(problem.a, problem.y, pruned)

    return _run(problem, cfg, step)


_SOLVERS = {"pgot": pgot, "pgrot": pgrot, "pgrotp": pgrotp,
            "iht": iht, "omp": omp, "sp": sp}


def solve(problem: ProblemInstance, algorithm: str,
          cfg: SolverConfig | None = None) -> SolverReport:
    """Dispatch by algorithm id; ot/rot/rotp force q = n before solving."""
    algorithm = algorithm.lower()
    if algorithm not in ALGORITHM_IDS:
        raise ValueError(f"unknown algorithm {algorithm!r}; "
                         f"expected one of {ALGORITHM_IDS}")
    if algorithm in _FULL_GRADIENT_ALIASES:
        problem = dataclasses.replace(problem, q=problem.n)
        algorithm = _FULL_GRADIENT_ALIASES[algorithm]
    return _SOLVERS[algorithm](problem, cfg)
