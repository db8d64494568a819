"""Partial-gradient optimal-thresholding solvers and greedy baselines.

``solve(problem, algorithm_id)`` is the one way to run an algorithm.  Each
method is a step ``x -> x_next``, built per problem and run by one shared
iteration/stopping loop: PGOT (the exact binary subproblem), PGROT (its
convex relaxation), PGROTP (relaxation plus pursuit step) and the IHT / OMP
/ SP baselines.  The two subproblems live in ``operators``; a PGROT or
PGROTP solve warm-starts each relaxed subproblem after its first from the
previous step's weights.  The q = n reductions OT, ROT and ROTP are the
same algorithms with the partial-gradient width forced to n.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import linalg
from .model import (MAX_ITERATIONS, RECOVERY, RECOVERY_TOLERANCE, RESIDUAL,
                    RESIDUAL_TOLERANCE, STALLED, ProblemInstance,
                    SolverConfig, SolverReport, TraceEntry)
from .operators import (hard_threshold, optimal_threshold_on_support,
                        solve_rot, top_k_support)

ALGORITHM_IDS = ("pgot", "pgrot", "pgrotp", "ot", "rot", "rotp",
                 "iht", "omp", "sp")

# q = n reductions: full-gradient counterparts of the partial-gradient methods
_FULL_GRADIENT_ALIASES = {"ot": "pgot", "rot": "pgrot", "rotp": "pgrotp"}


def _relative_error(x: np.ndarray, x_star: np.ndarray) -> float:
    """||x - x*|| / ||x*||, or ||x|| when x* = 0."""
    denom = np.linalg.norm(x_star)
    if denom == 0.0:
        return float(np.linalg.norm(x))
    return float(np.linalg.norm(x - x_star)) / denom


def check_recovery(x, x_star, tol: float = RECOVERY_TOLERANCE) -> bool:
    """Relative-error recovery criterion ||x - x*|| / ||x*|| <= tol (inclusive).

    For x* = 0 the criterion degenerates to ||x|| <= tol.
    """
    x = np.asarray(x, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    return _relative_error(x, x_star) <= tol


def _partial_gradient_point(problem: ProblemInstance, x: np.ndarray,
                            g: np.ndarray) -> np.ndarray:
    """u = x + lam * H_q(g), with g = A^T (y - A x) the gradient at x."""
    return x + problem.lam * hard_threshold(g, problem.q)


def pgot_step(a, y, x, k: int, q: int) -> np.ndarray:
    """One exact PGOT iteration from x (used by the theory verifier too)."""
    problem = ProblemInstance(a, y, k=k, q=q)
    x = np.asarray(x, dtype=float)
    g = problem.a.T @ (problem.y - problem.a @ x)
    return _pgot(problem, SolverConfig())(x, g, 0, [])


def _run(problem: ProblemInstance, budget: int, step):
    """Shared iteration loop: x0 = 0, stopping by recovery / residual / stall
    or after ``budget`` steps.

    The only place the loop forms the residual r = y - A x: ||r|| is the
    trace objective and the residual stop, and ``step(x, g, p, events)``
    receives the gradient g = A^T r of the iterate it moves from.
    """
    a, y, truth = problem.a, problem.y, problem.truth
    x = np.zeros(problem.n)
    x_prev = None
    events: list[str] = []
    trace: list[TraceEntry] = []
    p = 0
    while True:
        r = y - a @ x
        residual = float(np.linalg.norm(r))
        rel = None if truth is None else _relative_error(x, truth)
        trace.append(TraceEntry(p, residual, rel))
        if rel is not None and rel <= RECOVERY_TOLERANCE:
            termination = RECOVERY
        elif residual <= RESIDUAL_TOLERANCE:
            termination = RESIDUAL
        elif x_prev is not None and np.array_equal(x, x_prev):
            termination = STALLED
        elif p >= budget:
            termination = MAX_ITERATIONS
        else:
            x_prev, x = x, step(x, a.T @ r, p, events)
            p += 1
            continue
        return SolverReport(final_x=x, iterations=p, trace=trace,
                            termination=termination, events=events)


# Each builder returns its method's step(x, g, p, events) for one problem.

def _pgot(problem, cfg):
    """Partial-gradient optimal k-thresholding with exhaustive subproblem."""
    def step(x, g, p, events):
        u = _partial_gradient_point(problem, x, g)
        _, x_next = optimal_threshold_on_support(problem.a, problem.y, u,
                                                 problem.k)
        return x_next

    return step


def _relaxed(problem):
    """relaxed(x, g, p, events) -> w * u, with w the relaxed subproblem's
    weights at the point u of this step.

    Each subproblem after the first starts from the previous one's weights
    on the previous supp(u), and from 0 on indices new to supp(u).
    """
    start = None

    def relaxed(x, g, p, events):
        nonlocal start
        u = _partial_gradient_point(problem, x, g)
        sol = solve_rot(problem.a, problem.y, u, problem.k, start)
        if not sol.converged:
            events.append(f"rot subproblem not converged at iteration {p + 1} "
                          f"(kkt_residual={sol.kkt_residual:.3e})")
        start = sol.w * (u != 0)
        return sol.w * u

    return relaxed


def _pgrot(problem, cfg):
    """Relaxed partial-gradient optimal k-thresholding."""
    relaxed = _relaxed(problem)

    def step(x, g, p, events):
        return hard_threshold(relaxed(x, g, p, events), problem.k)

    return step


def _pgrotp(problem, cfg):
    """Relaxed partial-gradient optimal k-thresholding with pursuit step."""
    relaxed = _relaxed(problem)

    def step(x, g, p, events):
        v = relaxed(x, g, p, events)
        support = top_k_support(v, problem.k)
        return linalg.least_squares_on_support(problem.a, problem.y, support)

    return step


def _iht(problem, cfg):
    """Iterative hard thresholding x <- H_k(x + lam A^T (y - A x))."""
    lam = problem.lam
    if cfg.normalize_stepsize:
        lmax = linalg.gram_lambda_max(problem.a)
        lam = 1.0 / lmax if lmax > 0 else lam  # A = 0: the step is moot

    def step(x, g, p, events):
        return hard_threshold(x + lam * g, problem.k)

    return step


def _omp(problem, cfg):
    """Orthogonal matching pursuit: one greedy column per step."""
    support: list[int] = []

    def step(x, g, p, events):
        corr = np.abs(g)
        corr[support] = -np.inf
        support.append(int(np.argmax(corr)))  # argmax breaks ties at lowest index
        return linalg.least_squares_on_support(problem.a, problem.y, support)

    return step


def _sp(problem, cfg):
    """Subspace pursuit: merge top-k correlations, fit, prune to k, re-fit."""
    def step(x, g, p, events):
        merged = np.union1d(np.flatnonzero(x), top_k_support(g, problem.k))
        z = linalg.least_squares_on_support(problem.a, problem.y, merged)
        pruned = top_k_support(z, problem.k)
        return linalg.least_squares_on_support(problem.a, problem.y, pruned)

    return step


_STEPS = {"pgot": _pgot, "pgrot": _pgrot, "pgrotp": _pgrotp,
          "iht": _iht, "omp": _omp, "sp": _sp}


def solve(problem: ProblemInstance, algorithm: str,
          cfg: SolverConfig | None = None) -> SolverReport:
    """Run the algorithm with this id on problem; the entry point of every id.

    ot/rot/rotp force q = n and run pgot/pgrot/pgrotp.  A solve takes at
    most cfg.max_iterations steps, except omp, which takes at most k.
    """
    algorithm = algorithm.lower()
    if algorithm not in ALGORITHM_IDS:
        raise ValueError(f"unknown algorithm {algorithm!r}; "
                         f"expected one of {ALGORITHM_IDS}")
    if algorithm in _FULL_GRADIENT_ALIASES:
        problem = dataclasses.replace(problem, q=problem.n)
        algorithm = _FULL_GRADIENT_ALIASES[algorithm]
    cfg = cfg or SolverConfig()
    budget = problem.k if algorithm == "omp" else cfg.max_iterations
    return _run(problem, budget, _STEPS[algorithm](problem, cfg))
