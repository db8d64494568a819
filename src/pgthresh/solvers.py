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

    For x* = 0 the criterion degenerates to ||x|| <= tol.  Raises ValueError
    where x and x* differ in shape; a non-finite x does not recover.
    """
    x = np.asarray(x, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    if x.shape != x_star.shape:
        raise ValueError(f"x has shape {x.shape}, x_star {x_star.shape}")
    return _relative_error(x, x_star) <= tol


def _partial_gradient_point(problem: ProblemInstance, x: np.ndarray,
                            g: np.ndarray) -> np.ndarray:
    """u = x + lam * H_q(g), with g = A^T (y - A x) the gradient at x."""
    return x + problem.lam * hard_threshold(g, problem.q)


def _residual(a: np.ndarray, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """r = y - A x, formed on the nonzero columns S of x: y - A[:, S] x_S.

    Every iterate has at most k nonzeros, so the loop reads at most k
    columns of A, not n; at x = 0 it gathers none and r = y.
    """
    supp = x.nonzero()[0]
    return y - a[:, supp] @ x[supp]


def pgot_step(a, y, x, k: int, q: int) -> np.ndarray:
    """One exact PGOT iteration from x (used by the theory verifier too)."""
    problem = ProblemInstance(a, y, k=k, q=q)
    x = np.asarray(x, dtype=float)
    g = problem.a.T @ _residual(problem.a, problem.y, x)
    return _pgot(problem, SolverConfig())(x, g, 0, [])


def _run(problem: ProblemInstance, budget: int, step):
    """Shared iteration loop: x0 = 0, stopping by recovery / residual / stall
    or after ``budget`` steps.

    The only place the loop forms the residual r = y - A x: ||r|| is the
    trace objective and the residual stop, and ``step(x, g, p, events)``
    receives the gradient g = A^T r of the iterate it moves from.  r comes
    from ``_residual``, on the nonzero columns of x only, so the objective
    can differ in its last bits from the norm of a dense y - A @ x.  The
    gradient stays dense: every method reads all n entries of it.
    """
    a, y, truth = problem.a, problem.y, problem.truth
    x = np.zeros(problem.n)
    x_prev = None
    events: list[str] = []
    trace: list[TraceEntry] = []
    p = 0
    while True:
        r = _residual(a, y, x)
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


def _relaxed(problem, finish):
    """The step x -> finish(w * u) of PGROT and PGROTP, with w the relaxed
    subproblem's weights at the point u of this step.

    Each subproblem after the first starts from the previous one's weights
    on the previous supp(u), and from 0 on indices new to supp(u).
    """
    start = None

    def step(x, g, p, events):
        nonlocal start
        u = _partial_gradient_point(problem, x, g)
        sol = solve_rot(problem.a, problem.y, u, problem.k, start)
        if not sol.converged:
            events.append(f"rot subproblem not converged at iteration {p + 1} "
                          f"(gap={sol.gap:.3e})")
        start = sol.w * (u != 0)
        return finish(sol.w * u)

    return step


def _pgrot(problem, cfg):
    """Relaxed partial-gradient optimal k-thresholding."""
    return _relaxed(problem, lambda v: hard_threshold(v, problem.k))


def _pgrotp(problem, cfg):
    """Relaxed partial-gradient optimal k-thresholding with pursuit step."""
    def pursuit(v):
        support = top_k_support(v, problem.k)
        return linalg.least_squares_on_support(problem.a, problem.y, support)

    return _relaxed(problem, pursuit)


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
    """Orthogonal matching pursuit: one greedy column per step.

    The fit on the j selected columns A_T uses W = L^-1, the inverse of the
    lower Cholesky factor of their Gram matrix, grown by one row per step in
    O(mj + j^2) (Sturm & Christensen, EUSIPCO 2012): with c = A_T^T a and
    l = W c, the new pivot is d = sqrt(||a||^2 - ||l||^2), the new row
    (-l^T W / d, 1/d), and the fit z_T = W^T (W A_T^T y).  Each pivot must
    stay above the bound ``least_squares_on_support`` puts on its own.  From
    the first step whose pivot does not, or whose support outgrows m rows,
    every step calls ``least_squares_on_support``, so a dependent support
    keeps its minimum-norm answer.
    """
    a, y = problem.a, problem.y
    m, n = a.shape
    support: list[int] = []
    cols = np.empty((problem.k, m))  # the selected columns, as rows
    w_inv = np.zeros((problem.k, problem.k))  # W on its leading j x j block
    cols_y = np.empty(problem.k)  # A_T^T y
    bound, min_pivot = 0.0, np.inf
    grown = True

    def step(x, g, p, events):
        nonlocal bound, min_pivot, grown
        corr = np.abs(g)
        corr[support] = -np.inf
        col_id = int(np.argmax(corr))  # argmax breaks ties at lowest index
        j = len(support)
        support.append(col_id)
        grown = grown and j < m
        if grown:
            col = a[:, col_id]
            w = w_inv[:j, :j]
            ell = w @ (cols[:j] @ col)
            sq_norm = col @ col
            bound = max(bound, linalg.LSQ_PIVOT_RATIO * np.sqrt(sq_norm))
            pivot = np.sqrt(max(sq_norm - ell @ ell, 0.0))
            min_pivot = min(min_pivot, pivot)
            grown = min_pivot > bound
        if not grown:
            return linalg.least_squares_on_support(a, y, support)
        cols[j] = col
        cols_y[j] = col @ y
        w_inv[j, :j] = -(ell @ w) / pivot
        w_inv[j, j] = 1.0 / pivot
        w = w_inv[:j + 1, :j + 1]
        z = np.zeros(n)
        z[support] = w.T @ (w @ cols_y[:j + 1])
        return z

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
