"""Thresholding operators and the capped-simplex quadratic program.

Contains the hard-thresholding operator, Euclidean projection onto the
capped simplex {w : sum w = k, 0 <= w <= 1}, and the projected-gradient
solver for the convex relaxation of optimal thresholding.  The exhaustive
binary subproblem lives in ``solvers.optimal_threshold_on_support``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import gram_lambda_max
from .model import SolverConfig


class ExhaustiveLimitError(ValueError):
    """Raised when an exhaustive enumeration would exceed the configured limit."""


def _check_k(k: int, n: int) -> None:
    if not 0 <= k <= n:
        raise ValueError(f"k={k} must be in [0, {n}]")


def hard_threshold(v, k: int) -> np.ndarray:
    """Keep the k largest-magnitude entries of v, zero the rest.

    Ties in magnitude are broken toward the lower index.
    """
    v = np.asarray(v, dtype=float)
    _check_k(k, v.size)
    if k == v.size:
        return v.copy()
    out = np.zeros_like(v)
    if k == 0:
        return out
    # stable sort on -|v| keeps the lower index first among equal magnitudes
    order = np.argsort(-np.abs(v), kind="stable")[:k]
    out[order] = v[order]
    return out


def top_k_support(v, k: int) -> np.ndarray:
    """Support of hard_threshold(v, k): sorted indices, zeros never included."""
    kept = hard_threshold(v, k)
    return np.flatnonzero(kept)


def project_capped_simplex(v, k: int) -> np.ndarray:
    """Euclidean projection onto {w : sum(w) = k, 0 <= w <= 1}.

    The projection is clamp(v - theta, 0, 1) for the scalar theta solving
    sum(clamp(v - theta, 0, 1)) = k; theta is located by bisection over the
    sorted breakpoints of this piecewise-linear equation and then solved
    exactly on the bracketing segment.
    """
    v = np.asarray(v, dtype=float)
    n = v.size
    _check_k(k, n)
    if k == 0:
        return np.zeros(n)
    if k == n:
        return np.ones(n)

    vs = np.sort(v)  # ascending
    prefix = np.concatenate(([0.0], np.cumsum(vs)))

    def total(theta: float) -> float:
        # entries with v <= theta clamp to 0, v >= theta + 1 clamp to 1
        i0 = np.searchsorted(vs, theta, side="right")
        i1 = np.searchsorted(vs, theta + 1.0, side="left")
        ones = n - i1
        mid_sum = prefix[i1] - prefix[i0]
        return ones + mid_sum - (i1 - i0) * theta

    bps = np.unique(np.concatenate([v - 1.0, v]))
    # total() is nonincreasing; find the segment where it crosses k
    lo, hi = 0, bps.size - 1
    if total(bps[lo]) <= k:
        hi = lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if total(bps[mid]) >= k:
            lo = mid
        else:
            hi = mid
    if lo == hi:
        theta = bps[lo]
    else:
        t_mid = 0.5 * (bps[lo] + bps[hi])
        i0 = np.searchsorted(vs, t_mid, side="right")
        i1 = np.searchsorted(vs, t_mid + 1.0, side="left")
        count = i1 - i0
        if count == 0:
            # flat segment: total is constant and equal to k here
            theta = bps[lo]
        else:
            ones = n - i1
            theta = (ones + (prefix[i1] - prefix[i0]) - k) / count
    return np.clip(v - theta, 0.0, 1.0)


@dataclass
class RotSolution:
    """Result of the relaxed optimal-thresholding quadratic program."""

    w: np.ndarray
    objective: float  # ||y - A (w * u)||_2^2
    iterations: int
    kkt_residual: float
    converged: bool


def solve_rot(a, y, u, k: int, cfg: SolverConfig | None = None) -> RotSolution:
    """Solve min ||y - A (w * u)||^2 s.t. sum(w) = k, 0 <= w <= 1.

    Accelerated projected gradient with constant step 1/L and function-value
    restarts, where L = 2 lambda_max(B^T B) is the exact Lipschitz constant of
    the gradient and B = A[:, supp u] diag(u[supp u]).  Termination is
    certified by the projected-gradient fixed-point residual
    ||w - P(w - s grad(w))||_2 <= cfg.rot_tolerance; on iteration exhaustion
    the best feasible iterate is returned flagged not-converged.
    """
    cfg = cfg or SolverConfig()
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    n = u.size
    _check_k(k, n)

    supp = np.flatnonzero(u)
    b_sub = a[:, supp] * u[supp]  # objective depends on w only through supp(u)

    def rot_objective(w: np.ndarray) -> float:
        r = y - b_sub @ w[supp]
        return float(r @ r)

    def gradient(w: np.ndarray) -> np.ndarray:
        g = np.zeros(n)
        g[supp] = -2.0 * (b_sub.T @ (y - b_sub @ w[supp]))
        return g

    if k == n:
        w = np.ones(n)
        return RotSolution(w, rot_objective(w), 0, 0.0, True)

    w = project_capped_simplex(np.full(n, k / n), k)
    lipschitz = 2.0 * gram_lambda_max(b_sub)
    if lipschitz <= 0.0:  # B = 0 (or empty): every feasible w is optimal
        return RotSolution(w, rot_objective(w), 0, 0.0, True)
    step = 1.0 / lipschitz

    best_w, best_obj = w, rot_objective(w)
    prev_obj = best_obj
    z = w
    t = 1.0
    kkt = np.inf
    iterations = 0
    for iterations in range(1, cfg.rot_max_iterations + 1):
        w_new = project_capped_simplex(z - step * gradient(z), k)
        fixed_point = project_capped_simplex(w_new - step * gradient(w_new), k)
        kkt = float(np.linalg.norm(w_new - fixed_point))
        obj = rot_objective(w_new)
        if obj < best_obj:
            best_w, best_obj = w_new, obj
        if kkt <= cfg.rot_tolerance:
            return RotSolution(w_new, obj, iterations, kkt, True)
        if obj > prev_obj:
            # momentum overshoot: restart acceleration
            t = 1.0
            z = w_new
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            z = w_new + ((t - 1.0) / t_new) * (w_new - w)
            t = t_new
        w = w_new
        prev_obj = obj
    return RotSolution(best_w, best_obj, iterations, kkt, False)
