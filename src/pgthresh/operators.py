"""Thresholding operators and the relaxed optimal-thresholding QP.

Contains the hard-thresholding operator, Euclidean projection onto the
capped simplex {w : sum w = k, 0 <= w <= 1}, and the accelerated
projected-gradient solver for the convex relaxation of optimal thresholding,
run on the |supp u| weights the objective depends on and lifted back to n.
The exhaustive binary subproblem is ``solvers.optimal_threshold_on_support``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import gram_lambda_max
from .model import SolverConfig


class ExhaustiveLimitError(ValueError):
    """Raised when an exhaustive enumeration would exceed EXHAUSTIVE_LIMIT."""


# patterns an exhaustive enumeration (exact OP, brute-force RIC) may visit
EXHAUSTIVE_LIMIT = 200_000


def _check_k(k: int, n: int) -> None:
    if not 0 <= k <= n:
        raise ValueError(f"k={k} must be in [0, {n}]")


def hard_threshold(v, k: int) -> np.ndarray:
    """Keep the k largest-magnitude entries of v, zero the rest.

    Ties in magnitude are broken toward the lower index.
    """
    v = np.asarray(v, dtype=float)
    _check_k(k, v.size)
    out = np.zeros_like(v)
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
    sum(clamp(v - theta, 0, 1)) = k (Wang & Lu, arXiv:1503.01002).  The sum
    is piecewise linear and nonincreasing in theta, with breakpoints v - 1
    and v; it is evaluated at all 2n sorted breakpoints in one vectorised
    pass, and theta is interpolated on the segment that brackets k.
    """
    v = np.asarray(v, dtype=float)
    n = v.size
    _check_k(k, n)
    if k == 0:
        return np.zeros(n)
    if k == n:
        return np.ones(n)

    vs = np.sort(v)
    tail = np.concatenate(([0.0], np.cumsum(vs[::-1])))[::-1]  # sum of vs[i:]
    bps = np.sort(np.concatenate((vs - 1.0, vs)))
    # clamp(v - theta, 0, 1) = max(v - theta, 0) - max(v - theta - 1, 0), and
    # sum(max(v - theta, 0)) = tail[i] - (n - i) theta with i = #{v < theta}
    thetas = np.concatenate((bps, bps + 1.0))
    idx = np.searchsorted(vs, thetas)
    positive = tail[idx] - (n - idx) * thetas
    totals = positive[: 2 * n] - positive[2 * n:]
    # totals falls from n to 0 and 0 < k < n, so the last j with
    # totals[j] >= k has totals[j + 1] < k and bps[j + 1] > bps[j]
    j = np.flatnonzero(totals >= k)[-1]
    theta = bps[j]
    if totals[j] > k:
        theta += ((totals[j] - k) * (bps[j + 1] - bps[j])
                  / (totals[j] - totals[j + 1]))
    return (v - theta).clip(0.0, 1.0)


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

    The objective depends on w only through S = supp(u), t = |S|, so the QP
    is solved over w_S in the box [0, 1]^t with lo <= sum(w_S) <= hi, where
    lo = max(0, k - (n - t)) and hi = min(k, t); the returned w is lifted
    back by giving each entry off S the value (k - sum(w_S)) / (n - t).

    Accelerated projected gradient with constant step 1/L and function-value
    restarts, where L = 2 lambda_max(G) is the exact Lipschitz constant of
    the gradient 2 (G w_S - B^T y), G = B^T B and B = A[:, S] diag(u[S]).
    It stops once the gradient mapping ||w_new - z|| at the extrapolated
    point z and then the fixed-point residual ||w - P(w - grad(w) / L)|| of
    w_new are both <= cfg.rot_tolerance.  ``kkt_residual`` is always that
    residual of the returned w_S; on iteration exhaustion the best iterate
    is returned flagged not-converged.
    """
    cfg = cfg or SolverConfig()
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    n = u.size
    _check_k(k, n)

    supp = np.flatnonzero(u)
    t = supp.size
    lo, hi = max(0, k - (n - t)), min(k, t)
    b_sub = a[:, supp] * u[supp]
    gram, corr = b_sub.T @ b_sub, b_sub.T @ y

    def project(v: np.ndarray) -> np.ndarray:
        w = v.clip(0.0, 1.0)
        total = w.sum()
        if total > hi:
            return project_capped_simplex(v, hi)
        if total < lo:
            return project_capped_simplex(v, lo)
        return w

    def solution(w_s: np.ndarray, iterations: int, kkt: float,
                 converged: bool) -> RotSolution:
        w = np.full(n, (k - w_s.sum()) / max(n - t, 1))
        w[supp] = w_s
        r = y - b_sub @ w_s
        return RotSolution(w, float(r @ r), iterations, kkt, converged)

    w = np.full(t, k / n)  # the restriction of the uniform feasible point
    lipschitz = 2.0 * gram_lambda_max(b_sub)
    if lipschitz <= 0.0:  # B = 0 (or empty): every feasible w is optimal
        return solution(w, 0, 0.0, True)
    step = 1.0 / lipschitz

    def gradient(w_s: np.ndarray) -> np.ndarray:
        return 2.0 * (gram @ w_s - corr)

    def residual(w_s: np.ndarray) -> float:
        return float(np.linalg.norm(w_s - project(w_s - step * gradient(w_s))))

    def quadratic(w_s: np.ndarray) -> float:  # ||y - B w_s||^2 - ||y||^2
        return float(w_s @ (gram @ w_s - 2.0 * corr))

    best_w, best_obj = w, quadratic(w)
    prev_obj = best_obj
    z = w
    momentum = 1.0
    for iterations in range(1, cfg.rot_max_iterations + 1):
        w_new = project(z - step * gradient(z))
        obj = quadratic(w_new)
        if obj < best_obj:
            best_w, best_obj = w_new, obj
        if np.linalg.norm(w_new - z) <= cfg.rot_tolerance:
            kkt = residual(w_new)
            if kkt <= cfg.rot_tolerance:
                return solution(w_new, iterations, kkt, True)
        if obj > prev_obj:
            # momentum overshoot: restart acceleration
            momentum = 1.0
            z = w_new
        else:
            m_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum * momentum))
            z = w_new + ((momentum - 1.0) / m_new) * (w_new - w)
            momentum = m_new
        w = w_new
        prev_obj = obj
    return solution(best_w, iterations, residual(best_w), False)
