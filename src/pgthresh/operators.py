"""Thresholding operators and both optimal k-thresholding subproblems.

Contains the hard-thresholding operator, Euclidean projection onto the
capped simplex {w : sum w = k, 0 <= w <= 1}, and the two subproblems of a
PGOT / PGROT / PGROTP step at u = x + lam H_q(gradient), both solved on
supp(u): the exact binary one (``optimal_threshold_on_support``) and its
convex relaxation (``solve_rot``).  ``combination_chunks`` is the one
exhaustive enumeration, in bounded chunks under ``EXHAUSTIVE_LIMIT``, of the
exact subproblem and of ``theory.brute_force_ric``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .linalg import gram_lambda_max


class ExhaustiveLimitError(ValueError):
    """Raised when an exhaustive enumeration would exceed EXHAUSTIVE_LIMIT."""


# patterns an exhaustive enumeration (exact OP, brute-force RIC) may visit
EXHAUSTIVE_LIMIT = 200_000

# floats a caller's per-chunk array may hold: 2**16 floats = 512 KiB
CHUNK_FLOATS = 2**16

# solve_rot's certificate bound and iteration cap
ROT_TOLERANCE = 1e-8
ROT_MAX_ITERATIONS = 5000


def combination_chunks(t: int, sizes, floats_per_pattern: int):
    """Yield every j-subset of range(t), for each j in the sequence sizes, as
    (rows, j) int arrays whose rows are in lexicographic order.

    Raises ExhaustiveLimitError before yielding anything if the subsets
    number more than EXHAUSTIVE_LIMIT in all.  A chunk has at most
    CHUNK_FLOATS // floats_per_pattern rows (at least one), so an array of
    floats_per_pattern floats per row holds at most CHUNK_FLOATS floats.
    """
    total = sum(comb(t, j) for j in sizes)
    if total > EXHAUSTIVE_LIMIT:
        raise ExhaustiveLimitError(
            f"instance too large for exhaustive enumeration: "
            f"{total} patterns > {EXHAUSTIVE_LIMIT}")
    rows = max(1, CHUNK_FLOATS // max(1, floats_per_pattern))
    for j in sizes:
        combos = itertools.combinations(range(t), j)
        while chunk := list(itertools.islice(combos, rows)):
            yield np.array(chunk, dtype=int).reshape(len(chunk), j)


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


def _restrict(a, y, u, k: int):
    """(y, u, S, lo, hi, B_S): ||y - A (u * w)||^2 = ||y - B_S w_S||^2 with
    S = supp(u), t = |S|, B_S = A[:, S] diag(u_S), and a w summing to k puts
    between lo = max(0, k - (n - t)) and hi = min(k, t) of it on S."""
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    n = u.size
    _check_k(k, n)
    supp = np.flatnonzero(u)
    t = supp.size
    b = np.asarray(a, dtype=float)[:, supp] * u[supp]
    return y, u, supp, max(0, k - (n - t)), min(k, t), b


def optimal_threshold_on_support(a, y, u, k: int):
    """Binary optimal k-thresholding: min ||y - A (u * w)||_2^2 over w in
    {0,1}^n with exactly k ones.

    Every support of size lo..hi inside supp(u) (see ``_restrict``) is
    enumerated in lexicographic order, keeping the first minimiser, and the
    k ones are completed with the lowest-index zeros of u, so the result is
    a global minimiser of the full binary problem.  Returns (w, x) with
    x = u * w.  Raises ExhaustiveLimitError beyond EXHAUSTIVE_LIMIT patterns.
    """
    y, u, supp, lo, hi, b = _restrict(a, y, u, k)
    n = u.size
    best_obj = np.inf
    best = np.zeros(0, dtype=int)
    # b[:, block] holds m * hi floats per pattern
    for block in combination_chunks(supp.size, range(lo, hi + 1), y.size * hi):
        r = y[:, None] - b[:, block].sum(axis=2)
        obj = np.einsum("ij,ij->j", r, r)
        i = int(np.argmin(obj))
        if obj[i] < best_obj:  # strict: an earlier chunk keeps a tie
            best_obj = obj[i]
            best = block[i]
    chosen = supp[best]
    w = np.zeros(n)
    w[chosen] = 1.0
    if chosen.size < k:
        zeros = np.setdiff1d(np.arange(n), supp)
        w[zeros[: k - chosen.size]] = 1.0
    return w, u * w


@dataclass
class RotSolution:
    """Result of the relaxed optimal-thresholding quadratic program."""

    w: np.ndarray
    objective: float  # ||y - A (w * u)||_2^2
    iterations: int
    kkt_residual: float
    converged: bool


def solve_rot(a, y, u, k: int) -> RotSolution:
    """Solve min ||y - A (w * u)||^2 s.t. sum(w) = k, 0 <= w <= 1.

    The QP is solved on S = supp(u), t = |S| (see ``_restrict``): over w_S
    in the box [0, 1]^t with lo <= sum(w_S) <= hi; the returned w is lifted
    back by giving each entry off S the value (k - sum(w_S)) / (n - t).

    Accelerated projected gradient with constant step 1/L and function-value
    restarts, where L = 2 lambda_max(G) is the exact Lipschitz constant of
    the gradient 2 (G w_S - B^T y), G = B^T B and B = A[:, S] diag(u[S]).
    It stops once the gradient mapping ||w_new - z|| at the extrapolated
    point z and then the fixed-point residual ||w - P(w - grad(w) / L)|| of
    w_new are both <= ROT_TOLERANCE.  ``kkt_residual`` is always that
    residual of the returned w_S; after ROT_MAX_ITERATIONS iterations the
    best iterate is returned flagged not-converged.
    """
    y, u, supp, lo, hi, b_sub = _restrict(a, y, u, k)
    n, t = u.size, supp.size
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
    for iterations in range(1, ROT_MAX_ITERATIONS + 1):
        w_new = project(z - step * gradient(z))
        obj = quadratic(w_new)
        if obj < best_obj:
            best_w, best_obj = w_new, obj
        if np.linalg.norm(w_new - z) <= ROT_TOLERANCE:
            kkt = residual(w_new)
            if kkt <= ROT_TOLERANCE:
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
