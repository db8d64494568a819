"""Thresholding operators and both optimal k-thresholding subproblems.

Contains the hard-thresholding operator, Euclidean projection onto the
capped simplex {w : sum w = k, 0 <= w <= 1}, and the two subproblems of a
PGOT / PGROT / PGROTP step at u = x + lam H_q(gradient), both solved on
supp(u): the exact binary one (``optimal_threshold_on_support``) and its
convex relaxation (``solve_rot``), a box-and-sum constrained least-squares
QP solved exactly by a primal active-set method, cold or warm-started from
given weights.  Its only projection outside a warm start is the
fixed-point certificate of the returned weights.
``combination_chunks`` is the one exhaustive enumeration, in bounded chunks
under ``EXHAUSTIVE_LIMIT``, of the exact subproblem and of
``theory.brute_force_ric``.
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

# solve_rot's certificate bound and active-set step cap
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


def solve_rot(a, y, u, k: int, start=None) -> RotSolution:
    """Solve min ||y - A (w * u)||^2 s.t. sum(w) = k, 0 <= w <= 1.

    The QP is solved on S = supp(u), t = |S| (see ``_restrict``): minimise
    f(w_S) = ||y - B w_S||^2, B = A[:, S] diag(u[S]), over the box [0, 1]^t
    with lo <= sum(w_S) <= hi; the returned w is lifted back by giving each
    entry off S the value (k - sum(w_S)) / (n - t), clipped to [0, 1].

    Primal active-set method (Nocedal & Wright, Numerical Optimization,
    2nd ed., Alg. 16.3) from w_S = k / n, or from ``start``, a length-n
    weight vector (say the previous outer step's weights): its entries on S
    are clipped to [0, 1], projected onto the capped simplex of sum lo or
    hi if their sum leaves [lo, hi] by more than t ulps, and every one at 0
    or 1 starts in the working set, except the first if all are and lo = hi.
    The minimiser is the same from either start where the QP is strictly
    convex (B of full column rank, generically so for t <= q + k < m).  The
    working set holds bounds w_i = 0 or 1 and, when active, the sum
    constraint (always, if lo = hi).
    Each step minimises f over the free weights F with the working set
    fixed: a least-squares step in the columns B_F Z, where Z = I or, with
    the sum in the working set, Z = [I; -1^T] keeps the sum.  The step is
    cut at the first blocking constraint, which joins the working set.  If
    a column of B_F Z lies within 1e-6 ||B||_2 of the span of the columns
    before it (a Cholesky pivot of the reduced Hessian), or B_F Z has more
    columns than rows, the Hessian is singular: the right singular vectors
    of B_F Z whose singular values are at most that bound are directions of
    zero curvature.  Each step then follows one of them, signed to descend,
    to the next bound, and the rest are combined to keep the constraint
    that joined, one direction fewer; so one SVD serves until none is left.
    At the minimiser on the working set the constraint with the most
    negative multiplier leaves it; the method stops once none is below
    -L ROT_TOLERANCE / (4 sqrt(t)).  Ties go to the lowest index, the sum
    constraint after every bound.

    ``iterations`` counts steps, at most ROT_MAX_ITERATIONS.  ``kkt_residual``
    is the fixed-point residual ||w_S - P(w_S - grad f(w_S) / L)|| of the
    returned w_S, with P the projection onto the feasible set and
    L = 2 lambda_max(B^T B); ``converged`` is true only if the method
    stopped before the cap and that residual is <= ROT_TOLERANCE.
    """
    y, u, supp, lo, hi, b_sub = _restrict(a, y, u, k)
    n, t = u.size, supp.size
    if start is not None and np.shape(start) != (n,):
        raise ValueError(f"start has shape {np.shape(start)}, expected ({n},)")

    def solution(w_s: np.ndarray, steps: int, kkt: float,
                 converged: bool) -> RotSolution:
        # a sum held at lo or hi is exact only to rounding: clip the share
        w = np.full(n, np.clip((k - w_s.sum()) / max(n - t, 1), 0.0, 1.0))
        w[supp] = w_s
        r = y - b_sub @ w_s
        return RotSolution(w, float(r @ r), steps, kkt, converged)

    w = np.full(t, k / n)  # the restriction of the uniform feasible point
    lipschitz = 2.0 * gram_lambda_max(b_sub)
    if lipschitz <= 0.0 or hi == 0 or lo == t:
        # B = 0 (or empty): every feasible w is optimal; hi = 0 or lo = t:
        # w is the only feasible point
        return solution(w, 0, 0.0, True)
    bound = np.zeros(t, dtype=int)  # -1: w_i = 0 and +1: w_i = 1 are working
    if start is not None:
        w = np.asarray(start, dtype=float)[supp].clip(0.0, 1.0)
        # a sum off [lo, hi] by rounding alone (t ulps) counts as on it: a
        # projection would move the weights at 1 off their bound
        ulps = t * np.finfo(float).eps
        if not lo - ulps <= w.sum() <= hi + ulps:
            w = project_capped_simplex(w, hi if w.sum() > hi else lo)
        bound[w == 0.0] = -1
        bound[w == 1.0] = 1
        if lo == hi and bound.all():
            # the working sum and t bounds would be dependent: free one
            bound[0] = 0
    # a free column closer than rank_tol to the span of the free columns
    # before it counts as dependent; the Cholesky pivots of their Gram matrix
    # resolve that distance only down to about sqrt(eps) ||B||_2
    rank_tol = 1e-6 * np.sqrt(0.5 * lipschitz)
    # multipliers above -slack keep the certificate <= ROT_TOLERANCE / 2: the
    # gradient moves by at most 2 sqrt(t) slack to make w an exact KKT point,
    # and P is nonexpansive
    slack = lipschitz * ROT_TOLERANCE / (4.0 * np.sqrt(t))

    side = 1 if lo == hi else 0  # the sum is working at hi (+1) or lo (-1)
    # columns: zero-curvature directions p (B p ~ 0) that keep the working
    # set; only the rows of free weights are read
    null = np.zeros((t, 0))
    # regular: the last step was a Newton step cut short by a bound on a
    # weight other than the last free one (which pays for s when the sum is
    # working), so the reduced Hessian lost a column and kept the rest
    steps, at_minimum, regular = 0, False, False
    while True:
        free = np.flatnonzero(bound == 0)
        r = y - b_sub @ w
        if at_minimum:  # w minimises f on the working set
            grad = -2.0 * (b_sub.T @ r)
            sigma = -grad[free].mean() if side else 0.0
            mult = np.where(bound != 0, -bound * (grad + sigma), np.inf)
            mult = np.append(mult, side * sigma if side and lo < hi else np.inf)
            i = int(np.argmin(mult))
            if mult[i] >= -slack:
                break
            if i == t:
                side = 0
            else:
                bound[i] = 0
            at_minimum = regular = False
            continue
        cols = b_sub[:, free]
        if side:  # p_F = Z s keeps the sum: the last free weight pays for s
            cols = cols[:, :-1] - cols[:, -1:]
        d = cols.shape[1]
        if d == 0:
            at_minimum = True
            continue
        if steps == ROT_MAX_ITERATIONS:
            break
        steps += 1
        if not null.shape[1]:  # is the reduced Hessian singular?
            hess = cols.T @ cols
            # pivot j of its Cholesky factor is the distance of column j to
            # the span of those before, so losing a column lowers no pivot
            singular = False
            if not regular:
                try:  # more columns than rows are dependent
                    singular = (d > y.size or np.linalg.cholesky(hess)
                                .diagonal().min() <= rank_tol)
                except np.linalg.LinAlgError:
                    singular = True
            if singular:
                # right singular vectors of singular values <= rank_tol; a
                # pivot <= rank_tol bounds the least singular value by
                # rank_tol up to rounding, so keep at least that one
                sv, vt = np.linalg.svd(cols)[1:]
                basis = vt[min(np.count_nonzero(sv > rank_tol), d - 1):].T
                null = np.zeros((t, basis.shape[1]))
                null[free] = (np.vstack([basis, -basis.sum(axis=0)]) if side
                              else basis)
        newton = not null.shape[1]
        if newton:
            # the Cholesky factor only tests: numpy has no triangular solve,
            # and two general solves with it are slower than one with hess
            s = np.linalg.solve(hess, cols.T @ r)
            p = np.append(s, -s.sum()) if side else s
        else:  # f is linear along p: grad . p = -2 r . (B p)
            p = null[free, 0]
            if r @ (b_sub[:, free] @ p) < 0.0:
                p = -p
        w_f = w[free]
        ratio = np.full(free.size + 1, np.inf)  # the sum constraint last
        down, up = p < 0.0, p > 0.0
        ratio[:-1][down] = w_f[down] / -p[down]
        ratio[:-1][up] = (1.0 - w_f[up]) / p[up]
        total, change = w.sum(), p.sum()
        if not side and change != 0.0:
            ratio[-1] = ((hi - total) / change if change > 0.0
                         else (total - lo) / -change)
        ratio = ratio.clip(0.0)
        i = int(np.argmin(ratio))
        if newton and ratio[i] >= 1.0:
            w[free] = w_f + p
            at_minimum = True
            continue
        w[free] = w_f + ratio[i] * p
        regular = newton and i < free.size - (side != 0)
        if i == free.size:
            side = 1 if change > 0.0 else -1
            row = null[free].sum(axis=0)
        else:
            bound[free[i]] = 1 if p[i] > 0.0 else -1
            w[free[i]] = 1.0 if p[i] > 0.0 else 0.0
            row = null[free[i]]
        if null.shape[1]:
            # the directions that keep the new constraint too: eliminate its
            # row with the largest entry as pivot, one direction fewer
            j = int(np.argmax(np.abs(row)))
            null = np.delete(null - np.outer(null[:, j], row / row[j]), j, axis=1)

    grad = -2.0 * (b_sub.T @ (y - b_sub @ w))
    v = w - grad / lipschitz
    proj = v.clip(0.0, 1.0)
    if proj.sum() > hi:
        proj = project_capped_simplex(v, hi)
    elif proj.sum() < lo:
        proj = project_capped_simplex(v, lo)
    kkt = float(np.linalg.norm(w - proj))
    return solution(w, steps, kkt, at_minimum and kkt <= ROT_TOLERANCE)
