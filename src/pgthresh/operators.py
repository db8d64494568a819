"""Thresholding operators and both optimal k-thresholding subproblems.

Contains the hard-thresholding operator, Euclidean projection onto the
capped simplex {w : sum w = k, 0 <= w <= 1}, and the two subproblems of a
PGOT / PGROT / PGROTP step at u = x + lam H_q(gradient), both solved on
supp(u): the exact binary one (``optimal_threshold_on_support``) and its
convex relaxation (``solve_rot``), a boxed least-squares QP with sum k
over the weights on supp(u) and their total off it, solved exactly by a
primal active-set method from the uniform weights k / n or from given
ones.  Where the QP is strictly convex, a primal-dual active-set crash first
moves the start to the partition it finds, and the primal method finishes
from there.  The certificate is the Frank-Wolfe gap of the result, an upper
bound on its objective gap from one sort of the gradient; the kernel takes
no eigendecomposition.  Only the starts, cold, given or from the crash, are
projected onto the feasible set; the steps and the certificate never are.
``subset_levels`` is the one exhaustive enumeration, level by level under
``EXHAUSTIVE_LIMIT``, of the exact subproblem and of
``theory.brute_force_ric``: each j-subset is a (j - 1)-subset, its parent,
with one larger index appended.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from math import comb
from typing import NamedTuple

import numpy as np

from .model import as_vector, check_integer


class ExhaustiveLimitError(ValueError):
    """Raised when an exhaustive enumeration would exceed EXHAUSTIVE_LIMIT."""


# patterns an exhaustive enumeration (exact OP, brute-force RIC) may visit
EXHAUSTIVE_LIMIT = 200_000

# floats one batch of brute_force_ric's Gram sub-blocks may hold (2**16
# floats = 512 KiB), and entries a cached subset level may hold
CHUNK_FLOATS = 2**16

# solve_rot's certificate bound, relative to ||y||^2, and its active-set
# step cap
ROT_TOLERANCE = 1e-8
ROT_MAX_ITERATIONS = 5000


class SubsetLevel(NamedTuple):
    """The j-subsets of range(t), one row each, in lexicographic order.

    Row i is its parent row parent[i] of level j - 1 with the index last[i],
    above every index of the parent, appended.  For j >= 2, swap[i] is the
    row of level j - 1 that is the parent with its own last index replaced by
    last[i], and pair[i] = t * (the parent's last index) + last[i] is the
    flat index of that pair in a t x t array.
    """

    last: np.ndarray
    parent: np.ndarray
    swap: np.ndarray
    pair: np.ndarray


# (t, j) -> SubsetLevel, each of at most CHUNK_FLOATS entries, at most
# 4 * CHUNK_FLOATS in all: the oldest is evicted first
_LEVELS: dict = {}
_LEVELS_LOCK = threading.Lock()


def subset_levels(t: int, sizes) -> list:
    """[SubsetLevel for j = 0, 1, ..., max(sizes)]: every subset of range(t)
    of at most max(sizes) elements, level by level (the empty set first).

    Raises ExhaustiveLimitError before building anything if the subsets of
    the sizes in ``sizes`` number more than EXHAUSTIVE_LIMIT in all.  A level
    below max(sizes) is no larger than one in ``sizes`` where max(sizes) +
    min(sizes) <= t; a caller with larger sizes enumerates their complements.
    A level whose four arrays fit in CHUNK_FLOATS entries is cached, its
    arrays read-only, as every level's are.
    """
    total = sum(comb(t, j) for j in sizes)
    if total > EXHAUSTIVE_LIMIT:
        raise ExhaustiveLimitError(
            f"instance too large for exhaustive enumeration: "
            f"{total} patterns > {EXHAUSTIVE_LIMIT}")
    levels = [SubsetLevel(np.full(1, -1), *np.zeros((3, 1), dtype=np.intp))]
    for j in range(1, max(sizes) + 1):
        small = 4 * comb(t, j) <= CHUNK_FLOATS
        level = _LEVELS.get((t, j)) if small else None
        if level is None:
            # each row of the level before has one child per index above
            # its last, in increasing order: the rows of level j in order
            prev = levels[-1].last
            counts = t - 1 - prev
            parent = np.repeat(np.arange(prev.size), counts)
            first = np.cumsum(counts) - counts  # each parent's first child
            above = prev[parent]
            last = np.arange(parent.size) - first[parent] + above + 1
            level = SubsetLevel(last, parent, parent + last - above,
                                above * t + last)
            for a in level:
                a.flags.writeable = False
            if small:
                with _LEVELS_LOCK:
                    _LEVELS[t, j] = level
                    size = sum(4 * lv.last.size for lv in _LEVELS.values())
                    while size > 4 * CHUNK_FLOATS:
                        size -= 4 * _LEVELS.pop(next(iter(_LEVELS))).last.size
        levels.append(level)
    return levels


def _trace(levels: list, rows) -> np.ndarray:
    """The subsets at ``rows`` of the top level of ``levels``, as an int
    array of sorted index rows."""
    rows = np.asarray(rows, dtype=np.intp)
    out = np.empty((rows.size, len(levels) - 1), dtype=np.intp)
    for j in range(len(levels) - 1, 0, -1):
        out[:, j - 1] = levels[j].last[rows]
        rows = levels[j].parent[rows]
    return out


def subsets(t: int, j: int) -> np.ndarray:
    """Every j-subset of range(t), in lexicographic order, as an int array
    of sorted index rows, from ``subset_levels``: for 2 j > t, as the
    complements of the (t - j)-subsets, whose order is the reverse."""
    flip = 2 * j > t
    levels = subset_levels(t, (t - j if flip else j,))
    rows = _trace(levels, np.arange(levels[-1].last.size))
    if not flip:
        return rows
    keep = np.ones((rows.shape[0], t), dtype=bool)
    keep[np.arange(rows.shape[0])[:, None], rows] = False
    return np.nonzero(keep)[1].reshape(rows.shape[0], j)[::-1]


def _check_k(k: int, n: int) -> None:
    check_integer(k, "k")
    if not 0 <= k <= n:
        raise ValueError(f"k={k} must be in [0, {n}]")


def hard_threshold(v, k: int) -> np.ndarray:
    """Keep the k largest-magnitude entries of v, zero the rest.

    Ties in magnitude are broken toward the lower index, and NaN ranks below
    every number.  ``np.partition`` finds the k-th largest magnitude in
    linear time; every entry above it is kept, and so are the lowest-index
    entries equal to it, as many as k allows.  The result is the one a
    stable sort on -|v| gives, bit for bit.
    """
    v = np.asarray(v, dtype=float)
    _check_k(k, v.size)
    if k == 0:
        return np.zeros_like(v)
    neg = -np.abs(v)
    kth = np.partition(neg, k - 1)[k - 1]  # partition, like sort, puts NaN last
    if kth != kth:  # fewer than k numbers: keep them all, then the first NaNs
        neg[np.isnan(neg)] = np.inf
        kth = np.inf
    keep = neg <= kth
    extra = np.count_nonzero(keep) - k
    if extra:  # ties at the k-th magnitude: drop the highest-index ones
        keep[np.flatnonzero(neg == kth)[-extra:]] = False
    return np.where(keep, v, 0.0)


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
    pass, and theta is interpolated on the segment that brackets k.  Those
    sums cancel where entries of very different size meet (1e17 beside
    0.3): a result whose sum misses k by more than rounding is computed again
    exactly (``_project_exact``).
    """
    v = as_vector(v, name="v")
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
    # totals[j] >= k has totals[j + 1] < k and bps[j + 1] > bps[j], unless
    # the sums cancelled
    hits = np.flatnonzero(totals >= k)
    if hits.size and hits[-1] < 2 * n - 1:
        j = hits[-1]
        theta = bps[j]
        if totals[j] > k:
            theta += ((totals[j] - k) * (bps[j + 1] - bps[j])
                      / (totals[j] - totals[j + 1]))
        w = (v - theta).clip(0.0, 1.0)
        # every entry of w moves the same way with theta, so a sum within
        # rounding of k puts w within rounding of the projection
        if abs(w.sum() - k) <= 64 * n * np.finfo(float).eps * k:
            return w
    return _project_exact(v, k)


def _project_exact(v: np.ndarray, k: int) -> np.ndarray:
    """project_capped_simplex for 0 < k < n in exact rational arithmetic,
    rounded once: the search for theta bisects the sorted breakpoints."""
    from fractions import Fraction  # only inputs whose sums cancel get here

    vs = [Fraction(x) for x in v.tolist()]
    bps = sorted(vs + [x - 1 for x in vs])

    def total(theta):
        return sum(min(max(x - theta, 0), 1) for x in vs)

    # total(bps[0]) = n > k > 0 = total(bps[-1])
    below, above = 0, len(bps) - 1  # total >= k at below, < k at above
    while above - below > 1:
        mid = (below + above) // 2
        if total(bps[mid]) >= k:
            below = mid
        else:
            above = mid
    high, low = total(bps[below]), total(bps[above])
    theta = bps[below] + (high - k) * (bps[above] - bps[below]) / (high - low)
    return np.array([float(min(max(x - theta, 0), 1)) for x in vs])


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
    scored, and the first minimiser in (size, then lexicographic) order is
    kept; the k ones are completed with the lowest-index zeros of u, so the
    result is a global minimiser of the full binary problem.  Returns (w, x)
    with x = u * w.  Raises ExhaustiveLimitError beyond EXHAUSTIVE_LIMIT
    patterns.

    The patterns come level by level from ``subset_levels``.  With G = B^T B
    and c = B^T y, a pattern scores as its parent's objective
    + (G_nn - 2 c_n) + 2 sum_{i in parent} G_in, n its last index.  That sum
    is the one of the parent's swap row (see ``SubsetLevel``) + G_ln, l the
    parent's last index, so a pattern costs O(1).  Where lo + hi > t the
    complements T of the supports are scored instead, as
    ||y' + B 1_T||^2 with y' = y - B 1.  The objectives are compared as this
    Gram expansion rounds them, not as the residual ||y - B 1_S||^2 would.
    """
    y, u, supp, lo, hi, b = _restrict(a, y, u, k)
    n, t = u.size, supp.size
    flip = lo + hi > t
    if flip:  # the complements, of sizes t - hi .. t - lo
        y = y - b.sum(axis=1)
        sizes = range(t - hi, t - lo + 1)
    else:
        sizes = range(lo, hi + 1)
    levels = subset_levels(t, sizes)
    gram = b.T @ b
    lin = gram.diagonal() + (2.0 if flip else -2.0) * (b.T @ y)
    flat = gram.ravel()
    obj, cross = np.array([y @ y]), np.zeros(t)
    best_obj, best = np.inf, (0, 0)
    for j, level in enumerate(levels):
        if j:
            if j > 1:
                cross = cross[level.swap] + flat[level.pair]
            obj = obj[level.parent] + lin[level.last] + 2.0 * cross
        if j not in sizes:
            continue
        # the first minimiser in (size, lexicographic) order: complements
        # come in reverse order, larger ones (smaller supports) later
        if flip:
            i = obj.size - 1 - int(np.argmin(obj[::-1]))
            if obj[i] <= best_obj:
                best_obj, best = obj[i], (j, i)
        else:
            i = int(np.argmin(obj))
            if obj[i] < best_obj:
                best_obj, best = obj[i], (j, i)
    j, i = best
    chosen = _trace(levels[: j + 1], [i])[0]
    if flip:
        chosen = np.setdiff1d(np.arange(t), chosen)
    chosen = supp[chosen]
    w = np.zeros(n)
    w[chosen] = 1.0
    if chosen.size < k:
        zeros = np.setdiff1d(np.arange(n), supp)
        w[zeros[: k - chosen.size]] = 1.0
    return w, u * w


def _pdas_crash(gram, corr, w, bound, upper, k: int, scale: float):
    """(w, iterations, settled): a primal-dual active-set crash start for
    solve_rot's QP, with B^T B = gram of full rank and B^T y = corr
    (Hintermueller, Ito & Kunisch, SIAM J. Optim. 13(3), 2002).

    A partition is an int8 array over v = (w, o): -1 at 0, +1 at the upper
    end, 0 free.  The first is ``bound``, o's state included, which the
    crash does not modify; it must be int8 like the later ones, which are
    compared with it as bytes.  Each iteration minimises f with the bound
    variables fixed and sum(v) = k, which gives the free weights and the
    multiplier sigma of the sum (the two right-hand sides of that solve
    share one t x 2 array for the whole crash), then puts every variable at
    0, at its upper end or free by where z = v - (grad f(v) + sigma) / scale
    falls against [0, upper].  Any scale > 0 gives the same partition up to
    rounding: grad f + sigma vanishes on the free variables, and on a bound
    one only its sign counts.  It stops when the new partition repeats the
    last (settled) or an earlier one (cycling), when no weight is free while
    o is bound, or after ROT_MAX_ITERATIONS iterations.  w is the last
    point (the given one if no iteration ran).  If the crash settled, w
    minimises f on the face of that partition, in the box up to rounding,
    with every bound's multiplier of the sign the partition tested;
    otherwise it may lie outside the box.
    """
    t = gram.shape[0]
    key = bound.tobytes()
    seen = {key}
    z = np.empty(t + 1)
    # the first |F| rows hold an iteration's two right-hand sides: column 0
    # the reduced correlation, column 1 the ones of the bordered system
    rhs = np.ones((t, 2))
    iterations = 0
    while iterations < ROT_MAX_ITERATIONS:
        at_one = bound[:t] > 0
        free = np.flatnonzero(bound[:t] == 0)
        point = at_one.astype(float)
        gram_f = gram[free]
        rhs_f = rhs[:free.size]
        rhs_f[:, 0] = corr[free] - gram_f @ point
        o = upper[t] if bound[t] > 0 else 0.0
        if bound[t] == 0:  # o free: its gradient is 0, so sigma is too
            sigma = 0.0
            if free.size:
                point[free] = np.linalg.solve(gram_f[:, free], rhs_f[:, 0])
            o = k - point.sum()
        elif free.size:
            # G_FF w_F = rhs - sigma / 2 with sum(w_F) = k - o - |U|: the
            # bordered system, solved through its Schur complement; the two
            # column sums stay apart (one sum over axis 0 rounds differently)
            sol = np.linalg.solve(gram_f[:, free], rhs_f)
            half = (sol[:, 0].sum() - (k - o - at_one.sum())) / sol[:, 1].sum()
            point[free] = sol[:, 0] - half * sol[:, 1]
            sigma = 2.0 * half
        else:  # every variable bound: no free weight takes up the sum
            break
        w = point
        z[:t] = w - (2.0 * (gram @ w - corr) + sigma) / scale
        z[t] = o - sigma / scale
        bound = (z >= upper).astype(np.int8) - (z <= 0.0)
        if upper[t] == 0.0:  # o's box is [0, 0] when t = n
            bound[t] = -1
        iterations += 1
        last, key = key, bound.tobytes()
        if key in seen:  # settled, or cycling
            return w, iterations, key == last
        seen.add(key)
    return w, iterations, False


@dataclass
class RotSolution:
    """Result of the relaxed optimal-thresholding quadratic program.

    ``iterations`` counts the crash's iterations and the active-set steps
    together; ``gap``, the Frank-Wolfe gap of ``w``, bounds ``objective``
    minus the least objective and is never negative, and it and
    ``converged`` are the certificate of ``w`` (see ``solve_rot``).
    ``objective`` and ``gap`` come from the one residual of ``w`` that the
    method's last multiplier test formed.
    """

    w: np.ndarray
    objective: float  # ||y - A (w * u)||_2^2
    iterations: int
    gap: float
    converged: bool


def solve_rot(a, y, u, k: int, start=None) -> RotSolution:
    """Solve min ||y - A (w * u)||^2 s.t. sum(w) = k, 0 <= w <= 1.

    Only the t = |S| weights on S = supp(u) move the objective (see
    ``_restrict``), so the n - t weights off S merge into one variable, their
    total o = k - sum(w_S).  Over v = (w_S, o) the QP keeps the paper's form:
    minimise f(v) = ||y - [B, 0] v||^2, B = A[:, S] diag(u[S]), over the box
    0 <= v <= (1, ..., 1, n - t) with sum(v) = k.  The returned w gives each
    entry off S the share o / (n - t), clipped to [0, 1].

    Primal active-set method (Nocedal & Wright, Numerical Optimization,
    2nd ed., Alg. 16.3) from w_S = k / n, or from ``start``, a finite
    length-n weight vector (say the previous outer step's weights; anything
    else raises ValueError).  Every start, and the crash's last point below,
    takes one path: its entries on S are clipped to [0, 1], or, if that sum
    leaves [lo, hi] by more than t ulps, projected unclipped onto the capped
    simplex of sum lo or hi.  Every weight at 0 or 1 starts in the working
    set, and so does o where the sum puts it at an end of its box to t ulps,
    except the first weight where all t + 1 variables are.  The working set
    holds sum(v) = k, always; where t = n, o's box [0, 0] holds it for good.
    The minimiser is the same from either start where the QP is strictly
    convex (B of full column rank, generically so for t <= q + k < m).
    There, when t <= m and every Cholesky pivot of B^T B exceeds the rank
    bound of the steps below, a primal-dual active-set crash
    (``_pdas_crash``) runs first from the working set of that start, and
    the method starts from its last point.  If the crash settled, that
    point minimises f on its face, so the method begins at the multiplier
    test below, not at a step: it stops there at once, or releases a bound
    and steps on.  The method, not the crash, decides the certificate.

    Each step minimises f over the free variables F with the working set
    fixed: a least-squares step in the columns [B, 0]_F Z, Z = [I; -1^T],
    so the last free variable pays to keep the sum (o while it is free: its
    zero column leaves B_F).  The step is cut at the first blocking bound,
    which joins the working set.  If a column of C = [B, 0]_F Z lies within
    1e-6 times the largest column norm of B (the rank bound, rank_tol) of
    the span of the columns before it (a Cholesky pivot of the reduced
    Hessian), or there are more columns than rows, the columns are
    dependent, and the step takes a ridge of rank_tol^2 on their Gram
    matrix: (C^T C + rank_tol^2 I)^-1 C^T r, or C^T (C C^T + rank_tol^2 I)^-1 r
    in the smaller Gram matrix where there are more columns than rows.
    After a step that reaches no bound, the bound with the most negative
    multiplier leaves the working set; the method stops
    once none is below -tol / (4 k), with tol = ROT_TOLERANCE max(||y||^2,
    max_j ||B e_j||^2): relative to ||y||^2, with a floor that keeps it above
    rounding where y = 0.  Ties go to the lowest index, so o comes after
    every weight.

    ``iterations`` counts the crash's iterations and the steps, at most
    ROT_MAX_ITERATIONS in all.  ``gap`` is the Frank-Wolfe gap
    grad f(v) . v - min grad f(v) . v' of the returned v over the feasible
    v' (Frank & Wolfe 1956; Jaggi, ICML 2013), which bounds f(v) - min f by
    convexity.  o's gradient is 0, so that minimum puts 1 on the smallest
    entries of grad f(w_S), as many as are negative but at least lo and at
    most hi: one sort.  The gap is never negative in exact arithmetic; where
    it rounds below 0 it is returned as 0.  At the multiplier test,
    multipliers above -s give a gap of at most 2 k s, so the test's slack
    keeps it to tol / 2.  The residual y - B w_S and the gradient that the
    last multiplier test forms also give the gap and ``objective``; a solve
    stopped at the cap forms the gradient once, from the residual its last
    iteration formed.  Partitions and working sets are int8 arrays.
    ``converged`` is true only if the method stopped at its multiplier test,
    not at the cap, and the gap is at most tol.
    """
    y, u, supp, lo, hi, b_sub = _restrict(a, y, u, k)
    n, t = u.size, supp.size
    start = np.full(n, k / n) if start is None else as_vector(start, n, "start")

    def solution(w_s: np.ndarray, r: np.ndarray, steps: int, gap: float,
                 converged: bool) -> RotSolution:
        """The RotSolution of weights w_s on S, whose residual is r."""
        # a sum held at lo or hi is exact only to rounding: clip the share
        w = np.full(n, np.clip((k - w_s.sum()) / max(n - t, 1), 0.0, 1.0))
        w[supp] = w_s
        return RotSolution(w, float(r @ r), steps, gap, converged)

    w = np.full(t, k / n)  # the restriction of the uniform feasible point
    if hi == 0 or lo == t:  # w, all 0 or all 1, is the only feasible point
        return solution(w, y - b_sub @ w, 0, 0.0, True)
    # B^T B, where t <= m, is the crash's matrix; its diagonal holds the
    # squared column norms of B
    gram = b_sub.T @ b_sub if t <= y.size else None
    sq_norms = (gram.diagonal() if gram is not None
                else np.einsum("ij,ij->j", b_sub, b_sub))
    col_max = float(np.sqrt(sq_norms.max()))
    if col_max == 0.0:  # B = 0, or B has no rows: every feasible w is optimal
        return solution(w, y - b_sub @ w, 0, 0.0, True)
    # v = (w_S, o): o = k - sum(w_S) is the weight off S and moves no residual
    upper = np.append(np.ones(t), n - t)
    # a free column closer than rank_tol to the span of the free columns
    # before it counts as dependent; the Cholesky pivots of their Gram matrix
    # resolve that distance only down to about sqrt(eps) ||B||_2
    rank_tol = 1e-6 * col_max
    # B of full column rank by the kernel's rank test: the QP is strictly
    # convex, and pivot j of every G_FF below, the distance of its column to
    # the span of the free columns before it, is at least that of B^T B
    crash = False
    if gram is not None:
        try:
            crash = np.linalg.cholesky(gram).diagonal().min() > rank_tol
        except np.linalg.LinAlgError:
            pass
    ulps = t * np.finfo(float).eps

    def working_set(w: np.ndarray):
        """(w, bound) for start weights w on S, made feasible; every weight
        at 0 or 1 is in the working set, and o at an end of its box where
        w's sum puts it there to t ulps (at 0 for good when t = n)."""
        # w clipped to [0, 1]^t, or projected unclipped onto the capped
        # simplex of sum lo or hi if that sum leaves [lo, hi]; off it by
        # rounding alone (t ulps) counts as on it: a projection would move
        # the weights at 1 off their bound
        clipped = w.clip(0.0, 1.0)
        if lo - ulps <= clipped.sum() <= hi + ulps:
            w = clipped
        else:
            w = project_capped_simplex(w, hi if clipped.sum() > hi else lo)
        # -1: v_i = 0, +1: v_i = upper_i, in the crash's int8
        bound = np.empty(t + 1, dtype=np.int8)
        bound[:t] = (w == 1.0).astype(np.int8) - (w == 0.0)
        o = k - w.sum()
        bound[t] = (-1 if t == n or o <= ulps else 1 if o >= n - t - ulps
                    else 0)
        if bound.all():  # the sum and t + 1 bounds are dependent: free one
            bound[0] = 0
        return w, bound

    w, bound = working_set(start[supp])
    steps = 0
    # at_minimum: v minimises f on the working set
    at_minimum = False
    if crash:
        # 2 max_j ||B e_j||^2 <= L = 2 lambda_max(B^T B): the sign test's
        # scale only needs to be positive; a settled crash's last point
        # minimises f on its face, so the method starts at its multiplier test
        w, steps, at_minimum = _pdas_crash(gram, b_sub.T @ y, w, bound, upper,
                                           k, 2.0 * col_max**2)
        w, bound = working_set(w)
    v = np.append(w, 0.0)
    grad = np.zeros(t + 1)  # o moves no residual: its gradient stays 0
    # multipliers above -slack keep the gap <= 2 k slack, half its bound;
    # the floor keeps that bound above rounding where y = 0
    gap_bound = ROT_TOLERANCE * max(float(y @ y), col_max**2)
    slack = gap_bound / (4.0 * k)

    # regular: the last step was a Newton step cut short by a bound on a
    # variable other than the last free one (which pays for s), so the
    # reduced Hessian lost a column and kept the rest
    regular = False
    while True:
        free = np.flatnonzero(bound == 0)
        v[t] = k - v[:t].sum()  # afresh: updates to o would drift by rounding
        r = y - b_sub @ v[:t]
        if at_minimum:
            grad[:t] = -2.0 * (b_sub.T @ r)
            sigma = -grad[free].mean()  # the multiplier of sum(v) = k
            # o on its box [0, 0] (t = n) never leaves
            mult = np.where((bound != 0) & (upper > 0.0),
                            -bound * (grad + sigma), np.inf)
            i = int(np.argmin(mult))
            if mult[i] >= -slack:
                break
            bound[i] = 0
            at_minimum = regular = False
            continue
        # p_F = Z s keeps the sum: the last free variable pays for s; while
        # o is free it is last, and its zero column leaves the columns B_F
        cols = b_sub[:, free[:-1]]
        if free[-1] != t:
            cols -= b_sub[:, free[-1:]]
        d = cols.shape[1]
        if d == 0:
            at_minimum = True
            continue
        if steps == ROT_MAX_ITERATIONS:
            break
        steps += 1
        # dependent columns C (more than rows, or a Cholesky pivot <=
        # rank_tol) take the step with a ridge of rank_tol^2 on their Gram
        # matrix, the smaller one where there are more columns than rows:
        # s = C^T (C C^T + rank_tol^2 I)^-1 r
        singular = d > y.size
        if singular:
            gram_m = cols @ cols.T
            gram_m.flat[::y.size + 1] += rank_tol**2
            s = cols.T @ np.linalg.solve(gram_m, r)
        else:
            hess = cols.T @ cols
            # pivot j of its Cholesky factor is the distance of column j to
            # the span of those before, so losing a column lowers no pivot
            if not regular:
                try:
                    singular = (np.linalg.cholesky(hess).diagonal().min()
                                <= rank_tol)
                except np.linalg.LinAlgError:
                    singular = True
            if singular:
                hess.flat[::d + 1] += rank_tol**2
            # the Cholesky factor only tests: numpy has no triangular solve,
            # and two general solves with it are slower than one with hess
            s = np.linalg.solve(hess, cols.T @ r)
        p = np.concatenate((s, [-s.sum()]))
        v_f = v[free]
        ratio = np.full(free.size, np.inf)
        down, up = p < 0.0, p > 0.0
        ratio[down] = v_f[down] / -p[down]
        ratio[up] = (upper[free[up]] - v_f[up]) / p[up]
        ratio = ratio.clip(0.0)
        i = int(np.argmin(ratio))  # on ties the lowest index: o is last
        if ratio[i] >= 1.0:
            v[free] = v_f + p
            at_minimum = True
            continue
        v[free] = v_f + ratio[i] * p
        regular = not singular and i < free.size - 1
        j = free[i]
        bound[j] = 1 if p[i] > 0.0 else -1
        v[j] = upper[j] if p[i] > 0.0 else 0.0
    w = v[:t]
    # r is the residual of w: the multiplier test that ended the loop formed
    # it and the gradient; at the cap only the gradient is left to form
    grad = grad[:t] if at_minimum else -2.0 * (b_sub.T @ r)

    # the Frank-Wolfe gap: the feasible v' minimising grad . v' puts 1 on the
    # smallest entries of grad f(w), as many as are negative within [lo, hi];
    # never negative in exact arithmetic, it is clamped to +0.0 where it
    # rounds below (max keeps its first argument on a tie with -0.0)
    ones = min(max(int(np.count_nonzero(grad < 0.0)), lo), hi)
    gap = max(0.0, float(grad @ w - np.sort(grad)[:ones].sum()))
    return solution(w, r, steps, gap, at_minimum and gap <= gap_bound)
