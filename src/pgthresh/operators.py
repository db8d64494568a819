"""Thresholding operators and both optimal k-thresholding subproblems.

Contains the hard-thresholding operator, Euclidean projection onto the
capped simplex {w : sum w = k, 0 <= w <= 1} (one bisection over its
breakpoints, run in floating point and, where that result's sum misses k,
again in exact arithmetic), and the two subproblems of a PGOT / PGROT /
PGROTP step at u = x + lam H_q(gradient), both solved on supp(u): the
exact binary one (``optimal_threshold_on_support``) and its convex
relaxation (``solve_rot``), a boxed least-squares QP with sum k over the
weights on supp(u) and their total off it.  One method solves the
relaxation, from the uniform weights k / n or from given ones: a primal-dual
active-set crash in proximal rounds, which serves t <= m and t > m alike,
with no proximal term in the first round where t <= m.  One rule,
``_partition``, binds or frees each variable, at a start and at each crash
iteration alike.  The certificate is the Frank-Wolfe gap of each round's
point, an upper bound on its objective gap from one sort of the gradient;
the crash's face solves are the kernel's only factorizations.  Only the
starts and the rounds' points are projected; the crash and the certificate
never are.  ``subset_levels`` is the one exhaustive enumeration, level by
level under ``EXHAUSTIVE_LIMIT``, of the exact subproblem and of
``theory.brute_force_ric``: each j-subset is a (j - 1)-subset, its parent,
with one larger index appended.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from math import comb, isfinite
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

# solve_rot's certificate bound, relative to ||y||^2, and its cap on crash
# iterations, all rounds together
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
    stable sort on -|v| gives, bit for bit.  v must be 1-d.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"v must be 1-d, got shape {v.shape}")
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
    return np.flatnonzero(hard_threshold(v, k))


def project_capped_simplex(v, k: int) -> np.ndarray:
    """Euclidean projection onto {w : sum(w) = k, 0 <= w <= 1}.

    The projection is clamp(v - theta, 0, 1) for the scalar theta solving
    sum(clamp(v - theta, 0, 1)) = k (Wang & Lu, arXiv:1503.01002), found by
    ``_clamp_search`` in floating point.  Where breakpoints coincide in
    floating point ([1e17, 1e17, 0.5] with k = 1 has theta = 1e17 - 0.5,
    which no float holds), a result whose sum misses k by more than rounding
    is computed again by the same search in exact arithmetic
    (``_project_exact``).
    """
    v = as_vector(v, name="v")
    n = v.size
    _check_k(k, n)
    if k == 0:
        return np.zeros(n)
    if k == n:
        return np.ones(n)
    w = _clamp_search(v, k)
    # every entry of w moves the same way with theta, so a sum within
    # rounding of k puts w within rounding of the projection
    if abs(w.sum() - k) <= 64 * n * np.finfo(float).eps * k:
        return w
    return _project_exact(v, k)


def _clamp_search(v: np.ndarray, k: int) -> np.ndarray:
    """clamp(v - theta, 0, 1) with sum k, for 0 < k < n, in the arithmetic
    of v's entries (floats, or ``Fraction`` objects).

    The sum is piecewise linear and nonincreasing in theta, with breakpoints
    v - 1 and v.  The search bisects the sorted breakpoints, summing the
    clamped entries directly at each one, and interpolates theta on the
    segment that brackets k.
    """
    bps = np.sort(np.concatenate((v - 1, v)))

    def total(theta):
        return (v - theta).clip(0, 1).sum()

    # total(bps[0]) = n > k > 0 = total(bps[-1]) in exact arithmetic
    below, above = 0, bps.size - 1  # total >= k at below, < k at above
    while above - below > 1:
        mid = (below + above) // 2
        if total(bps[mid]) >= k:
            below = mid
        else:
            above = mid
    theta, high = bps[below], total(bps[below])
    # high >= k > low, unless rounding broke the bracket at bps[0] (where
    # high may equal low): theta = bps[0] then, and the caller's sum test
    # rejects it
    if high > k:
        low = total(bps[above])
        theta += (high - k) * (bps[above] - theta) / (high - low)
    return (v - theta).clip(0, 1)


def _project_exact(v: np.ndarray, k: int) -> np.ndarray:
    """project_capped_simplex for 0 < k < n: ``_clamp_search`` in exact
    rational arithmetic, rounded once."""
    from fractions import Fraction  # only results that miss k get here

    exact = np.array([Fraction(x) for x in v.tolist()], dtype=object)
    return _clamp_search(exact, k).astype(float)


def _restrict(a, y, u, k: int):
    """(y, u, S, lo, hi, B_S, B_S^T y): ||y - A (u * w)||^2 = ||y - B_S w_S||^2
    with S = supp(u), t = |S|, B_S = A[:, S] diag(u_S), and a w summing to k
    puts between lo = max(0, k - (n - t)) and hi = min(k, t) of it on S.
    Raises ValueError for a NaN or inf in y or u, or in A[:, S], which then
    reaches B_S^T y: A itself is never scanned."""
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    n = u.size
    _check_k(k, n)
    if not isfinite(y.dot(y) + u.dot(u)):
        raise ValueError("y and u entries must be finite")
    supp = np.flatnonzero(u)
    t = supp.size
    b = np.asarray(a, dtype=float)[:, supp] * u[supp]
    corr = b.T @ y
    if not isfinite(corr.dot(corr)):
        raise ValueError("the columns of a on supp(u) must be finite")
    return y, u, supp, max(0, k - (n - t)), min(k, t), b, corr


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
    y, u, supp, lo, hi, b, corr = _restrict(a, y, u, k)
    n, t = u.size, supp.size
    flip = lo + hi > t
    if flip:  # the complements, of sizes t - hi .. t - lo
        y = y - b.sum(axis=1)
        corr = b.T @ y
        sizes = range(t - hi, t - lo + 1)
    else:
        sizes = range(lo, hi + 1)
    levels = subset_levels(t, sizes)
    gram = b.T @ b
    lin = gram.diagonal() + (2.0 if flip else -2.0) * corr
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


def _partition(v, low, high) -> np.ndarray:
    """The int8 partition of v = (w, o): -1 (bound at 0) where v <= low, +1
    (bound at its upper end) where v >= high, 0 (free) elsewhere.  o stays
    at 0 where high[-1] <= 0, as it does when t = n.  Where every variable is
    bound, the weight nearest its box [0, 1] is freed to take up the sum."""
    bound = (v >= high).astype(np.int8) - (v <= low)
    if high[-1] <= 0.0:
        bound[-1] = -1
    if bound.all():
        bound[np.argmin(np.maximum(low - v, v - high)[:-1])] = 0
    return bound


def _pdas_crash(gram, corr, bound, upper, k: int, scale: float, cap: int):
    """(w, iterations, settled): the primal-dual active-set method of
    Hintermueller, Ito & Kunisch (SIAM J. Optim. 13(3), 2002) on
    min w^T gram w - 2 corr^T w over v = (w, o) in the box 0 <= v <= upper
    with sum(v) = k: o, the last variable, has no term in the objective.
    solve_rot runs it in proximal rounds.

    The first partition (see ``_partition``) is ``bound``, o's state
    included, which the crash does not modify; it must be int8 like the
    later ones, which are compared with it as bytes.  Each iteration
    minimises the objective with the bound variables fixed and sum(v) = k,
    which gives the free weights and the multiplier sigma of the sum, then
    takes the partition of z = v - (grad + sigma) / scale against
    [0, upper].  Any scale > 0 gives the same partition up to rounding:
    grad + sigma vanishes on the free variables, and on a bound one only its
    sign counts.  The crash stops when the new partition repeats the last
    (settled, if w is finite) or an earlier one (cycling), at a face whose
    matrix LU finds singular (gram need only be semidefinite; unsettled), or
    after ``cap`` >= 1 iterations; w is the last point.  If it settled, w
    minimises the objective on the face of that partition, with every
    bound's multiplier of the sign the partition tested, and lies in the box
    up to rounding unless the last test freed a weight; otherwise it may lie
    outside the box.  HIK prove that the method converges where gram is an
    M-matrix; B^T B + eps I need not be one, so solve_rot's rule for a crash
    that does not settle is a measured safeguard, not a proof.
    """
    t = gram.shape[0]
    key = bound.tobytes()
    seen = {key}
    z = np.empty(t + 1)
    # the first |F| rows hold an iteration's two right-hand sides, for the
    # whole crash: the reduced correlation, and the ones of the bordered system
    rhs = np.ones((t, 2))
    for iterations in range(1, cap + 1):
        at_one = bound[:t] > 0
        free = (bound[:t] == 0).nonzero()[0]
        w = at_one.astype(float)
        gram_f = gram[free]
        rhs_f = rhs[:free.size]
        rhs_f[:, 0] = corr[free] - gram_f @ w
        try:
            if bound[t] == 0:  # o free: its gradient is 0, so sigma is too
                sigma = 0.0
                if free.size:
                    w[free] = np.linalg.solve(gram_f[:, free], rhs_f[:, 0])
                o = k - w.sum()
            else:
                # G_FF w_F = rhs - sigma / 2 with sum(w_F) = k - o - |U|,
                # through the Schur complement; the two column sums stay
                # apart (one sum over axis 0 rounds differently)
                o = upper[t] if bound[t] > 0 else 0.0
                sol = np.linalg.solve(gram_f[:, free], rhs_f)
                half = ((sol[:, 0].sum() - (k - o - np.count_nonzero(at_one)))
                        / sol[:, 1].sum())
                w[free] = sol[:, 0] - half * sol[:, 1]
                sigma = 2.0 * half
        except np.linalg.LinAlgError:  # a singular face: dependent columns
            return w, iterations, False
        z[:t] = w - (2.0 * (gram @ w - corr) + sigma) / scale
        z[t] = o - sigma / scale
        bound = _partition(z, 0.0, upper)
        last, key = key, bound.tobytes()
        if key in seen:  # settled, or cycling
            return w, iterations, key == last and bool(np.isfinite(w).all())
        seen.add(key)
    return w, cap, False


@dataclass
class RotSolution:
    """Result of the relaxed optimal-thresholding quadratic program.

    ``iterations`` counts the crash iterations of every round, retries
    included; ``gap``, the Frank-Wolfe gap of ``w``, bounds ``objective``
    minus the least objective and is never negative, and it and
    ``converged`` are the certificate of ``w`` (see ``solve_rot``).
    ``objective`` and ``gap`` come from the one residual of ``w`` that the
    kernel's last gap test formed.
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

    The kernel starts from w_S = k / n, or from ``start``, a finite length-n
    weight vector (say the previous outer step's weights; anything else
    raises ValueError).  Every start, and every round's point below, takes
    one path: its entries on S are clipped to [0, 1], or, if that sum leaves
    [lo, hi] by more than t ulps, projected unclipped onto the capped simplex
    of sum lo or hi; it is partitioned by ``_partition``, with o at an end of
    its box where the sum puts it there to t ulps.

    The kernel is the primal-dual active-set crash (``_pdas_crash``) in
    proximal rounds (Rockafellar, SIAM J. Control Optim. 14(5), 1976).
    Round j minimises f(v) + eps ||w_S - w_j||^2 from the partition of its
    point w_j: the crash on G + eps I and B^T y + eps w_j, G = B^T B, with the
    sign-test scale 2 (c + eps), c = max_j ||B e_j||^2.  A crash that settles
    gives the next point; one that does not settle within 30 iterations is
    retried from w_j with eps ten times larger, at least 1e-6 c.  eps starts
    at 0 where t <= m, and where B has dependent columns a singular face
    ends that crash unsettled; where t > m, G is singular and eps starts at
    1e-6 c.  After a crash that settles eps becomes max(eps / 10, 1e-8 c),
    so a point that fails the gap test after a crash on f itself gets
    proximal rounds, not the same crash again.  So where the QP is strictly
    convex (B of full column rank, generically so for t <= q + k < m), the
    first crash usually settles on the minimiser; where t > m the minimiser
    need not be unique, and the rounds reach one.  The rounds stop once the
    gap of f at the point is at most 1e-5 tol, tol = ROT_TOLERANCE
    max(||y||^2, c): relative to ||y||^2, with a floor that keeps it above
    rounding where y = 0.  The gap is tested on the start too, so a call
    restarted at its own minimiser takes no iteration.

    ``iterations`` counts the crash iterations of every round, at most
    ROT_MAX_ITERATIONS in all; a round that cap cuts short returns its start
    w_j.  ``gap`` is the Frank-Wolfe gap grad f(v) . v - min grad f(v) . v'
    of the returned v over the feasible v' (Frank & Wolfe 1956; Jaggi, ICML
    2013), which bounds f(v) - min f by convexity.  o's gradient is 0, so
    that minimum puts 1 on the smallest entries of grad f(w_S), as many as
    are negative but at least lo and at most hi: one sort.  The gap is never
    negative in exact arithmetic; where it rounds below 0 it is returned as
    0.  The residual y - B w_S and the gradient that the last gap test forms
    also give ``objective``.  ``converged`` is true only if the rounds
    stopped at their gap test, not at the cap.
    """
    y, u, supp, lo, hi, b_sub, corr = _restrict(a, y, u, k)
    n, t = u.size, supp.size
    start = np.full(n, k / n) if start is None else as_vector(start, n, "start")

    def solution(w_s: np.ndarray, r: np.ndarray, steps: int, gap: float,
                 converged: bool) -> RotSolution:
        """The RotSolution of weights w_s on S, whose residual is r."""
        # a sum held at lo or hi is exact only to rounding: clip the share
        w = np.full(n, min(max((k - w_s.sum()) / max(n - t, 1), 0.0), 1.0))
        w[supp] = w_s
        return RotSolution(w, float(r @ r), steps, gap, converged)

    w = np.full(t, k / n)  # the restriction of the uniform feasible point
    if hi == 0 or lo == t:  # w, all 0 or all 1, is the only feasible point
        return solution(w, y - b_sub @ w, 0, 0.0, True)
    # G = B^T B, the crash's matrix: its diagonal holds B's squared norms
    gram = b_sub.T @ b_sub
    col_max = float(np.sqrt(gram.diagonal().max()))
    if col_max == 0.0:  # B = 0, or B has no rows: every feasible w is optimal
        return solution(w, y - b_sub @ w, 0, 0.0, True)
    c = col_max**2
    # v = (w_S, o): o = k - sum(w_S) is the weight off S and moves no residual
    upper = np.ones(t + 1)
    upper[t] = n - t
    # f is strictly convex where B has full column rank, as it generically
    # has for t <= m; otherwise a singular face sends the crash to a retry
    eps = 0.0 if t <= y.size else 1e-6 * c
    edge = np.zeros(t + 1)  # a start's o within t ulps of an end is there
    edge[t] = ulps = t * np.finfo(float).eps
    edges = edge, upper - edge

    def working_set(w: np.ndarray):
        """(w, bound): start weights w on S made feasible, and the
        ``_partition`` of (w, k - sum(w)) against the start's edges."""
        # a sum off [lo, hi] by rounding alone (t ulps) counts as on it: a
        # projection would move the weights at 1 off their bound
        clipped = w.clip(0.0, 1.0)
        if lo - ulps <= clipped.sum() <= hi + ulps:
            w = clipped
        else:
            w = project_capped_simplex(w, hi if clipped.sum() > hi else lo)
        return w, _partition(np.concatenate((w, (k - w.sum(),))), *edges)

    w, bound = working_set(start[supp])
    diag = gram.diagonal().copy()  # G's; the crash sees G + eps I
    stop = 1e-5 * ROT_TOLERANCE * max(float(y @ y), c)
    iterations = 0
    while True:
        r = y - b_sub @ w
        grad = -2.0 * (b_sub.T @ r)
        # the Frank-Wolfe gap: the feasible v' minimising grad . v' puts 1 on
        # the smallest entries of grad f(w), as many as are negative within
        # [lo, hi]; never negative in exact arithmetic, it is clamped to +0.0
        # where it rounds below (max keeps its first argument on ties)
        ones = min(max(int(np.count_nonzero(grad < 0.0)), lo), hi)
        gap = max(0.0, float(grad @ w - np.sort(grad)[:ones].sum()))
        if gap <= stop or iterations == ROT_MAX_ITERATIONS:
            break
        gram.flat[::t + 1] = diag + eps
        point, steps, settled = _pdas_crash(
            gram, corr + eps * w, bound, upper, k, 2.0 * (c + eps),
            min(30, ROT_MAX_ITERATIONS - iterations))
        iterations += steps
        if settled:
            w, bound = working_set(point)
            eps = max(eps / 10.0, 1e-8 * c)
        else:
            eps = max(10.0 * eps, 1e-6 * c)
    return solution(w, r, iterations, gap, gap <= stop)
