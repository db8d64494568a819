"""Dense linear-algebra primitives used by the solvers.

``least_squares_on_support`` is the fit behind the pursuit step of pgrotp
and both fits of an sp step.  It solves the normal equations of the support
when a Cholesky factor of their Gram matrix shows the columns clearly
independent, and falls back to ``np.linalg.lstsq`` (SVD, minimum-norm
solution) when they are not.  omp grows its own inverse Cholesky factor one
column per step (``solvers._omp``) under the same pivot bound,
``LSQ_PIVOT_RATIO``, and calls this function from the first step whose
pivot fails it or whose support outgrows m.
"""

from __future__ import annotations

import numpy as np


def mat_vec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Dense product A x."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    if a.ndim != 2 or x.ndim != 1 or a.shape[1] != x.size:
        raise ValueError(f"dimension mismatch: A is {a.shape}, x has length {x.size}")
    return a @ x


def transpose_mat_vec(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Dense product A^T r (negative gradient direction up to the residual)."""
    a = np.asarray(a, dtype=float)
    r = np.asarray(r, dtype=float)
    if a.ndim != 2 or r.ndim != 1 or a.shape[0] != r.size:
        raise ValueError(f"dimension mismatch: A is {a.shape}, r has length {r.size}")
    return a.T @ r


def objective(a: np.ndarray, y: np.ndarray, x: np.ndarray) -> float:
    """Quadratic objective (1/2) ||y - A x||_2^2."""
    r = np.asarray(y, dtype=float) - mat_vec(a, x)
    return 0.5 * float(r @ r)


def residual_norm(a: np.ndarray, y: np.ndarray, x: np.ndarray) -> float:
    """||y - A x||_2 from the dense product A x.

    Solver traces record the same norm formed on the nonzero columns of x,
    so their last bits can differ from this one.
    """
    r = np.asarray(y, dtype=float) - mat_vec(a, x)
    return float(np.linalg.norm(r))


def gram_lambda_max(b: np.ndarray) -> float:
    """Exact lambda_max(B^T B) = ||B||_2^2, from the smaller Gram matrix.

    B^T B and B B^T share their nonzero eigenvalues.  An empty B gives 0.
    """
    if b.size == 0:
        return 0.0
    gram = b.T @ b if b.shape[1] <= b.shape[0] else b @ b.T
    return float(np.linalg.eigvalsh(gram)[-1])


# The normal equations square the condition number of the support's columns,
# so they run only while the smallest Cholesky pivot of the Gram matrix (an
# upper bound on the least singular value) exceeds this fraction of the
# largest column norm.  On random 256-row supports of condition number 1e4
# the pivot ratio was about 1e-3 and the relative error at most 5e-9; at 1e5
# it was about 1e-4 and the error 2e-7, so a looser bound would lose digits.
LSQ_PIVOT_RATIO = 1e-3


def least_squares_on_support(a: np.ndarray, y: np.ndarray,
                             support) -> np.ndarray:
    """Minimize ||y - A z||_2 over vectors z supported on ``support``.

    Returns the full-length vector z.  ``support`` is a sequence or array
    of integer indices; repeated indices are merged, and indices that are
    not integers or lie outside [0, n) raise ValueError.  The empty support
    yields the zero vector.  When the support has at most m columns and the
    smallest Cholesky pivot of their Gram matrix is above ``LSQ_PIVOT_RATIO``
    times their largest norm, the normal equations are solved; otherwise
    (more columns than rows, or columns that are dependent or nearly so)
    ``np.linalg.lstsq`` gives the minimum-norm solution.
    """
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    if a.ndim != 2 or y.ndim != 1 or a.shape[0] != y.size:
        raise ValueError(f"dimension mismatch: A is {a.shape}, y has length {y.size}")
    m, n = a.shape
    idx = np.unique(np.asarray(support))
    z = np.zeros(n)
    if idx.size == 0:
        return z
    if not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"support indices must be integers, got {idx.dtype}")
    if idx[0] < 0 or idx[-1] >= n:
        raise ValueError(f"support indices out of range [0, {n})")
    cols = a[:, idx]
    if idx.size <= m:
        gram = cols.T @ cols
        # pivot j of the Cholesky factor is the distance of column j to the
        # span of those before it; the factor only tests the rank
        try:
            pivot = np.linalg.cholesky(gram).diagonal().min()
        except np.linalg.LinAlgError:
            pivot = 0.0
        if pivot > LSQ_PIVOT_RATIO * np.sqrt(gram.diagonal().max()):
            z[idx] = np.linalg.solve(gram, cols.T @ y)
            return z
    coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
    z[idx] = coef
    return z
