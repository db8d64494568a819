"""Dense linear-algebra primitives used by the solvers."""

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
    """||y - A x||_2, the quantity recorded in solver traces."""
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


def least_squares_on_support(a: np.ndarray, y: np.ndarray,
                             support) -> np.ndarray:
    """Minimize ||y - A z||_2 over vectors z supported on ``support``.

    Returns the full-length vector z.  The empty support yields the zero
    vector; rank-deficient restricted systems get the minimum-norm solution.
    """
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    if a.ndim != 2 or y.ndim != 1 or a.shape[0] != y.size:
        raise ValueError(f"dimension mismatch: A is {a.shape}, y has length {y.size}")
    n = a.shape[1]
    idx = np.asarray(sorted(support), dtype=int)
    z = np.zeros(n)
    if idx.size == 0:
        return z
    if idx[0] < 0 or idx[-1] >= n:
        raise ValueError(f"support indices out of range [0, {n})")
    coef, *_ = np.linalg.lstsq(a[:, idx], y, rcond=None)
    z[idx] = coef
    return z
