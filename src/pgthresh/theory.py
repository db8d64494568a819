"""Restricted-isometry machinery and computable convergence certificates.

Provides brute-force restricted isometry constants for small matrices, the
RIC thresholds guaranteeing convergence of each thresholding variant (both
the cubic-root form and the closed-form sufficient bounds), the per-iteration
contraction constants (rho, tau), and a one-step error-bound verifier for the
exhaustive PGOT iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from . import operators
from .model import as_matrix, as_vector, check_integer
from .solvers import pgot_step

_GOLDEN = (sqrt(5.0) + 1.0) / 2.0

Q_REGIMES = ("q=2k", "2k<q<=3k", "3k<q<=4k")
ROOT_TOLERANCE = 1e-10  # _bisect_root stops once its bracket is this narrow


@dataclass(frozen=True)
class RicTriple:
    delta_k: float
    delta_2k: float
    delta_3k: float

    def __post_init__(self):
        if not 0.0 <= self.delta_k <= self.delta_2k <= self.delta_3k:
            raise ValueError("RIC values must be nonnegative and nondecreasing")


@dataclass(frozen=True)
class ContractionConstants:
    rho: float
    tau: float
    variant: str

    @property
    def converges(self) -> bool:
        return self.rho < 1.0


def ceil_ratio(q: int, k: int) -> int:
    """Smallest integer >= q / k, for integers q, k >= 1 (anything else
    raises ValueError)."""
    check_integer(q, "q")
    check_integer(k, "k")
    if q < 1 or k < 1:
        raise ValueError("q and k must be positive")
    return -(-q // k)


def _require_q_2k(q: int, k: int) -> int:
    t = ceil_ratio(q, k)
    if q < 2 * k:
        raise ValueError(f"bounds require q >= 2k (got q={q}, k={k})")
    return t


def _bisect_root(cubic) -> float:
    # cubic is strictly increasing on (0, 1] with cubic(0) < 0 < cubic(1)
    lo, hi = 0.0, 1.0
    while hi - lo > ROOT_TOLERANCE:
        mid = 0.5 * (lo + hi)
        if cubic(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def pgot_cubic(alpha: float, q: int, k: int) -> float:
    t1 = ceil_ratio(q, k) + 1
    c = 2.0 / (3.0 + sqrt(5.0))
    return t1 * t1 * alpha**3 + t1 * t1 * alpha**2 + c * alpha - c


def pgot_root_bound(q: int, k: int) -> float:
    """RIC threshold for PGOT: unique root in (0,1) of its cubic."""
    _require_q_2k(q, k)
    return _bisect_root(lambda a: pgot_cubic(a, q, k))


def pgot_explicit_bound(q: int, k: int) -> float:
    """Closed-form sufficient RIC threshold for PGOT."""
    t1 = _require_q_2k(q, k) + 1
    phi = _GOLDEN * t1
    return 2.0 / (sqrt(phi * phi + 6.0 * phi + 1.0) + phi + 1.0)


def pgrot_cubic(beta: float, q: int, k: int) -> float:
    t1 = ceil_ratio(q, k) + 1
    c = 2.0 / (7.0 + 3.0 * sqrt(5.0))
    return 9.0 * t1 * t1 * beta**3 + 9.0 * t1 * t1 * beta**2 + c * beta - c


def pgrot_root_bound(q: int, k: int) -> float:
    """RIC threshold for PGROT: unique root in (0,1) of its cubic."""
    _require_q_2k(q, k)
    return _bisect_root(lambda b: pgrot_cubic(b, q, k))


def pgrot_explicit_bound(q: int, k: int) -> float:
    """Closed-form sufficient RIC threshold for PGROT."""
    t1 = _require_q_2k(q, k) + 1
    psi = 3.0 * _GOLDEN * _GOLDEN * t1
    return 2.0 / (sqrt(psi * psi + 6.0 * psi + 1.0) + psi + 1.0)


def pgrotp_bound(q: int, k: int) -> float:
    """RIC threshold for PGROTP (closed form)."""
    t1 = _require_q_2k(q, k) + 1
    return 1.0 / (3.0 * _GOLDEN * _GOLDEN * t1 + 1.0)


def contraction_constants(ric: RicTriple, q: int, k: int,
                          variant: str) -> ContractionConstants:
    """Per-iteration error-bound coefficients (rho, tau) for a variant.

    The one-step bound is ||x^{p+1} - x*|| <= rho ||x^p - x*|| + tau ||eta||;
    rho < 1 certifies geometric convergence up to the noise level.
    """
    variant = variant.lower()
    t1 = ceil_ratio(q, k) + 1
    dk, d2k, d3k = ric.delta_k, ric.delta_2k, ric.delta_3k
    if d2k >= 1.0:
        raise ValueError("contraction constants require delta_2k < 1")
    if variant == "pgot":
        rho = _GOLDEN * t1 * d3k * sqrt((1.0 + dk) / (1.0 - d2k))
        tau = ((sqrt(5.0) + 1.0) * t1 * (1.0 + d2k) + 4.0) / (2.0 * sqrt(1.0 - d2k))
    elif variant == "pgrot":
        rho = 3.0 * _GOLDEN**2 * t1 * d3k * sqrt((1.0 + dk) / (1.0 - d2k))
        tau = (_GOLDEN**2 * 3.0 * t1 * (1.0 + dk) / sqrt(1.0 - d2k)
               + (sqrt(5.0) + 1.0) / sqrt(1.0 - d2k))
    elif variant == "pgrotp":
        if d3k >= 1.0:
            raise ValueError("pgrotp constants require delta_3k < 1")
        rho = _GOLDEN**2 * 3.0 * t1 * d3k / (1.0 - d3k)
        tau = ((3.0 * _GOLDEN**2 * t1 * (1.0 + dk) + sqrt(5.0) + 1.0)
               / ((1.0 - d2k) * sqrt(1.0 + d2k))
               + sqrt(1.0 + dk) / (1.0 - d2k))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return ContractionConstants(rho=rho, tau=tau, variant=variant)


def brute_force_ric(a, s: int) -> float:
    """Exact s-th order restricted isometry constant by subset enumeration.

    delta_s = max over |S| = s of || A_S^T A_S - I ||_2, with every S from
    ``operators.subsets`` and the Gram sub-blocks' eigenvalues taken in
    batches of at most operators.CHUNK_FLOATS floats.  ``a`` must be a
    finite 2-d matrix (``model.as_matrix``).  Raises ExhaustiveLimitError
    when C(n, s) > EXHAUSTIVE_LIMIT.
    """
    a = as_matrix(a)
    n = a.shape[1]
    check_integer(s, "s")
    if not 1 <= s <= n:
        raise ValueError(f"s={s} must be in [1, {n}]")
    rows = operators.subsets(n, s)
    gram = a.T @ a
    eye = np.eye(s)
    delta = 0.0
    # the Gram sub-blocks hold s * s floats per pattern
    step = max(1, operators.CHUNK_FLOATS // (s * s))
    for lo in range(0, rows.shape[0], step):
        chunk = rows[lo: lo + step]
        subs = gram[chunk[:, :, None], chunk[:, None, :]] - eye
        eigs = np.linalg.eigvalsh(subs)
        delta = max(delta, float(np.max(np.abs(eigs))))
    return delta


@dataclass(frozen=True)
class BoundTable:
    """RIC thresholds per (q regime, variant), mirroring the published table."""

    entries: dict

    def get(self, variant: str, regime: str) -> float:
        return self.entries[(variant.lower(), regime)]


def table1() -> BoundTable:
    """RIC thresholds at the regime representatives q = 2k, 3k, 4k (k = 1)."""
    bound_fns = {"pgot": pgot_root_bound, "pgrot": pgrot_root_bound,
                 "pgrotp": pgrotp_bound}
    entries = {}
    for regime, q in zip(Q_REGIMES, (2, 3, 4)):
        for variant, fn in bound_fns.items():
            entries[(variant, regime)] = fn(q, 1)
    return BoundTable(entries)


def verify_one_step_bound(a, x_star, x_p, q: int, k: int):
    """Check the one-step PGOT error bound on a noiseless planted instance.

    Runs one exact PGOT iteration from x_p with y = A x*, evaluates both
    sides of ||x^{p+1} - x*|| <= rho ||x^p - x*|| using brute-force RICs,
    and returns (lhs, rhs, holds).  A non-finite or wrongly sized ``a``,
    ``x_star`` or ``x_p`` raises ValueError, not a failed certificate.
    """
    a = as_matrix(a)
    n = a.shape[1]
    x_star = as_vector(x_star, n, "x_star")
    x_p = as_vector(x_p, n, "x_p")
    y = a @ x_star
    ric = RicTriple(brute_force_ric(a, k), brute_force_ric(a, 2 * k),
                    brute_force_ric(a, 3 * k))
    constants = contraction_constants(ric, q, k, "pgot")
    x_next = pgot_step(a, y, x_p, k, q)
    lhs = float(np.linalg.norm(x_next - x_star))
    rhs = constants.rho * float(np.linalg.norm(x_p - x_star))
    holds = lhs <= rhs * (1.0 + 1e-12) + 1e-12
    return lhs, rhs, holds
