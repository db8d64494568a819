"""Problem and result data model shared by all solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Termination reasons reported by solvers.
RECOVERY = "recovery_criterion_met"
RESIDUAL = "residual_tolerance_met"
STALLED = "stalled"
MAX_ITERATIONS = "max_iterations"


def as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def as_vector(v, length: int | None = None, name: str = "vector") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {v.shape}")
    if length is not None and v.size != length:
        raise ValueError(f"{name} has length {v.size}, expected {length}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} entries must be finite")
    return v


@dataclass(frozen=True)
class ProblemInstance:
    """A sparsity-constrained least-squares instance min ||y - Ax||^2 s.t. ||x||_0 <= k.

    ``q`` is the partial-gradient width (number of gradient entries kept per
    iteration); ``lam`` the gradient stepsize.  ``truth`` optionally carries a
    planted sparse vector so recovery can be measured exactly.
    """

    a: np.ndarray
    y: np.ndarray
    k: int
    q: int
    lam: float = 1.0
    truth: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "a", as_matrix(self.a))
        m, n = self.a.shape
        object.__setattr__(self, "y", as_vector(self.y, m, "y"))
        if not 1 <= self.k <= n:
            raise ValueError(f"k={self.k} must satisfy 1 <= k <= n={n}")
        if not self.k <= self.q <= n:
            raise ValueError(f"q={self.q} must satisfy k <= q <= n")
        if not self.lam > 0:
            raise ValueError("stepsize lam must be positive")
        if self.truth is not None:
            object.__setattr__(self, "truth", as_vector(self.truth, n, "truth"))

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 50
    recovery_tolerance: float = 1e-3
    residual_tolerance: float = 1e-6
    rot_tolerance: float = 1e-8
    rot_max_iterations: int = 5000
    normalize_stepsize: bool = False

    def __post_init__(self):
        if self.max_iterations < 1 or self.rot_max_iterations < 1:
            raise ValueError("iteration limits must be positive")
        for tol in (self.recovery_tolerance, self.residual_tolerance,
                    self.rot_tolerance):
            if tol <= 0:
                raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    objective: float  # ||y - A x^p||_2
    relative_error: float | None = None  # ||x^p - x*||_2 / ||x*||_2 if truth known


@dataclass
class SolverReport:
    final_x: np.ndarray
    iterations: int
    trace: list[TraceEntry]
    termination: str
    events: list[str] = field(default_factory=list)
