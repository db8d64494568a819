"""Partial-gradient optimal k-thresholding solvers for sparse least squares."""

from .linalg import (least_squares_on_support, mat_vec, objective,
                     residual_norm, transpose_mat_vec)
from .model import (ProblemInstance, SolverConfig, SolverReport, TraceEntry,
                    MAX_ITERATIONS, RECOVERY, RESIDUAL, STALLED)
from .operators import (ExhaustiveLimitError, RotSolution, hard_threshold,
                        project_capped_simplex, solve_rot, top_k_support)
from .operators import optimal_threshold_on_support as exact_optimal_threshold
from .solvers import ALGORITHM_IDS, check_recovery, pgot_step, solve
from .theory import (BoundTable, ContractionConstants, RicTriple,
                     brute_force_ric, ceil_ratio, contraction_constants,
                     pgot_explicit_bound, pgot_root_bound,
                     pgrot_explicit_bound, pgrot_root_bound, pgrotp_bound,
                     table1, verify_one_step_bound)

__all__ = [
    "ALGORITHM_IDS", "BoundTable", "ContractionConstants",
    "ExhaustiveLimitError", "MAX_ITERATIONS", "ProblemInstance", "RECOVERY",
    "RESIDUAL", "RicTriple", "RotSolution", "STALLED", "SolverConfig",
    "SolverReport", "TraceEntry", "brute_force_ric", "ceil_ratio",
    "check_recovery", "contraction_constants", "exact_optimal_threshold",
    "hard_threshold", "least_squares_on_support", "mat_vec", "objective",
    "pgot_explicit_bound", "pgot_root_bound", "pgot_step",
    "pgrot_explicit_bound", "pgrot_root_bound", "pgrotp_bound",
    "project_capped_simplex", "residual_norm", "solve", "solve_rot",
    "table1", "top_k_support", "transpose_mat_vec", "verify_one_step_bound",
]

__version__ = "0.1.0"
