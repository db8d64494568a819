"""Seeded random problem generation and the three benchmark experiments.

Experiments mirror the standard compressed-sensing evaluation protocol:
objective traces over iterations, average iteration counts to the recovery
criterion, and success-rate curves over the sparsity grid.  All randomness
derives from a single experiment seed so results are reproducible byte for
byte, independent of worker parallelism.
"""

from __future__ import annotations

import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import RECOVERY, ProblemInstance, SolverConfig, check_integer
from .solvers import ALGORITHM_IDS, solve

TRACE_HEADER = "iter,algo,q,objective"
ITERATIONS_HEADER = "m,n,k,q,algo,mean_iters,trials"
SUCCESS_HEADER = "m,n,k,q,algo,sigma,success,trials,rate"

SCALINGS = ("raw", "inv_sqrt_m")


@dataclass(frozen=True)
class ExperimentConfig:
    m: int
    n: int
    k_grid: tuple
    q_list: tuple = ("2k",)
    algorithms: tuple = ("pgrotp",)
    trials: int = 50
    sigma: float = 0.0
    seed: int = 0
    scaling: str = "inv_sqrt_m"
    threads: int = 1
    trace_iterations: int = 70

    def __post_init__(self):
        for name in ("m", "n", "trials", "threads", "trace_iterations", "seed"):
            check_integer(getattr(self, name), name)
        if self.seed < 0:  # numpy's seeding would reject it mid-run
            raise ValueError(f"seed={self.seed} must be nonnegative")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"m={self.m} and n={self.n} must be positive")
        if not self.k_grid or not self.q_list or not self.algorithms:
            raise ValueError("k_grid, q_list and algorithms must be nonempty")
        for algo in self.algorithms:
            if algo not in ALGORITHM_IDS:
                raise ValueError(f"unknown algorithm {algo!r}")
        for k in self.k_grid:
            check_integer(k, "k")
            if not 1 <= k <= self.n:
                raise ValueError(f"k={k} must satisfy 1 <= k <= n={self.n}")
        for token in self.q_list:  # raises on a token it cannot parse
            resolve_q(token, 1, self.n)
        if not 0 <= self.sigma < np.inf:  # nan fails both comparisons
            raise ValueError(f"sigma={self.sigma} must be finite and nonnegative")
        if self.scaling not in SCALINGS:
            raise ValueError(f"scaling must be one of {SCALINGS}")
        if self.trials < 1 or self.threads < 1:
            raise ValueError("trials and threads must be positive")
        if self.trace_iterations < 1:
            raise ValueError(
                f"trace_iterations={self.trace_iterations} must be positive")


@dataclass(frozen=True)
class CellResult:
    m: int
    n: int
    k: int
    q: int
    algorithm: str
    sigma: float
    success_count: int
    trials: int
    mean_iterations: float

    @property
    def rate(self) -> float:
        return self.success_count / self.trials


def gen_gaussian_matrix(m: int, n: int, seed, scaling: str = "inv_sqrt_m") -> np.ndarray:
    """Seeded i.i.d. N(0,1) matrix, optionally scaled by 1/sqrt(m)."""
    check_integer(m, "m")
    check_integer(n, "n")
    if scaling not in SCALINGS:
        raise ValueError(f"scaling must be one of {SCALINGS}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    if scaling == "inv_sqrt_m":
        a /= np.sqrt(m)
    return a


def gen_sparse_vector(n: int, k: int, seed) -> np.ndarray:
    """Exactly k nonzeros on a uniform random support, N(0,1) values."""
    check_integer(n, "n")
    check_integer(k, "k")
    if not 0 <= k <= n:
        raise ValueError(f"k={k} must be in [0, {n}]")
    rng = np.random.default_rng(seed)
    support = rng.choice(n, size=k, replace=False)
    values = rng.standard_normal(k)
    while np.any(values == 0.0):  # probability-zero guard
        values = np.where(values == 0.0, rng.standard_normal(k), values)
    x = np.zeros(n)
    x[support] = values
    return x


def resolve_q(token, k: int, n: int) -> int:
    """Resolve a q specification ('k', '2k', '3k', 'n' or an integer) for a cell."""
    if isinstance(token, (int, np.integer)) and not isinstance(token, bool):
        q = int(token)
    else:
        text = str(token).strip().lower()
        try:
            if text == "n":
                q = n
            elif text.endswith("k"):
                mult = text[:-1]
                q = (int(mult) if mult else 1) * k
            else:
                q = int(text)
        except ValueError:
            raise ValueError(f"bad q token {token!r}: expected 'k', '<int>k', "
                             "'n' or an integer") from None
    return max(k, min(q, n))


def _trial_seed(seed: int, m, n, k, q, algo, sigma, trial) -> list:
    key = f"{m},{n},{k},{q},{algo},{sigma:.6g}".encode()
    return [seed, zlib.crc32(key), trial]


def make_trial_problem(cfg: ExperimentConfig, k: int, q: int, algo: str,
                       trial: int) -> ProblemInstance:
    """Build the planted instance for one (cell, trial) pair."""
    ss = _trial_seed(cfg.seed, cfg.m, cfg.n, k, q, algo, cfg.sigma, trial)
    rng = np.random.default_rng(ss)
    a = gen_gaussian_matrix(cfg.m, cfg.n, rng, cfg.scaling)
    x_star = gen_sparse_vector(cfg.n, k, rng)
    y = a @ x_star
    if cfg.sigma > 0:
        # noise enters the raw measurement model; matrix scaling rescales the
        # whole equation, so the noise picks up the same 1/sqrt(m) factor
        eta = cfg.sigma * rng.standard_normal(cfg.m)
        if cfg.scaling == "inv_sqrt_m":
            eta /= np.sqrt(cfg.m)
        y = y + eta
    return ProblemInstance(a, y, k=k, q=q, truth=x_star)


def _map(fn, items, threads: int):
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def objective_trace_experiment(cfg: ExperimentConfig) -> list[tuple]:
    """Objective value per iteration for PGROTP at each distinct q, ascending.

    Single (m, n, k) cell on trial 0's instance, fixed iteration budget
    (trace_iterations); rows are (iteration, algo, q, ||y - A x^p||_2).
    The config must name exactly one k and algorithms ("pgrotp",).
    """
    if len(cfg.k_grid) != 1 or cfg.algorithms != ("pgrotp",):
        raise ValueError("the trace experiment runs pgrotp on one k: "
                         f"got k_grid={cfg.k_grid}, algorithms={cfg.algorithms}")
    (k,) = cfg.k_grid
    solver_cfg = SolverConfig(max_iterations=cfg.trace_iterations)

    def run(q):
        problem = make_trial_problem(cfg, k, q, "pgrotp", 0)
        report = solve(problem, "pgrotp", solver_cfg)
        return [(entry.iteration, "pgrotp", q, entry.objective)
                for entry in report.trace]

    # tokens that resolve to one q (say 3k and n, clamped) run it once
    qs = sorted({resolve_q(token, k, cfg.n) for token in cfg.q_list})
    return [row for chunk in _map(run, qs, cfg.threads) for row in chunk]


def _run_cell(cfg: ExperimentConfig, k: int, q: int, algo: str) -> CellResult:
    solver_cfg = SolverConfig()
    successes = 0
    iteration_sum = 0.0
    for trial in range(cfg.trials):
        problem = make_trial_problem(cfg, k, q, algo, trial)
        report = solve(problem, algo, solver_cfg)
        # with a truth, _run stops at RECOVERY iff the iterate it stops on
        # meets the recovery criterion
        ok = report.termination == RECOVERY
        successes += int(ok)
        # failed trials are charged the full iteration budget
        iteration_sum += report.iterations if ok else solver_cfg.max_iterations
    return CellResult(cfg.m, cfg.n, k, q, algo, cfg.sigma, successes,
                      cfg.trials, iteration_sum / cfg.trials)


def _run_grid(cfg: ExperimentConfig) -> list[CellResult]:
    # one cell per distinct (k, q, algo), however often the lists repeat it
    cells = sorted({(k, resolve_q(token, k, cfg.n), algo) for k in cfg.k_grid
                    for token in cfg.q_list for algo in cfg.algorithms})
    return _map(lambda c: _run_cell(cfg, *c), cells, cfg.threads)


def iteration_count_experiment(cfg: ExperimentConfig) -> list[CellResult]:
    """Mean iterations to the recovery criterion over the sparsity grid.

    Noiseless protocol; trials that never meet the criterion count as the
    full iteration budget.
    """
    if cfg.sigma != 0:
        raise ValueError("iteration-count experiment is noiseless (sigma = 0)")
    return _run_grid(cfg)


def success_rate_experiment(cfg: ExperimentConfig) -> list[CellResult]:
    """Empirical recovery probability per (k, algorithm) cell."""
    return _run_grid(cfg)


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(rows, path, header: str) -> None:
    """Write a header line then one comma-joined line per row.

    Floats are formatted with 17 significant digits so values round-trip.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(_fmt(x) for x in row) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing CSV to {path}: {exc}") from exc


def iteration_rows(results) -> list[tuple]:
    return [(r.m, r.n, r.k, r.q, r.algorithm, r.mean_iterations, r.trials)
            for r in results]


def success_rows(results) -> list[tuple]:
    return [(r.m, r.n, r.k, r.q, r.algorithm, r.sigma, r.success_count,
             r.trials, r.rate) for r in results]
