"""The seeded workloads, built only from pgthresh's public functions.

Every solver instance comes from ``bench.make_trial_problem``
(``scaling=inv_sqrt_m``); certificate matrices come from a generator seeded
by the workload seed.  ``build(seed, scratch)`` generates and validates a
workload's whole pool of ops and returns it with a digest of the inputs; the
same seed always gives the same pool.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from pgthresh import bench, cli, model, solvers, theory

from harness import CheckFailed, Op, Outcome

RECOVERY_TOL = 1e-3  # check_recovery tolerance for a successful solve
TERMINATIONS = {model.RECOVERY, model.RESIDUAL, model.STALLED,
                model.MAX_ITERATIONS}


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, Path], tuple]  # (seed, scratch dir) -> (ops, digest)
    # the first quality_ops ops of the pool always run, and success_rate and
    # outer_iters_mean are taken over them alone; fewer than a 55-s run
    # completes at the seed state
    quality_ops: int
    trace_ops: int  # ops in a traced pass; fixed, so traced counts repeat exactly


def _experiment(m: int, n: int, k: int, sigma: float, seed: int):
    return bench.ExperimentConfig(m=m, n=n, k_grid=(k,), sigma=sigma,
                                  seed=seed, scaling="inv_sqrt_m")


def _digest_problem(h, problem) -> None:
    h.update(f"{problem.k},{problem.q},{problem.a.shape}".encode())
    for arr in (problem.a, problem.y, problem.truth):
        h.update(np.ascontiguousarray(arr).tobytes())


def _spread(groups: list) -> list:
    """Merge groups so each is spread evenly over the result.

    Any stretch of a pass then mixes every group in proportion, so a run
    that stops part-way through a pass still sees the workload's mix.
    """
    keyed = [((i + 0.5) / len(g), j, op) for j, g in enumerate(groups)
             for i, op in enumerate(g)]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


def check_report(problem, report) -> None:
    """Raise CheckFailed unless a SolverReport is internally consistent."""
    x = report.final_x
    if x.shape != (problem.n,) or not np.all(np.isfinite(x)):
        raise CheckFailed("final_x is not a finite length-n vector")
    if np.count_nonzero(x) > problem.k:
        raise CheckFailed(f"||final_x||_0 = {np.count_nonzero(x)} > k = {problem.k}")
    if report.termination not in TERMINATIONS:
        raise CheckFailed(f"unknown termination {report.termination!r}")
    recomputed = float(np.linalg.norm(problem.y - problem.a @ x))
    reported = report.trace[-1].objective
    # 1e-9 relative; the floor keeps exact recoveries (residual ~1e-15)
    # from failing on rounding alone
    if not math.isclose(reported, recomputed, rel_tol=1e-9,
                        abs_tol=1e-12 * float(np.linalg.norm(problem.y))):
        raise CheckFailed(f"trace objective {reported!r} != ||y - Ax|| {recomputed!r}")


def _solve_op(key: str, problem, algorithm: str, cfg=None) -> Op:
    def check(report):
        check_report(problem, report)
        ok = solvers.check_recovery(report.final_x, problem.truth, RECOVERY_TOL)
        return [Outcome(bool(ok), report.iterations)]

    return Op(key, lambda: solvers.solve(problem, algorithm, cfg), check)


# --- phase-pgrotp: the paper's method, nearly all time in the ROT QP --------

PHASE_K, PHASE_TRIALS = 20, 60


def build_phase(seed: int, scratch: Path):
    """pgrotp at m=100, n=200, q=2k and k = 20.

    Every solve at k = 20 recovers its signal, but about a quarter of the
    ROT solves stop at the iteration cap without converging.  k = 10 and 30
    would bracket it, but their solve times vary more from instance to
    instance, and with them in the mix the throughput of a run swung about
    twice as much from seed to seed.
    """
    h = hashlib.sha256()
    cfg = _experiment(100, 200, PHASE_K, 0.0, seed)
    ops = []
    for trial in range(PHASE_TRIALS):
        problem = bench.make_trial_problem(cfg, PHASE_K, 2 * PHASE_K, "pgrotp", trial)
        _digest_problem(h, problem)
        ops.append(_solve_op(f"pgrotp k={PHASE_K} t={trial}", problem, "pgrotp"))
    return ops, h.hexdigest()


# --- baseline-exact: everything but the ROT quadratic program ---------------

CLI_M, CLI_N, CLI_K, CLI_ALGOS, CLI_SIGMA = 256, 1024, (20, 40, 60), ("omp", "sp"), 1e-3
# wide solves: distinct instances per (algorithm, k), and repeats of each per pass
WIDE_TRIALS, WIDE_REPEATS = 4, 24
PGOT_TRIALS = 52  # per k; none repeats
CLI_RUNS, CLI_REPEATS = 8, 6
CERTS = 48


def _cli_run(argv: list, scratch: Path):
    """Run the CLI with its CSV in a fresh temporary directory; (exit code, CSV text)."""
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        csv_path = Path(tmp) / "out.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--csv", str(csv_path)])
        text = csv_path.read_text(encoding="utf-8") if csv_path.exists() else ""
    return code, text


def _success_op(run_seed: int, h, scratch: Path) -> Op:
    """``pgthresh bench --experiment success`` for omp and sp on 2 threads."""
    cfg = bench.ExperimentConfig(m=CLI_M, n=CLI_N, k_grid=CLI_K, algorithms=CLI_ALGOS,
                                 trials=1, sigma=CLI_SIGMA, seed=run_seed)
    for k in CLI_K:  # the instances the experiment will build for itself
        for algo in CLI_ALGOS:
            _digest_problem(h, bench.make_trial_problem(cfg, k, 2 * k, algo, 0))
    argv = ["bench", "--experiment", "success", "--m", str(CLI_M), "--n", str(CLI_N),
            "--k-grid", ",".join(map(str, CLI_K)), "--algos", ",".join(CLI_ALGOS),
            "--trials", "1", "--sigma", str(CLI_SIGMA), "--threads", "2",
            "--seed", str(run_seed)]

    def check(result):
        code, text = result
        if code != 0:
            raise CheckFailed(f"cli exit code {code}")
        lines = text.splitlines()
        if not lines or lines[0] != bench.SUCCESS_HEADER:
            raise CheckFailed("CSV header differs from bench.SUCCESS_HEADER")
        outcomes, cells = [], []
        for _m, _n, k, _q, algo, _sigma, success, trials, rate in csv.reader(lines[1:]):
            success, trials = int(success), int(trials)
            if not 0 <= success <= trials or float(rate) != success / trials:
                raise CheckFailed(f"inconsistent success row for k={k} {algo}")
            cells.append((int(k), algo))
            outcomes += [Outcome(True)] * success + [Outcome(False)] * (trials - success)
        expected = sorted((k, a) for k in CLI_K for a in CLI_ALGOS)
        if sorted(cells) != expected:
            raise CheckFailed(f"success rows for cells {sorted(cells)}, expected {expected}")
        return outcomes

    return Op(f"cli success seed={run_seed}", lambda: _cli_run(argv, scratch), check)


def _certificate_op(key: str, a, x_star, x_p, k: int) -> Op:
    def check(result):
        lhs, rhs, holds = result
        if not (math.isfinite(lhs) and math.isfinite(rhs) and lhs >= 0 and rhs >= 0):
            raise CheckFailed(f"certificate sides lhs={lhs!r} rhs={rhs!r}")
        return [Outcome(bool(holds))]

    return Op(key, lambda: theory.verify_one_step_bound(a, x_star, x_p, 2 * k, k),
              check)


def _certificates(seed: int, count: int, h) -> list:
    # sized like the one-step acceptance test; only matrices with brute-force
    # delta_2k < 1 have finite contraction constants
    rng = np.random.default_rng([seed, 6])
    ops = []
    while len(ops) < count:
        m, n, k = int(rng.integers(6, 11)), int(rng.integers(10, 13)), int(rng.integers(1, 3))
        a = rng.standard_normal((m, n)) / np.sqrt(m)
        if theory.brute_force_ric(a, 2 * k) >= 1.0:
            continue
        x_star, x_p = np.zeros(n), np.zeros(n)
        x_star[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k)
        x_p[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k)
        for arr in (a, x_star, x_p):
            h.update(arr.tobytes())
        ops.append(_certificate_op(f"cert {len(ops)}", a, x_star, x_p, k))
    return ops


def build_baseline_exact(seed: int, scratch: Path):
    """omp/sp/iht at m=256, n=1024; pgot at m=30, n=60; CLI runs; certificates.

    Wide solves and CLI runs cost nearly the same on every instance, so a
    few distinct ones repeat to fill their share of a pass.  pgot's cost
    varies several-fold between instances, so none of them repeats.
    """
    h = hashlib.sha256()
    iht_cfg = model.SolverConfig(normalize_stepsize=True)
    wide = []
    for trial in range(WIDE_TRIALS):
        for k in (20, 40, 60):
            cfg = _experiment(256, 1024, k, 1e-3, seed)
            for algo, solver_cfg in (("omp", None), ("sp", None), ("iht", iht_cfg)):
                problem = bench.make_trial_problem(cfg, k, 2 * k, algo, trial)
                _digest_problem(h, problem)
                wide.append(_solve_op(f"{algo} k={k} t={trial}", problem, algo,
                                      solver_cfg))
    pgot = []
    for trial in range(PGOT_TRIALS):
        for k in (4, 5):
            problem = bench.make_trial_problem(_experiment(30, 60, k, 0.0, seed),
                                               k, 2 * k, "pgot", trial)
            _digest_problem(h, problem)
            pgot.append(_solve_op(f"pgot k={k} t={trial}", problem, "pgot"))
    runs = [_success_op(seed * 100 + i, h, scratch) for i in range(CLI_RUNS)]
    others = _spread([wide * WIDE_REPEATS, pgot, runs * CLI_REPEATS])
    # two certificates after every other op, so the median op is a
    # certificate in every run rather than flipping between op kinds; the
    # distinct certificates repeat in turn
    cert_ops = _certificates(seed, CERTS, h)
    ops = [op for i, other in enumerate(others)
           for op in (other, cert_ops[2 * i % CERTS], cert_ops[(2 * i + 1) % CERTS])]
    return ops, h.hexdigest()


WORKLOADS = {w.name: w for w in (
    Workload("phase-pgrotp", build_phase, quality_ops=20, trace_ops=8),
    Workload("baseline-exact", build_baseline_exact, quality_ops=2000, trace_ops=303),
)}

