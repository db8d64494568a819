"""Command-line surface: RIC bound tables, single solves, batch experiments.

Thin adapter over the library; no numerical logic lives here.  Exit codes:
0 success, 1 user error (bad flags or input, a path that cannot be read or
written), 2 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys


from . import bench, io, theory
from .model import ProblemInstance, SolverConfig
from .solvers import ALGORITHM_IDS, solve

BOUNDS_HEADER = "ratio,pgot_root,pgot_explicit,pgrot_root,pgrot_explicit,pgrotp"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; user errors are 1
        raise UsageError(message)


def _parse_grid(text: str) -> list[int]:
    """Parse '2:40:2' (inclusive when aligned) or a comma list like '2,6,10'."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise UsageError(f"bad grid {text!r}, expected start:stop[:step]")
        start, stop = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
        if step < 1:
            raise UsageError("grid step must be positive")
        return list(range(start, stop + 1, step))
    return [int(tok) for tok in text.split(",") if tok]


def _build_parser() -> _Parser:
    parser = _Parser(prog="pgthresh",
                     description="Partial-gradient optimal k-thresholding toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="print RIC convergence thresholds")
    p_bounds.add_argument("--q-over-k", type=int, nargs="+", required=True,
                          metavar="RATIO")
    p_bounds.add_argument("--csv", metavar="PATH")

    p_solve = sub.add_parser("solve", help="solve one instance from files")
    p_solve.add_argument("--matrix", required=True)
    p_solve.add_argument("--y", required=True)
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument("--q", type=int)
    p_solve.add_argument("--algo", default="pgrotp", choices=ALGORITHM_IDS)
    p_solve.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_solve.add_argument("--max-iters", type=int, default=50)
    p_solve.add_argument("--truth")
    p_solve.add_argument("--out")

    p_bench = sub.add_parser("bench", help="run a batch experiment to CSV")
    p_bench.add_argument("--experiment", required=True,
                         choices=("trace", "iters", "success"))
    p_bench.add_argument("--m", type=int, required=True)
    p_bench.add_argument("--n", type=int, required=True)
    p_bench.add_argument("--k-grid", required=True)
    p_bench.add_argument("--q-list", default="2k")
    p_bench.add_argument("--algos", default="pgrotp")
    # None: the flag was omitted and ExperimentConfig's default applies
    p_bench.add_argument("--trials", type=int)
    p_bench.add_argument("--sigma", type=float, default=0.0)
    p_bench.add_argument("--seed", type=int, required=True)
    p_bench.add_argument("--scaling", default="inv_sqrt_m",
                         choices=bench.SCALINGS)
    p_bench.add_argument("--threads", type=int, default=1)
    p_bench.add_argument("--trace-iters", type=int)
    p_bench.add_argument("--csv", required=True)
    return parser


def cmd_bounds(args) -> int:
    rows = []
    for ratio in args.q_over_k:
        if ratio < 2:
            raise UsageError(
                f"--q-over-k {ratio}: convergence thresholds require q >= 2k")
        q, k = ratio, 1
        rows.append((ratio,
                     theory.pgot_root_bound(q, k),
                     theory.pgot_explicit_bound(q, k),
                     theory.pgrot_root_bound(q, k),
                     theory.pgrot_explicit_bound(q, k),
                     theory.pgrotp_bound(q, k)))
    print(BOUNDS_HEADER)
    for row in rows:
        print(f"{row[0]}," + ",".join(f"{v:.6f}" for v in row[1:]))
    if args.csv:
        bench.write_csv(rows, args.csv, BOUNDS_HEADER)
    return 0


def cmd_solve(args) -> int:
    try:
        a = io.read_matrix(args.matrix)
        y = io.read_vector(args.y)
        truth = io.read_vector(args.truth) if args.truth else None
        n = a.shape[1]
        q = args.q if args.q is not None else min(2 * args.k, n)
        problem = ProblemInstance(a, y, k=args.k, q=q, lam=args.lam, truth=truth)
        cfg = SolverConfig(max_iterations=args.max_iters)
        report = solve(problem, args.algo, cfg)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(f"algorithm: {args.algo}")
    print(f"termination: {report.termination}")
    print(f"iterations: {report.iterations}")
    print(f"final objective ||y-Ax||_2: {report.trace[-1].objective:.6e}")
    if truth is not None:
        rel = report.trace[-1].relative_error
        print(f"relative error: {rel:.6e}")
    for event in report.events:
        print(f"note: {event}")
    if args.out:
        io.write_vector(args.out, report.final_x)
    return 0


def cmd_bench(args) -> int:
    if args.experiment == "trace" and args.trials is not None:
        raise UsageError("--trials does not apply to --experiment trace, "
                         "which runs trial 0")
    if args.experiment != "trace" and args.trace_iters is not None:
        raise UsageError("--trace-iters applies only to --experiment trace")
    given = {"trials": args.trials, "trace_iterations": args.trace_iters}
    try:
        k_grid = tuple(_parse_grid(args.k_grid))
        q_list = tuple(tok for tok in args.q_list.split(",") if tok)
        algos = tuple(tok for tok in args.algos.split(",") if tok)
        cfg = bench.ExperimentConfig(
            m=args.m, n=args.n, k_grid=k_grid, q_list=q_list,
            algorithms=algos, sigma=args.sigma, seed=args.seed,
            scaling=args.scaling, threads=args.threads,
            **{key: value for key, value in given.items() if value is not None})
        # fail on an unwritable --csv before the first cell, not after the
        # last; appending changes no file, and one the open created goes
        existed = os.path.exists(args.csv)
        open(args.csv, "a", encoding="utf-8").close()
        if not existed:
            os.remove(args.csv)
        # built per call, so a wrapper set on a bench attribute (perfbench's
        # tracer) is the function that runs
        run, header = {
            "trace": (bench.objective_trace_experiment, bench.TRACE_HEADER),
            "iters": (bench.iteration_count_experiment, bench.ITERATIONS_HEADER),
            "success": (bench.success_rate_experiment, bench.SUCCESS_HEADER),
        }[args.experiment]
        bench.write_csv(run(cfg), args.csv, header)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(f"wrote {args.csv}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "bounds":
            return cmd_bounds(args)
        if args.command == "solve":
            return cmd_solve(args)
        return cmd_bench(args)
    except (UsageError, OSError) as exc:  # OSError: a path the user named
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
