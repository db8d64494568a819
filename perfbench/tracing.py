"""Spans around pgthresh's public functions, recorded from outside the package.

Each wrapped function is replaced at the name its caller looks it up by, so
the package itself is unchanged.  Spans (id, name, start, end, parent, op)
stay in memory and are written once the run ends.  A layer's self time is
its spans' duration minus the part covered by their direct children.
"""

from __future__ import annotations

import csv
import functools
import gzip
import inspect
import itertools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

SETUP_OP = "setup"
EXPERIMENT_SPAN = "bench.success_rate_experiment"  # owns the CLI's worker pool

# Per-layer metrics printed with ``--trace 1``: (name, unit, better).
# Busy and self times are shares of the traced ops' total time, so a layer
# that does not run on a workload reports a share of 0, not a time of 0 s;
# the seconds themselves are in the results file.
PER_LAYER = (
    ("operators.project_capped_simplex.calls", "count", "lower"),
    ("operators.project_capped_simplex.busy_frac", "frac", "lower"),
    ("operators.project_capped_simplex.us_per_call", "us/call", "lower"),
    ("operators.project_capped_simplex.share_of_solve_rot", "frac", "lower"),
    ("operators.solve_rot.calls", "count", "lower"),
    ("operators.solve_rot.busy_frac", "frac", "lower"),
    ("operators.solve_rot.self_frac", "frac", "lower"),
    ("operators.solve_rot.iters_mean", "iters", "lower"),
    ("operators.solve_rot.width_mean", "count", "lower"),
    ("operators.solve_rot.nonconverged_frac", "frac", "lower"),
    ("operators.hard_threshold.calls", "count", "lower"),
    ("operators.hard_threshold.busy_frac", "frac", "lower"),
    ("solvers.solve.busy_frac", "frac", "lower"),
    ("solvers.solve.self_frac", "frac", "lower"),
    ("solvers.outer_iters", "count", "lower"),
    ("solvers.optimal_threshold_on_support.calls", "count", "lower"),
    ("solvers.optimal_threshold_on_support.busy_frac", "frac", "lower"),
    ("solvers.optimal_threshold_on_support.patterns", "count", "lower"),
    ("solvers.optimal_threshold_on_support.ns_per_pattern", "ns/pattern", "lower"),
    ("linalg.least_squares_on_support.calls", "count", "lower"),
    ("linalg.least_squares_on_support.busy_frac", "frac", "lower"),
    ("linalg.matvec.calls", "count", "lower"),
    ("linalg.matvec.busy_frac", "frac", "lower"),
    ("linalg.residual_norm.calls", "count", "lower"),
    ("linalg.residual_norm.busy_frac", "frac", "lower"),
    ("theory.brute_force_ric.calls", "count", "lower"),
    ("theory.brute_force_ric.busy_frac", "frac", "lower"),
    ("theory.verify_one_step_bound.calls", "count", "lower"),
    ("theory.verify_one_step_bound.busy_frac", "frac", "lower"),
    ("bench.make_trial_problem.calls", "count", "lower"),
    ("bench.make_trial_problem.busy_s", "s", "lower"),
    ("bench.parallel_speedup", "x", "higher"),
    ("bench.write_csv.busy_frac", "frac", "lower"),
    ("bench.write_csv.bytes", "bytes", "lower"),
    ("cli.main.busy_frac", "frac", "lower"),
    ("cli.main.self_frac", "frac", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)


class Tracer:
    """In-memory span recorder; safe to use from the threads an op starts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self.counters: dict = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op = None
        self._op_stack: list = []
        self._restore: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple:
        stack = self._stack()
        # a thread started by the op has no open span of its own: its spans
        # are children of whatever the op's own thread has open (e.g. the
        # experiment that owns the worker pool)
        source = stack or self._op_stack
        parent = source[-1] if source else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent, self.clock()

    def _close(self, name: str, opened: tuple) -> None:
        end = self.clock()
        stack, sid, parent, start = opened
        stack.pop()
        self.spans.append((sid, name, start, end, parent, self._op))

    @contextmanager
    def span(self, name: str):
        opened = self._open()
        try:
            yield
        finally:
            self._close(name, opened)

    def run_op(self, key: str, fn):
        """Run one op under a root span named ``op``."""
        self._op = key
        self._op_stack = self._stack()
        with self.span("op"):
            return fn()

    def op_spans(self) -> list:
        """Spans of the traced ops, without those of the traced set-up."""
        return [s for s in self.spans if s[5] != SETUP_OP]

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def replace(self, module, attr: str, value) -> None:
        """Set ``module.attr`` to ``value`` until ``unwrap``."""
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        """Replace ``module.attr`` by a traced version; ``observe(tracer, result, bound_args)``."""
        original = getattr(module, attr)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            opened = self._open()  # not self.span(): a generator costs more per call
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(name, opened)
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self, result, bound.arguments)
            return result

        self.replace(module, attr, traced)

    def unwrap(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)


def _observe_solve(tracer, report, args):
    tracer.count("solvers.outer_iters", report.iterations)


def _observe_rot(tracer, sol, args):
    tracer.count("operators.solve_rot.iters", sol.iterations)
    tracer.count("operators.solve_rot.width", len(args["u"].nonzero()[0]))
    tracer.count("operators.solve_rot.nonconverged", not sol.converged)


class _CountingItertools:
    """Stands in for ``itertools`` in ``solvers``, whose only use of it is the
    pattern enumeration of ``optimal_threshold_on_support``; counts the
    patterns that enumeration draws."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(itertools, name)

    def combinations(self, iterable, r):
        drawn = 0
        try:
            for pattern in itertools.combinations(iterable, r):
                drawn += 1
                yield pattern
        finally:
            self._tracer.count("solvers.optimal_threshold_on_support.patterns", drawn)


def _observe_csv(tracer, result, args):
    tracer.count("bench.write_csv.bytes", os.path.getsize(args["path"]))


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap the package's public functions at the names their callers use.

    The originals are restored on exit, so untraced code runs unwrapped.
    """
    from pgthresh import bench, cli, linalg, operators, solvers, theory

    plan = [
        (solvers, "solve", "solvers.solve", _observe_solve),
        (bench, "solve", "solvers.solve", _observe_solve),
        (solvers, "solve_rot", "operators.solve_rot", _observe_rot),
        (operators, "project_capped_simplex",
         "operators.project_capped_simplex", None),
        (solvers, "hard_threshold", "operators.hard_threshold", None),
        # top_k_support looks hard_threshold up in operators
        (operators, "hard_threshold", "operators.hard_threshold", None),
        (solvers, "optimal_threshold_on_support",
         "solvers.optimal_threshold_on_support", None),
        (theory, "brute_force_ric", "theory.brute_force_ric", None),
        (theory, "pgot_step", "theory.pgot_step", None),
        (theory, "verify_one_step_bound", "theory.verify_one_step_bound", None),
        (bench, "make_trial_problem", "bench.make_trial_problem", None),
        (bench, "success_rate_experiment", EXPERIMENT_SPAN, None),
        (bench, "write_csv", "bench.write_csv", _observe_csv),
        (cli, "main", "cli.main", None),
    ]
    plan += [(linalg, fn, f"linalg.{fn}", None)
             for fn in ("mat_vec", "transpose_mat_vec", "objective",
                        "residual_norm", "least_squares_on_support")]
    try:
        for module, attr, name, observe in plan:
            tracer.wrap(module, attr, name, observe)
        if getattr(solvers, "itertools", None) is itertools:
            tracer.replace(solvers, "itertools", _CountingItertools(tracer))
        yield tracer
    finally:
        tracer.unwrap()


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_stats(spans) -> dict:
    """name -> {"calls", "busy_s", "self_s"}."""
    children = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    stats: dict = {}
    for sid, name, start, end, _, _ in spans:
        st = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["busy_s"] += end - start
        st["self_s"] += end - start - _covered(children.get(sid, ()), start, end)
    return stats


def parallel_speedup(spans) -> float:
    """Sum of solve spans run by the experiment's pool over the experiment's wall time."""
    experiments = {sid: end - start for sid, name, start, end, _, _ in spans
                   if name == EXPERIMENT_SPAN}
    wall = sum(experiments.values())
    busy = sum(end - start for _, name, start, end, parent, _ in spans
               if name == "solvers.solve" and parent in experiments)
    return busy / wall if wall > 0 else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Every PER_LAYER metric by name.  Layers that did not run report 0.

    Set-up spans count only toward ``bench.make_trial_problem``; every other
    layer is measured over the traced ops, whose total time is ``traced_wall``.
    """
    op_spans = tracer.op_spans()
    stats = span_stats(op_spans)
    c = tracer.counters
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}

    def st(layer):
        return stats.get(layer, zero)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    stats["linalg.matvec"] = {key: st("linalg.mat_vec")[key]
                              + st("linalg.transpose_mat_vec")[key] for key in zero}
    out = {}
    for name, _, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = st(layer)["calls"]
        elif field in ("busy_frac", "self_frac"):
            out[name] = ratio(st(layer)[field.replace("_frac", "_s")], traced_wall)
    proj, rot = st("operators.project_capped_simplex"), st("operators.solve_rot")
    ots = st("solvers.optimal_threshold_on_support")
    patterns = c["solvers.optimal_threshold_on_support.patterns"]
    make = span_stats(tracer.spans).get("bench.make_trial_problem", zero)
    out.update({
        "operators.project_capped_simplex.us_per_call":
            ratio(proj["busy_s"], proj["calls"], 1e6),
        "operators.project_capped_simplex.share_of_solve_rot":
            ratio(proj["busy_s"], rot["busy_s"]),
        "operators.solve_rot.iters_mean": ratio(c["operators.solve_rot.iters"], rot["calls"]),
        "operators.solve_rot.width_mean": ratio(c["operators.solve_rot.width"], rot["calls"]),
        "operators.solve_rot.nonconverged_frac":
            ratio(c["operators.solve_rot.nonconverged"], rot["calls"]),
        "solvers.outer_iters": c["solvers.outer_iters"],
        "solvers.optimal_threshold_on_support.patterns": patterns,
        "solvers.optimal_threshold_on_support.ns_per_pattern":
            ratio(ots["busy_s"], patterns, 1e9),
        "bench.make_trial_problem.calls": make["calls"],
        "bench.make_trial_problem.busy_s": make["busy_s"],
        "bench.parallel_speedup": parallel_speedup(op_spans),
        "bench.write_csv.bytes": c["bench.write_csv.bytes"],
        "trace.overhead_frac": ratio(traced_wall, untraced_wall) - 1.0,
    })
    return {name: float(out[name]) for name, _, _ in PER_LAYER}


def write_spans(path, spans) -> None:
    """Write spans as gzipped CSV: id,name,start,end,parent,op."""
    with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("id", "name", "start", "end", "parent", "op"))
        for sid, name, start, end, parent, op in spans:
            writer.writerow((sid, name, repr(start), repr(end),
                             "" if parent is None else parent, op))
