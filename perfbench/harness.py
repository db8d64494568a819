"""Measurement core: closed loops of ops for a time budget, and their summary.

Pure Python (no numpy, no pgthresh) so the statistics can be tested on fake
ops.  An op is one call a user would make (a ``solve``, a CLI run, a
certificate); its output is checked outside the timed region.

Op times are in reference seconds (unit ``ref_s``): wall seconds scaled by
the machine's speed relative to a fixed reference, as measured by a
calibration loop between ops.  On a shared host the speed of a core drifts
by a fifth within a minute, and the scaling takes most of that drift out of
the figures.  Set-up time is in wall seconds.
"""

from __future__ import annotations

import math
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

# End-to-end metrics in BENCHMARK.json: (name, unit, better).  A run also
# prints ``failed_frac``, which is 0 on a healthy run and so has no relative
# bound (the result line carries it as ``failed``/``attempted``), and the
# median op latency ``op_s_p50``, which is too unsteady between seeds to
# bound (see NOTES.md).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/ref_s", "higher"),
    ("success_rate", "frac", "higher"),
    ("outer_iters_mean", "iters", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


class CheckFailed(Exception):
    """An op ran but its output failed a correctness check."""


@dataclass(frozen=True)
class Outcome:
    """One quality-checked unit of an op's output (a solve, a CLI trial, a certificate)."""

    ok: bool
    outer_iters: int | None = None  # None for outputs that are not solves


@dataclass(frozen=True)
class Op:
    """One user-level call.  ``run`` is timed; ``check`` validates its result.

    Ops with the same ``key`` solve the same inputs, so their outcomes are
    counted once however often a run repeats them.
    """

    key: str
    run: Callable[[], Any]
    check: Callable[[Any], list]


@dataclass
class Measurement:
    elapsed: float = 0.0         # wall seconds of the whole body
    scaled_elapsed: float = 0.0  # the same in reference seconds, calibration excluded
    attempted: int = 0
    latencies: list = field(default_factory=list)  # wall seconds, successful ops only
    scaled: list = field(default_factory=list)     # the same in reference seconds
    failures: list = field(default_factory=list)   # "key: reason"
    outcomes: dict = field(default_factory=dict)   # key -> list[Outcome], quality ops only

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_op(op: Op, meas: Measurement, clock=time.perf_counter,
           around=None) -> list | None:
    """Run, time and check one op, recording its latency or failure in ``meas``.

    Returns the op's outcomes.  An op that raises or fails its check is
    counted as failed and returns None; the caller goes on with the next op.
    ``around`` optionally wraps the timed call (the tracer uses it to open
    the op's root span).
    """
    meas.attempted += 1
    try:
        t0 = clock()
        result = around(op.key, op.run) if around else op.run()
        dt = clock() - t0
        outcomes = op.check(result)
    except Exception as exc:  # a failing op is data, not a crash
        where = traceback.extract_tb(exc.__traceback__)[-1]
        meas.failures.append(f"{op.key}: {type(exc).__name__}: {exc} "
                             f"({Path(where.filename).name}:{where.lineno})")
        return None
    meas.latencies.append(dt)
    return outcomes


def measure_for(ops: list, seconds: float, quality_ops: int, speed=lambda: 1.0,
                clock=time.perf_counter, every: float = 0.5) -> Measurement:
    """Cycle through ``ops`` until ``seconds`` have elapsed (closed loop, one client).

    The loop stops at the first op boundary past the budget, but not before
    the first ``quality_ops`` ops of the list have run, and always runs at
    least one op, so the elapsed time covers whole ops only.  Outcomes are
    kept only for those first ops: the quality figures then cover the same
    inputs however fast the program runs.  At the start,
    at the end and at the first op boundary ``every`` seconds after the last
    measurement, ``speed()`` gives the machine's speed in reference seconds
    per wall second; the ops between two measurements are scaled by their
    mean.
    """
    if not ops:
        raise ValueError("no ops to run")
    meas = Measurement()
    start = clock()
    factor = speed()
    stretch_start, first = clock(), 0
    i = 0
    while True:
        op = ops[i % len(ops)]
        outcomes = run_op(op, meas, clock)
        if i < quality_ops and outcomes is not None:
            meas.outcomes.setdefault(op.key, outcomes)
        i += 1
        now = clock()
        finished = now - start >= seconds and i >= quality_ops
        if finished or now - stretch_start >= every:
            after = speed()
            mean = (factor + after) / 2
            meas.scaled_elapsed += (now - stretch_start) * mean
            meas.scaled += [x * mean for x in meas.latencies[first:]]
            factor, first = after, len(meas.latencies)
            stretch_start = clock()
        if finished:
            meas.elapsed = clock() - start
            return meas


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile, ``p`` in [0, 1]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = p * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_level(count: int, min_beyond: int = 10) -> float | None:
    """Highest of p99 / p90 / p50 with at least ``min_beyond`` samples above it."""
    for per_mille in (990, 900, 500):  # integers, so 100 samples leave exactly 10 above p90
        if count * (1000 - per_mille) >= min_beyond * 1000:
            return per_mille / 1000
    return None


def summarize(meas: Measurement) -> dict:
    """End-to-end figures of a measured body (everything except set-up and memory)."""
    lat = meas.scaled
    outcomes = [o for per_op in meas.outcomes.values() for o in per_op]
    iters = [o.outer_iters for o in outcomes if o.outer_iters is not None]
    done = meas.attempted - meas.failed
    out = {
        "ops_per_s": done / meas.scaled_elapsed if meas.scaled_elapsed > 0 else 0.0,
        "op_s_p50": statistics.median(lat) if lat else 0.0,
        "op_count": len(lat),
        "distinct_ops": len(meas.outcomes),
        "success_rate": (sum(o.ok for o in outcomes) / len(outcomes)
                         if outcomes else 0.0),
        "outer_iters_mean": statistics.fmean(iters) if iters else 0.0,
        "failed_frac": meas.failed / meas.attempted if meas.attempted else 0.0,
        "attempted": meas.attempted,
        "failed": meas.failed,
        "elapsed_s": meas.elapsed,
        "wall_ops_per_s": done / meas.elapsed if meas.elapsed > 0 else 0.0,
        "wall_op_s_p50": statistics.median(meas.latencies) if meas.latencies else 0.0,
    }
    level = tail_level(len(lat))
    if level is not None and level > 0.5:
        out[f"op_s_p{round(level * 100)}"] = percentile(lat, level)
    return out
