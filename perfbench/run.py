#!/usr/bin/env python3
"""pgthresh benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload phase-pgrotp --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

The package is imported from ``src/`` next to this directory, never from an
installed copy.  ``--trace 0`` sets up the workload (timed in wall seconds,
repeated) and cycles through its ops for ``--seconds``, and at least through
the workload's quality ops, untraced; it reports the end-to-end metrics,
with op times in reference seconds (see ``calibration.py``).  ``--trace 1`` runs a fixed pass of ops untraced, then
the same pass with the package's public functions wrapped, and reports the
per-layer metrics.  Human-readable lines come first; the last line of stdout
is {"correct", "attempted", "failed", "metrics"}.  ``--workload all`` runs
every workload in turn, each in its own process.  The full record
(environment, every figure, failures) goes to ``perfbench/results/``, and a
traced run also writes its spans there.
"""

import os

# One BLAS thread: the solvers' matrices are small, and on a shared 2-core
# box a second BLAS thread adds noise, not speed.  Must precede numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
IMPORT_REPEATS = 3
SETUP_REPEATS = 3


def _import_pgthresh() -> None:
    """``import pgthresh`` (numpy included) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import pgthresh"], cwd=ROOT, env=env,
                   capture_output=True, timeout=120, check=True)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None  # e.g. an exported tree with no .git


def environment(workload: str, seed: int, digest: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas_version = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "input_digest": digest,
        "git_commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
    }


def _wall_time(fn) -> tuple:
    """``(fn(), wall seconds it took)``."""
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "pgthresh" / "__init__.py").is_file():
        print(f"error: no pgthresh sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import pgthresh
    import workloads

    if Path(pgthresh.__file__).resolve().parent != (SRC / "pgthresh").resolve():
        print(f"error: imported pgthresh from {pgthresh.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        return max(subprocess.run([sys.executable, __file__, "--workload", name] + rest,
                                  check=False).returncode
                   for name in workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of all, {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)

    import_s = statistics.median(_wall_time(_import_pgthresh)[1]
                                 for _ in range(IMPORT_REPEATS))
    build_s, digests = [], set()
    for _ in range(SETUP_REPEATS):
        ops = None  # drop the previous pool before building the next
        (ops, digest), seconds = _wall_time(lambda: workload.build(args.seed, RESULTS))
        build_s.append(seconds)
        digests.add(digest)
    env = environment(args.workload, args.seed, digest)
    record = {"env": env, "import_s": import_s, "build_s": build_s}
    problems = [] if len(digests) == 1 else ["same seed built different inputs"]

    if args.trace == 0:
        meas = harness.measure_for(ops, args.seconds, workload.quality_ops,
                                   calibration.speed)
        e2e = harness.summarize(meas)
        e2e["setup_s"] = import_s + statistics.median(build_s)
        e2e["peak_rss_mb"] = _peak_rss_mb()
        record["end_to_end"] = e2e
        metrics = {name: (e2e[name], unit) for name, unit, _ in harness.END_TO_END}
        shown = metrics | {"failed_frac": (e2e["failed_frac"], "frac"),
                           "op_count": (e2e["op_count"], "count")}
        shown |= {name: (e2e[name], "ref_s") for name in e2e if name.startswith("op_s_p")}
        failures, attempted = meas.failures, meas.attempted
    else:
        pass_ops = ops[:workload.trace_ops]
        warm_up = harness.Measurement()
        for op in pass_ops:  # first calls pay lazy set-up
            harness.run_op(op, warm_up)
        tracer = tracing.Tracer()
        with tracing.instrumented(tracer):
            tracer.run_op(tracing.SETUP_OP, lambda: workload.build(args.seed, RESULTS))
        untraced, traced = harness.Measurement(), harness.Measurement()
        for op in pass_ops:  # alternate, so drift in machine speed hits both alike
            harness.run_op(op, untraced)
            with tracing.instrumented(tracer):
                harness.run_op(op, traced, around=tracer.run_op)
        untraced.elapsed, traced.elapsed = sum(untraced.latencies), sum(traced.latencies)
        layers = tracing.layer_metrics(tracer, traced.elapsed, untraced.elapsed)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        metrics = {name: (value, units[name]) for name, value in layers.items()}
        shown = metrics
        record["per_layer"] = layers
        record["layer_seconds"] = tracing.span_stats(tracer.op_spans())
        record["passes"] = {"ops": len(pass_ops), "untraced_s": untraced.elapsed,
                            "traced_s": traced.elapsed}
        failures = untraced.failures + traced.failures
        attempted = untraced.attempted + traced.attempted
        spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.csv.gz"
        tracing.write_spans(spans_path, tracer.spans)
        record["spans_file"] = spans_path.name

    record["failures"] = failures
    record["problems"] = problems
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print("env " + json.dumps(env))
    for name, (value, unit) in shown.items():
        print(f"{name} = {value:.6g} {unit}")
    for line in failures + problems:
        print(f"FAILED {line}")
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
