"""Self-tests of the benchmark's own machinery, on fake ops and a fake clock.

Run with ``python3 -m pytest perfbench``; they never call a solver.
"""

import json
import threading
import types
from pathlib import Path

import pytest

import harness
import tracing
from harness import CheckFailed, Op, Outcome

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def timed_op(clock, key, seconds, outcome=Outcome(True, 3)):
    def body():
        clock.now += seconds
        return outcome

    return Op(key, body, lambda result: [result])


def test_percentile_interpolates_between_order_statistics():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert harness.percentile(values, 0.0) == 1.0
    assert harness.percentile(values, 0.5) == 3.0
    assert harness.percentile(values, 1.0) == 5.0
    assert harness.percentile(values, 0.9) == pytest.approx(4.6)
    assert harness.percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)


def test_tail_level_needs_ten_samples_beyond_it():
    assert harness.tail_level(1000) == 0.99
    assert harness.tail_level(999) == 0.9
    assert harness.tail_level(100) == 0.9
    assert harness.tail_level(99) == 0.5
    assert harness.tail_level(19) is None


def test_summary_reports_median_tail_and_sample_count():
    clock = FakeClock()
    ops = [timed_op(clock, f"op{i}", 0.001 * (i + 1)) for i in range(100)]
    meas = harness.measure_for(ops, 5.0, 0, clock=clock)  # 99 ops take 4.95 s
    s = harness.summarize(meas)
    assert s["op_count"] == 100 and s["attempted"] == 100
    assert s["op_s_p50"] == pytest.approx(0.0505)
    assert s["op_s_p90"] == pytest.approx(harness.percentile(meas.latencies, 0.9))
    assert s["ops_per_s"] == pytest.approx(100 / meas.elapsed)
    few = harness.summarize(harness.measure_for(ops[:15], 0.115, 0, clock=clock))
    assert few["op_count"] == 15
    assert not any(key.startswith("op_s_p9") for key in few)


def test_measure_for_stops_at_first_op_boundary_past_budget():
    clock = FakeClock()
    ops = [timed_op(clock, "a", 0.4), timed_op(clock, "b", 0.4)]
    meas = harness.measure_for(ops, 1.0, 3, clock=clock)
    assert meas.attempted == 3  # a, b, a: 1.2 s >= 1.0 s
    assert meas.elapsed == pytest.approx(1.2)
    # repeats of one key count once toward quality
    assert sorted(meas.outcomes) == ["a", "b"]


def test_quality_ops_always_run_and_alone_count_toward_quality():
    clock = FakeClock()
    ops = [timed_op(clock, "a", 0.4), timed_op(clock, "b", 0.4, Outcome(False, 9)),
           timed_op(clock, "c", 0.4, Outcome(False, 9))]
    slow = harness.measure_for(ops, 0.1, 2, clock=clock)
    assert slow.attempted == 2  # past the budget after one op, but two must run
    fast = harness.measure_for(ops, 1.0, 1, clock=clock)
    assert fast.attempted == 3
    assert sorted(fast.outcomes) == ["a"]  # b and c ran, but are not quality ops
    s = harness.summarize(fast)
    assert s["success_rate"] == 1.0 and s["outer_iters_mean"] == 3.0
    assert s["ops_per_s"] == pytest.approx(3 / 1.2)


def test_failed_ops_are_counted_and_the_run_goes_on():
    clock = FakeClock()

    def raises():
        clock.now += 0.1
        raise RuntimeError("solver blew up")

    def wrong(result):
        raise CheckFailed("nnz > k")

    ops = [
        timed_op(clock, "good1", 0.1),
        Op("raises", raises, lambda r: [r]),
        Op("bad-check", lambda: None, wrong),
        timed_op(clock, "good2", 0.1, Outcome(False, 7)),
    ]
    meas = harness.measure_for(ops, 0.25, 4, clock=clock)
    s = harness.summarize(meas)
    assert s["attempted"] == 4 and s["failed"] == 2
    assert s["failed_frac"] == 0.5
    assert meas.failures[0].startswith("raises: RuntimeError")
    assert meas.failures[1].startswith("bad-check: CheckFailed")
    assert s["op_count"] == 2  # latencies only of ops that completed
    assert s["success_rate"] == 0.5
    assert s["outer_iters_mean"] == 5.0


def test_times_are_scaled_by_the_speed_measured_either_side():
    clock = FakeClock()
    speeds = iter([1.0, 3.0, 5.0])
    ops = [timed_op(clock, "a", 1.0), timed_op(clock, "b", 1.0)]
    meas = harness.measure_for(ops, 2.0, 0, lambda: next(speeds), clock, every=0.0)
    assert meas.latencies == [1.0, 1.0]
    assert meas.scaled == [2.0, 4.0]  # means of (1, 3) and (3, 5)
    s = harness.summarize(meas)
    assert s["ops_per_s"] == pytest.approx(2 / 6.0)
    assert s["wall_ops_per_s"] == pytest.approx(2 / 2.0)
    assert s["op_s_p50"] == 3.0 and s["wall_op_s_p50"] == 1.0


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    with tr.span("outer"):          # 0 .. 10
        clock.now = 1.0
        with tr.span("mid"):        # 1 .. 4
            clock.now = 2.0
            with tr.span("leaf"):   # 2 .. 3
                clock.now = 3.0
            clock.now = 4.0
        clock.now = 5.0
        with tr.span("mid"):        # 5 .. 7
            clock.now = 7.0
        clock.now = 10.0
    stats = tracing.span_stats(tr.spans)
    assert stats["outer"] == {"calls": 1, "busy_s": 10.0, "self_s": 5.0}
    assert stats["mid"] == {"calls": 2, "busy_s": 5.0, "self_s": 4.0}
    assert stats["leaf"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}


def test_self_time_counts_overlapping_children_once():
    spans = [(1, "exp", 0.0, 10.0, None, "op"),
             (2, "solve", 1.0, 6.0, 1, "op"),
             (3, "solve", 4.0, 8.0, 1, "op"),    # overlaps span 2 (other thread)
             (4, "solve", 9.5, 12.0, 1, "op")]   # runs past its parent: clipped
    assert tracing.span_stats(spans)["exp"]["self_s"] == pytest.approx(2.5)


def test_worker_thread_spans_nest_under_the_ops_open_span():
    tr = tracing.Tracer()

    def op():
        with tr.span(tracing.EXPERIMENT_SPAN):
            worker = threading.Thread(target=_solve, args=(tr,))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()

    tr.run_op("op1", op)
    by_name = {s[1]: s for s in tr.spans}
    assert by_name["solvers.solve"][4] == by_name[tracing.EXPERIMENT_SPAN][0]
    assert by_name[tracing.EXPERIMENT_SPAN][4] == by_name["op"][0]
    assert {s[5] for s in tr.spans} == {"op1"}


def _solve(tr):
    with tr.span("solvers.solve"):
        pass


def test_parallel_speedup_is_pool_busy_over_experiment_wall():
    spans = [(1, tracing.EXPERIMENT_SPAN, 0.0, 10.0, None, "op"),
             (2, "solvers.solve", 0.0, 8.0, 1, "op"),
             (3, "solvers.solve", 2.0, 10.0, 1, "op"),
             (4, "solvers.solve", 20.0, 30.0, None, "op")]  # not in the pool
    assert tracing.parallel_speedup(spans) == pytest.approx(1.6)
    assert tracing.parallel_speedup(spans[3:]) == 0.0


def test_wrap_records_spans_and_counts_and_unwrap_restores():
    def add(a, b=1):
        return a + b

    module = types.SimpleNamespace(add=add)
    tr = tracing.Tracer()
    tr.wrap(module, "add", "fake.add",
            lambda t, result, args: t.count("fake.sum", result + args["b"]))
    assert module.add(2, b=3) == 5
    assert module.add(1) == 2
    assert [s[1] for s in tr.spans] == ["fake.add", "fake.add"]
    assert tr.counters["fake.sum"] == (5 + 3) + (2 + 1)
    tr.unwrap()
    assert module.add is add


def test_counting_itertools_counts_the_patterns_drawn():
    tr = tracing.Tracer()
    counting = tracing._CountingItertools(tr)
    assert len(list(counting.combinations(range(5), 2))) == 10
    assert list(counting.combinations(range(3), 0)) == [()]
    assert tr.counters["solvers.optimal_threshold_on_support.patterns"] == 11
    assert counting.chain is tracing.itertools.chain


def test_layer_metrics_report_every_per_layer_name_and_skip_setup():
    clock = FakeClock()
    tr = tracing.Tracer(clock)

    def body():
        with tr.span("operators.solve_rot"):
            with tr.span("operators.project_capped_simplex"):
                clock.now += 3.0
            clock.now += 1.0
        tr.count("operators.solve_rot.nonconverged", 1)

    def setup():
        with tr.span("bench.make_trial_problem"):
            clock.now += 0.5
        with tr.span("theory.brute_force_ric"):  # set-up work, not an op's
            clock.now += 0.5

    tr.run_op(tracing.SETUP_OP, setup)
    tr.run_op("op", body)
    m = tracing.layer_metrics(tr, traced_wall=4.4, untraced_wall=4.0)
    assert list(m) == [name for name, _, _ in tracing.PER_LAYER]
    assert m["operators.project_capped_simplex.share_of_solve_rot"] == 0.75
    assert m["operators.project_capped_simplex.us_per_call"] == 3e6
    assert m["operators.solve_rot.self_frac"] == pytest.approx(1.0 / 4.4)
    assert m["operators.solve_rot.busy_frac"] == pytest.approx(4.0 / 4.4)
    assert m["operators.solve_rot.nonconverged_frac"] == 1.0
    assert m["trace.overhead_frac"] == pytest.approx(0.1)
    assert m["theory.brute_force_ric.calls"] == 0.0
    assert m["bench.make_trial_problem.calls"] == 1.0


def test_benchmark_json_lists_the_metrics_and_workloads_the_harness_runs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
