"""Tests for the unified observability layer.

Span tracer semantics (nesting, disabled mode, install/restore),
metrics registry snapshot/merge, RunTelemetry as a registry view
(merge/persist), the Chrome-trace/JSONL exporters and their schema
check, span-derived reports and roofline annotation, checkpointed
telemetry continuity, and the traced production demo's end-to-end
reconciliation.
"""

import concurrent.futures
import io
import json
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

from repro.experiments.fig6_phases import _test_lead
from repro.hamiltonian.device import synthetic_device_from_lead
from repro.hardware import K20X, TITAN
from repro.linalg import gemm
from repro.linalg.flops import ledger_scope
from repro.observability import (MetricsRegistry, Span, SpanLogWriter,
                                 SpanTracer, comparable_telemetry,
                                 current_tracer, install_tracer,
                                 memory_totals, node_activity,
                                 phase_report, phase_totals,
                                 read_spans_jsonl, reconcile,
                                 reconcile_report, roofline_annotate,
                                 run_report, to_chrome_trace,
                                 tracing, validate_chrome_trace,
                                 write_chrome_trace, write_spans_jsonl)
from repro.runtime import CheckpointStore, ResilientTaskRunner, RunTelemetry
from repro.utils.errors import (CheckpointError, ConfigurationError,
                                TaskExecutionError, TaskTimeoutError)


class TestSpanTracer:
    def test_nested_scopes_record_parentage(self):
        tracer = SpanTracer()
        with tracer.span("outer", category="task") as outer:
            with tracer.span("inner", category="stage") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.t_stop >= inner.t_stop >= inner.t_start

    def test_exception_recorded_and_reraised(self):
        tracer = SpanTracer()
        with pytest.raises(ValueError):
            with tracer.span("bad") as sp:
                raise ValueError("x")
        assert sp.attrs["error"] == "ValueError"
        assert sp.t_stop >= sp.t_start

    def test_disabled_tracer_records_nothing(self):
        tracer = SpanTracer(enabled=False)
        with tracer.span("a") as sp:
            assert sp is None
        assert tracer.emit("b") is None
        assert tracer.instant("c") is None
        assert tracer.records() == []

    def test_tracing_installs_and_restores(self):
        assert current_tracer() is None
        with tracing() as tracer:
            assert current_tracer() is tracer
            with tracing() as nested:
                assert current_tracer() is nested
            assert current_tracer() is tracer
        assert current_tracer() is None

    def test_install_disabled_tracer_reads_as_none(self):
        prev = install_tracer(SpanTracer(enabled=False))
        try:
            assert current_tracer() is None
        finally:
            install_tracer(prev)

    def test_emit_seconds_sets_duration(self):
        tracer = SpanTracer()
        sp = tracer.emit("x", t_start=10.0, seconds=0.5, flops=7)
        assert sp.seconds == pytest.approx(0.5)
        assert sp.flops == 7

    def test_span_dict_round_trip(self):
        sp = Span(name="a", category="stage", t_start=1.0, t_stop=2.5,
                  flops=12, bytes_moved=34, worker="node1", span_id=3,
                  parent_id=1, attrs={"k": 0})
        assert Span.from_dict(sp.as_dict()) == sp

    def test_on_close_sees_every_closed_span(self):
        # scope exit, emit, instant and absorb all hand the closed span
        # to the hook, once, as its final dict
        seen = []
        tracer = SpanTracer()
        tracer.on_close = seen.append
        with tracer.span("outer", category="task"):
            tracer.emit("stage", category="stage", seconds=0.5, flops=3)
            tracer.instant("retry", category="fault")
            assert [d["name"] for d in seen] == ["stage", "retry"]
        worker = SpanTracer()
        with worker.span("task 0", category="task"):
            pass
        tracer.absorb([sp.as_dict() for sp in worker.records()])
        assert [d["name"] for d in seen] == ["stage", "retry", "outer",
                                             "task 0"]
        assert sorted(seen, key=lambda d: d["seq"]) == \
            [sp.as_dict() for sp in tracer.records()]


class TestMetricsRegistry:
    def test_counter_is_int_exact(self):
        reg = MetricsRegistry()
        reg.counter("flops").inc(2**53 + 1)
        reg.counter("flops").inc(1)
        assert reg.counter("flops").value == 2**53 + 2

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError, match="counter"):
            reg.gauge("x")

    def test_snapshot_merge_round_trip(self):
        a = MetricsRegistry()
        a.counter("n").inc(3)
        a.gauge("batch").set(4)
        a.histogram("w").observe(2.0)
        a.histogram("w").observe(6.0)
        a.labeled("fail").inc("RuntimeError", 2)

        b = MetricsRegistry.from_snapshot(a.snapshot())
        b.merge(a)
        assert b.counter("n").value == 6
        assert b.gauge("batch").value == 4
        assert b.histogram("w").count == 4
        assert b.histogram("w").min == 2.0
        assert b.histogram("w").max == 6.0
        assert b.labeled("fail").get("RuntimeError") == 4

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("n").inc()
        reg.histogram("h").observe(1.5)
        reg.labeled("l").inc("a")
        restored = MetricsRegistry.from_snapshot(
            json.loads(json.dumps(reg.snapshot())))
        assert restored.snapshot() == reg.snapshot()

    def test_unknown_kind_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError, match="unknown metric"):
            reg.merge_snapshot({"x": {"kind": "exotic"}})

    def test_as_rows_mentions_every_metric(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(2)
        reg.histogram("empty")
        rows = "\n".join(reg.as_rows())
        assert "hits" in rows and "empty" in rows


class TestRunTelemetry:
    def test_merge_sums_counters_and_unions_nodes(self):
        a, b = RunTelemetry(), RunTelemetry()
        a.record_submitted(4)
        a.record_attempt(retry=False)
        a.record_failure(RuntimeError("x"), wasted_flops=100,
                         wasted_time_s=0.5)
        a.metrics.labeled("tasks_by_worker").inc("node0")
        b.record_submitted(2)
        b.record_attempt(retry=True)
        b.record_failure(
            TaskTimeoutError("slow", elapsed_s=2.0, timeout_s=1.0),
            wasted_flops=50, wasted_time_s=0.25)
        b.record_failure(RuntimeError("y"), wasted_flops=1,
                         wasted_time_s=0.1)
        b.metrics.labeled("tasks_by_worker").inc("node3")

        merged = RunTelemetry().merge(a).merge(b)
        assert merged.tasks_submitted == 6
        assert merged.attempts == 2
        assert merged.retries == 1
        assert merged.wasted_flops == 151       # exact int
        assert merged.failures_by_type["RuntimeError"] == 2
        assert merged.failures_by_type["TaskTimeoutError"] == 1
        assert merged.timeouts == 1
        assert merged.metrics.labeled("tasks_by_worker").as_dict() == {
            "node0": 1, "node3": 1}
        # sources untouched
        assert a.tasks_submitted == 4 and b.tasks_submitted == 2

    def test_snapshot_restore_round_trip(self):
        a = RunTelemetry()
        a.record_submitted(3)
        a.record_giveup()
        snap = json.loads(json.dumps(a.snapshot()))
        fresh = RunTelemetry()
        fresh.restore(snap)
        assert fresh.tasks_submitted == 3
        assert fresh.giveups == 1
        fresh.restore(None)  # no-op
        assert fresh.tasks_submitted == 3

    def test_summary_format_preserved(self):
        t = RunTelemetry()
        t.record_submitted(2)
        out = t.summary()
        assert "tasks       2" in out
        assert "wasted" in out


def _spans_two_workers():
    return [
        Span(name="task 0", category="task", t_start=0.0, t_stop=1.0,
             worker="node0", span_id=1),
        Span(name="OBC", category="stage", t_start=0.1, t_stop=0.6,
             flops=1000, bytes_moved=100, worker="node0", span_id=2,
             parent_id=1),
        Span(name="SOLVE", category="stage", t_start=0.6, t_stop=0.9,
             flops=500, bytes_moved=10, worker="node0", span_id=3,
             parent_id=1, attrs={"predicted_bytes": 8}),
        Span(name="OBC", category="stage", t_start=0.2, t_stop=0.7,
             flops=2000, bytes_moved=50, worker="node1", span_id=4),
        Span(name="fault", category="fault", t_start=0.5, t_stop=0.5,
             worker="node1", span_id=5),
    ]


class TestExport:
    def test_chrome_trace_one_pid_per_worker(self):
        trace = to_chrome_trace(_spans_two_workers())
        names = {ev["args"]["name"]: ev["pid"] for ev in
                 trace["traceEvents"]
                 if ev["ph"] == "M" and ev["name"] == "process_name"}
        assert set(names) == {"node0", "node1"}
        assert len(set(names.values())) == 2
        assert validate_chrome_trace(trace) == 4  # four X slices

    def test_children_share_parent_lane(self):
        trace = to_chrome_trace(_spans_two_workers())
        tids = {ev["name"]: ev["tid"] for ev in trace["traceEvents"]
                if ev["ph"] == "X" and ev["pid"] == 1}
        # stage slices nest inside the task slice: same tid
        assert tids["task 0"] == tids["OBC"] == tids["SOLVE"]

    def test_zero_duration_becomes_instant(self):
        trace = to_chrome_trace(_spans_two_workers())
        instants = [ev for ev in trace["traceEvents"] if ev["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == "fault"

    def test_empty_spans_raise(self):
        with pytest.raises(ConfigurationError, match="no spans"):
            to_chrome_trace([])

    def test_validate_rejects_bad_traces(self):
        with pytest.raises(ConfigurationError, match="traceEvents"):
            validate_chrome_trace({"foo": []})
        with pytest.raises(ConfigurationError, match="non-empty"):
            validate_chrome_trace({"traceEvents": []})
        with pytest.raises(ConfigurationError, match="phase"):
            validate_chrome_trace({"traceEvents": [{"ph": "Q"}]})
        with pytest.raises(ConfigurationError, match="missing"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "name": "a", "ts": 0.0}]})
        with pytest.raises(ConfigurationError, match="no slice"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "M", "name": "process_name", "pid": 1}]})

    def test_write_chrome_trace_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(_spans_two_workers(), path)
        with open(path) as fh:
            assert validate_chrome_trace(json.load(fh)) == 4

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        spans = _spans_two_workers()
        assert write_spans_jsonl(spans, path) == len(spans)
        assert read_spans_jsonl(path) == spans


class TestReports:
    def test_phase_totals_aggregates_stage_spans(self):
        totals = phase_totals(_spans_two_workers())
        assert totals["OBC"] == {"seconds": pytest.approx(1.0),
                                 "flops": 3000, "bytes": 150, "count": 2,
                                 "predicted_bytes": 0, "priced_bytes": 0}
        assert totals["SOLVE"] == {"seconds": pytest.approx(0.3),
                                   "flops": 500, "bytes": 10, "count": 1,
                                   "predicted_bytes": 8,
                                   "priced_bytes": 10}
        assert "phase" in phase_report(totals).lower()

    def test_node_activity_by_worker(self):
        act = node_activity(_spans_two_workers())
        assert set(act) == {"node0", "node1"}
        assert act["node0"]["busy_s"] == pytest.approx(0.8)
        assert act["node0"]["flops"] == 1500
        with pytest.raises(ConfigurationError):
            node_activity(_spans_two_workers(), category="nope")

    def test_roofline_annotate_joins_device_peaks(self):
        totals = phase_totals(_spans_two_workers())
        for device in (K20X, TITAN):
            ann = roofline_annotate(totals, device)
            assert set(ann) == {"OBC", "SOLVE"}   # flop-carrying only
            obc = ann["OBC"]
            assert obc.achieved_gflops == pytest.approx(
                3000 / 1.0 / 1e9)
            assert obc.attainable_gflops <= K20X.peak_dp_gflops
            assert obc.point.arithmetic_intensity == pytest.approx(
                3000 / 150)
            assert obc.row()

    def test_roofline_requires_flops(self):
        with pytest.raises(ConfigurationError, match="no phase"):
            roofline_annotate({"A": {"seconds": 1.0, "flops": 0,
                                     "bytes": 0, "count": 1}}, K20X)

    def test_reconcile_against_telemetry_view(self):
        """The stage spans of two workers reconcile against the ledger
        totals of the run."""
        check = reconcile(_spans_two_workers(), 3500, 160)
        assert check["flops_exact"] and check["bytes_exact"]
        assert check["span_flops"] == check["ledger_flops"] == 3500
        assert check["span_bytes"] == check["ledger_bytes"] == 160

    def test_reconcile_detects_flop_mismatch(self):
        """The one check a single table can fail: a kernel recorded
        under the ledger but outside every stage scope."""
        from repro.linalg import gemm
        from repro.pipeline.trace import stage_scope
        a = np.ones((4, 4))
        with tracing() as tracer:
            with ledger_scope() as led:
                with stage_scope("SOLVE", 0, [0]):
                    gemm(a, a)
                inside = (led.total_flops, led.total_bytes)
                gemm(a, a)
        records = tracer.records()
        assert reconcile(records, *inside)["flops_exact"]
        check = reconcile(records, led.total_flops, led.total_bytes)
        assert not check["flops_exact"] and not check["bytes_exact"]
        assert (check["span_flops"], check["span_bytes"]) == inside
        assert check["ledger_flops"] == 2 * inside[0]


@pytest.fixture
def device():
    return synthetic_device_from_lead(_test_lead(6, seed=3), 8)


class TestPipelineIntegration:
    def test_spectrum_spans_reconcile_with_ledger(self, device):
        from repro.pipeline import TransportPipeline
        pipe = TransportPipeline(obc_method="dense", solver="rgf")
        cache = pipe.cache(device)
        with tracing() as tracer:
            with ledger_scope() as led:
                r0 = pipe.solve_point(cache, 2.0, energy_index=0)
                batch = pipe.solve_batch(cache, [1.6, 2.4],
                                         energy_indices=[1, 2])
        spans = tracer.records()
        check = reconcile(spans, led.total_flops, led.total_bytes)
        assert check["flops_exact"] and check["bytes_exact"], check
        totals = phase_totals(spans)
        assert sum(e["flops"] for e in totals.values()) \
            == led.total_flops
        # per energy: OBC, SOLVE and ANALYZE; per call: PREPARE and
        # ASSEMBLE; and each result carries its share of the call's time
        assert {n: e["count"] for n, e in totals.items()} == {
            "PREPARE": 2, "OBC": 3, "ASSEMBLE": 2, "SOLVE": 3,
            "ANALYZE": 3}
        assert all(r.seconds > 0 for r in [r0] + batch)
        assert batch[0].seconds == batch[1].seconds

    def test_pipeline_metrics_recorded(self, device):
        from repro.pipeline import TransportPipeline
        pipe = TransportPipeline(obc_method="dense", solver="rgf")
        cache = pipe.cache(device)
        with tracing() as tracer:
            with ledger_scope():
                pipe.solve_batch(cache, [1.8, 2.2],
                                 energy_indices=[0, 1])
                pipe.solve_batch(cache, [1.8, 2.2],
                                 energy_indices=[0, 1])
        snap = tracer.metrics.snapshot()
        # one lookup per point, batched or not
        assert snap["obc_point_cache_misses"]["value"] == 2
        assert snap["obc_point_cache_hits"]["value"] == 2
        assert snap["obc_iterations"]["count"] == 4

    def test_disabled_tracing_changes_nothing(self, device):
        from repro.pipeline import TransportPipeline
        pipe = TransportPipeline(obc_method="dense", solver="rgf")
        with ledger_scope() as led_plain:
            r_plain = pipe.solve_point(pipe.cache(device), 2.0)
        with tracing():
            with ledger_scope() as led_traced:
                r_traced = pipe.solve_point(pipe.cache(device), 2.0)
        assert r_plain.transmission_lr == r_traced.transmission_lr
        assert led_plain.total_flops == led_traced.total_flops


class TestCheckpointTelemetry:
    def test_save_load_telemetry_snapshot(self, tmp_path):
        store = CheckpointStore(tmp_path / "c.npz")
        tel = RunTelemetry()
        tel.record_submitted(5)
        tel.record_giveup()
        store.save("scf", telemetry=tel.snapshot(), iteration=1,
                   value=np.arange(3.0))
        state = store.load("scf")
        assert "iteration" in state and "__telemetry__" not in state
        fresh = RunTelemetry()
        fresh.restore(store.last_telemetry)
        assert fresh.tasks_submitted == 5
        assert fresh.giveups == 1
        assert store.load_telemetry() == tel.snapshot()

    def test_checkpoint_without_telemetry_stays_loadable(self, tmp_path):
        store = CheckpointStore(tmp_path / "c.npz")
        store.save("scf", iteration=2)
        assert store.load("scf")["iteration"] == 2
        assert store.last_telemetry is None
        assert store.load_telemetry() is None

    def test_kind_check_still_enforced(self, tmp_path):
        store = CheckpointStore(tmp_path / "c.npz")
        store.save("scf", telemetry={"n": {"kind": "counter",
                                           "value": 1}})
        with pytest.raises(CheckpointError, match="scf"):
            store.load("production")


class TestTracedDemo:
    @pytest.fixture(scope="class")
    def demo(self, tmp_path_factory):
        from repro.observability.demo import traced_production_demo
        out = tmp_path_factory.mktemp("demo")
        return traced_production_demo(
            num_nodes=2, smoke=True,
            trace_path=out / "trace.json",
            jsonl_path=out / "spans.jsonl")

    def test_reconciliation_exact(self, demo):
        check = demo["reconciliation"]
        assert check["flops_exact"], check
        assert check["bytes_exact"], check
        assert check["span_flops"] == demo["ledger_flops"]
        assert check["span_bytes"] == demo["ledger_bytes"]

    def test_one_track_per_node(self, demo):
        from repro.observability.demo import worker_tracks
        assert worker_tracks(demo["spans"]) == ["node0", "node1"]
        with open(demo["trace_path"]) as fh:
            trace = json.load(fh)
        names = {ev["args"]["name"] for ev in trace["traceEvents"]
                 if ev["ph"] == "M" and ev["name"] == "process_name"}
        assert {"node0", "node1"} <= names
        assert validate_chrome_trace(trace) > 0

    def test_span_hierarchy_has_outer_scopes(self, demo):
        cats = {sp.category for sp in demo["spans"]}
        assert {"bias", "scf", "task", "stage"} <= cats
        by_id = {sp.span_id: sp for sp in demo["spans"]}
        scf = next(sp for sp in demo["spans"] if sp.category == "scf")
        assert by_id[scf.parent_id].category == "bias"

    def test_metrics_and_telemetry_populated(self, demo):
        assert demo["metrics"].gauge("energy_batch_size").value == 2
        assert demo["telemetry"].attempts > 0
        assert demo["telemetry"].total_failures == 0
        assert set(demo["roofline"])  # at least one flop-carrying stage

    def test_jsonl_reloads(self, demo):
        spans = read_spans_jsonl(demo["jsonl_path"])
        assert len(spans) == len(demo["spans"])


class TestCLI:
    def test_report_from_jsonl(self, tmp_path, capsys):
        from repro.__main__ import main
        path = tmp_path / "s.jsonl"
        write_spans_jsonl(_spans_two_workers(), path)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Phase breakdown" in out
        assert "node0" in out

    def test_report_from_checkpoint(self, tmp_path, capsys):
        from repro.__main__ import main
        tel = RunTelemetry()
        tel.record_submitted(7)
        store = CheckpointStore(tmp_path / "c.npz")
        store.save("production", telemetry=tel.snapshot(), vds=[0.1])
        assert main(["report", "--checkpoint",
                     str(tmp_path / "c.npz")]) == 0
        assert "tasks       7" in capsys.readouterr().out

    def test_report_needs_input(self, capsys):
        from repro.__main__ import main
        assert main(["report"]) == 2


# --------------------------------------------------------------------------
# The span log: one writer, a torn tail survived, the live tail
# --------------------------------------------------------------------------

class TestSpanLog:
    def test_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        spans = _spans_two_workers()
        write_spans_jsonl(spans, path)
        with open(path, "a") as fh:   # a writer killed mid-line
            fh.write('{"name": "task 1", "categ')
        assert read_spans_jsonl(path) == spans

    def test_corrupt_terminated_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        write_spans_jsonl(_spans_two_workers(), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = "not json\n"
        path.write_text("".join(lines))
        with pytest.raises(ConfigurationError,
                           match=f"{path}:3: not a span record"):
            read_spans_jsonl(path)

    def test_concurrent_writers_keep_lines_whole(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        threads, per_thread = 8, 200
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with SpanLogWriter(path) as writer:
                def hammer(t):
                    for i in range(per_thread):
                        writer(Span(name=f"t{t}", seq=i,
                                    attrs={"pad": "x" * 64}).as_dict())
                pool = [threading.Thread(target=hammer, args=(t,))
                        for t in range(threads)]
                for t in pool:
                    t.start()
                for t in pool:
                    t.join(timeout=30.0)
                assert not any(t.is_alive() for t in pool)
        finally:
            sys.setswitchinterval(interval)
        log = read_spans_jsonl(path)
        assert len(log) == writer.lines == threads * per_thread
        for t in range(threads):
            assert [sp.seq for sp in log if sp.name == f"t{t}"] == \
                list(range(per_thread))

    def test_failed_sweep_leaves_a_complete_log(self, tmp_path):
        """Spans are written as they close: a run whose task raises
        mid-sweep, its writer never closed, left every closed span
        on disk, the failing task's with its error."""
        from repro.parallel import ThreadTaskRunner
        path = tmp_path / "spans.jsonl"
        tracer = SpanTracer()
        tracer.on_close = writer = SpanLogWriter(path)

        def task(i):
            def run():
                with current_tracer().span("SOLVE", category="stage"):
                    gemm(np.eye(4), np.eye(4))
                    if i == 3:
                        raise ValueError("singular block")
                return i
            return run

        with tracing(tracer), ledger_scope():
            with pytest.raises(TaskExecutionError):
                ThreadTaskRunner(2)([task(i) for i in range(6)])
        log = read_spans_jsonl(path)
        # the tasks still queued at the failure are cancelled, so the
        # count varies; tasks 0-3 and their stages always closed
        assert len(log) == writer.lines == len(tracer.records()) >= 8
        assert sorted((sp.as_dict() for sp in log),
                      key=lambda d: d["seq"]) == \
            [sp.as_dict() for sp in tracer.records()]
        failed, = [sp for sp in log if sp.name == "task 3"]
        assert failed.attrs["error"] == "TaskExecutionError"
        writer.close()

    def test_watch_tails_a_growing_log(self, tmp_path):
        from repro.observability.watch import watch
        path = tmp_path / "spans.jsonl"
        spans = _spans_two_workers()

        def produce():
            with SpanLogWriter(path) as writer:
                for sp in spans:
                    writer(sp.as_dict())
                    threading.Event().wait(0.05)

        producer = threading.Thread(target=produce)
        producer.start()
        out = io.StringIO()
        seen = watch(path, interval=0.0, idle_timeout=1.0, out=out,
                     clear=False)
        producer.join(timeout=10.0)
        assert not producer.is_alive()
        assert seen == spans
        # refreshed as the log grew; the last frame holds every span
        headers = [line for line in out.getvalue().splitlines()
                   if " spans from " in line]
        assert len(headers) >= 2
        assert headers[-1] == f"{len(spans)} spans from {path}"

    def test_watch_cli(self, tmp_path, capsys):
        from repro.__main__ import main
        path = tmp_path / "spans.jsonl"
        write_spans_jsonl(_spans_two_workers(), path)
        assert main(["watch", str(path), "--idle-timeout", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Phase breakdown" in out and "Per-node activity" in out
        assert main(["watch", str(tmp_path / "none.jsonl"),
                     "--idle-timeout", "0.1"]) == 2


# --------------------------------------------------------------------------
# Metrics satellites: quantiles, concurrent publishers
# --------------------------------------------------------------------------

def _publish_metrics_worker(n: int) -> dict:
    """Process-pool worker: builds a registry and returns its snapshot."""
    registry = MetricsRegistry()
    for i in range(n):
        registry.counter("tasks").inc()
        registry.histogram("latency_seconds").observe(0.01 * (i % 7 + 1))
        registry.labeled("stage_flops").inc("SOLVE", 10)
    return registry.snapshot()


class TestMetricsSatellites:
    def test_histogram_quantile(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        assert hist.quantile(0.5) is None
        for _ in range(10):
            hist.observe(0.25)
        assert hist.quantile(0.5) == pytest.approx(0.25)
        assert hist.quantile(0.0) == pytest.approx(0.25)
        hist.observe(100.0)
        assert hist.quantile(1.0) == pytest.approx(100.0)
        with pytest.raises(ConfigurationError):
            hist.quantile(-0.1)

    def test_concurrent_thread_publishers_int_exact(self):
        registry = MetricsRegistry()
        threads, per_thread = 8, 500

        def hammer():
            for i in range(per_thread):
                registry.counter("tasks").inc()
                registry.histogram("lat").observe(0.001 * (i + 1))
                registry.labeled("stage_flops").inc("SOLVE", 2)

        pool = [threading.Thread(target=hammer) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        total = threads * per_thread
        snap = registry.snapshot()
        assert snap["tasks"]["value"] == total
        assert snap["lat"]["count"] == total
        assert sum(snap["lat"]["buckets"]) == total
        assert snap["stage_flops"]["values"]["SOLVE"] == 2 * total

    def test_concurrent_merge_while_publishing(self):
        # merge into a parent registry while publishers are still
        # hammering their own: nothing lost, everything int-exact
        parent = MetricsRegistry()
        workers = [MetricsRegistry() for _ in range(4)]
        per_worker = 300

        def hammer(registry):
            for _ in range(per_worker):
                registry.counter("tasks").inc()
                registry.histogram("lat").observe(0.5)

        pool = [threading.Thread(target=hammer, args=(w,))
                for w in workers]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        for w in workers:
            parent.merge(w)
        snap = parent.snapshot()
        assert snap["tasks"]["value"] == 4 * per_worker
        assert snap["lat"]["count"] == 4 * per_worker
        assert sum(snap["lat"]["buckets"]) == 4 * per_worker

    def test_process_publishers_merge_int_exact(self):
        # spawned-process publishers: snapshots cross the pickle
        # boundary and merge without losing a single observation
        ctx = multiprocessing.get_context("spawn")
        counts = [40, 60, 80]
        parent = MetricsRegistry()
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=2, mp_context=ctx) as pool:
            for snap in pool.map(_publish_metrics_worker, counts):
                parent.merge_snapshot(snap)
        total = sum(counts)
        snap = parent.snapshot()
        assert snap["tasks"]["value"] == total
        assert snap["latency_seconds"]["count"] == total
        assert sum(snap["latency_seconds"]["buckets"]) == total
        assert snap["stage_flops"]["values"]["SOLVE"] == 10 * total

    def test_mismatched_bucket_grids_keep_counts_exact(self):
        lock = threading.Lock()
        from repro.observability.metrics import Histogram
        coarse = Histogram(lock, bounds=(1.0, 10.0))
        fine = Histogram(threading.Lock())
        for v in (0.5, 5.0, 50.0):
            fine.observe(v)
        coarse.merge_snapshot(fine.snapshot())
        assert coarse.count == 3
        assert sum(coarse.bucket_counts) == 3
        assert coarse.total == pytest.approx(55.5)


class TestComparableTelemetry:
    def test_drops_only_noisy_metrics(self):
        snap = {"wasted_time_s": {"kind": "counter", "value": 0.5},
                "task_seconds": {"kind": "histogram", "count": 1},
                "arena_reuses": {"kind": "gauge", "value": 4},
                "stage_flops": {"kind": "labeled_counter",
                                "values": {"SOLVE": 7}},
                "retries": {"kind": "counter", "value": 1}}
        kept = comparable_telemetry(snap)
        assert set(kept) == {"stage_flops", "retries"}


# --------------------------------------------------------------------------
# Acceptance: the streamed log is the record
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def streamed(tmp_path_factory):
    """One smoke demo per backend with its span log streamed, run on
    first request."""
    from repro.observability.demo import traced_production_demo
    runs = {}

    def get(backend):
        if backend not in runs:
            path = tmp_path_factory.mktemp(backend) / "spans.jsonl"
            runs[backend] = traced_production_demo(
                smoke=True, backend=backend, jsonl_path=path)
        return runs[backend]
    return get


class TestSpanLogAcceptance:
    def test_log_on_off_bitwise_parity(self, streamed):
        from repro.observability.demo import traced_production_demo
        off = traced_production_demo(smoke=True)
        on = streamed("thread")
        for point_on, point_off in zip(on["result"].points,
                                       off["result"].points, strict=True):
            assert point_on.current == point_off.current
            assert point_on.scf_iterations == point_off.scf_iterations
        assert on["ledger_flops"] == off["ledger_flops"]
        assert on["ledger_bytes"] == off["ledger_bytes"]
        assert comparable_telemetry(on["metrics"].snapshot()) == \
            comparable_telemetry(off["metrics"].snapshot())
        assert comparable_telemetry(on["telemetry"].snapshot()) == \
            comparable_telemetry(off["telemetry"].snapshot())

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_streamed_log_is_the_record(self, streamed, backend):
        demo = streamed(backend)
        log = read_spans_jsonl(demo["jsonl_path"])
        assert len(log) == demo["jsonl_lines"] == len(demo["spans"])
        assert sorted((sp.as_dict() for sp in log),
                      key=lambda d: d["seq"]) == \
            [sp.as_dict() for sp in sorted(demo["spans"],
                                           key=lambda sp: sp.seq)]
        assert phase_totals(log) == demo["totals"]
        # the log closes with the run's ledger totals, so the report
        # over it repeats the reconciliation
        assert reconcile_report(demo["reconciliation"]) in run_report(log)
        assert "flops EXACT" in reconcile_report(demo["reconciliation"])
        assert "bytes EXACT" in reconcile_report(demo["reconciliation"])

    def test_byte_drift_reaches_memory_totals(self, monkeypatch, tmp_path):
        from repro.observability.demo import traced_production_demo
        from repro.pipeline.pipeline import TransportPipeline
        original = TransportPipeline._predicted_solve_bytes

        def shrunk(cache, solver_name, width, num_partitions=1):
            predicted = original(cache, solver_name, width, num_partitions)
            return None if predicted is None \
                else max(int(predicted) // 4, 1)

        monkeypatch.setattr(TransportPipeline, "_predicted_solve_bytes",
                            staticmethod(shrunk))
        out = traced_production_demo(smoke=True,
                                     jsonl_path=tmp_path / "spans.jsonl")
        stages = memory_totals(read_spans_jsonl(out["jsonl_path"]))["stages"]
        drifting = [name for name, e in stages.items() if e["drifting"]]
        assert drifting
        assert all(stages[name]["ratio"] > 1.05 for name in drifting)

    def test_process_worker_pids_in_the_log(self, streamed):
        demo = streamed("process")
        tasks = [sp for sp in read_spans_jsonl(demo["jsonl_path"])
                 if sp.category == "task"]
        pids = {sp.attrs["pid"] for sp in tasks}
        assert tasks and os.getpid() not in pids
        # one process per slot: each node{j} is one pid
        by_node = {}
        for sp in tasks:
            by_node.setdefault(sp.worker, set()).add(sp.attrs["pid"])
        assert all(len(p) == 1 for p in by_node.values())
