"""Tests for the live telemetry bus, anomaly detectors, and SLO rules.

Covers the streaming layer end to end: the bounded drop-counting bus
and publisher stamping, stream schema validation, the rolling
aggregator, every anomaly detector, the declarative health rules, the
monitor poll/replay loop, the dashboard renderer — plus the acceptance
criteria: bus-on/bus-off bitwise parity of the final telemetry and
result, an injected per-node straggler raising an alert *during* the
run that reshapes the balancer's worker shares, injected byte-model
drift raising a drift alert, and int-exact metrics merging under
concurrent thread and process publishers.
"""

import concurrent.futures
import io
import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.observability import MetricsRegistry
from repro.observability.anomaly import (Alert, ByteDriftDetector,
                                         CheckpointOverrunDetector,
                                         StoreHitRateDetector,
                                         StragglerDetector,
                                         default_detectors)
from repro.observability.health import HealthMonitor, SLORule
from repro.observability.live import (BusPublisher, LiveAggregator,
                                      LiveMonitor, TelemetryBus,
                                      comparable_telemetry,
                                      read_stream_jsonl, validate_stream,
                                      validate_stream_record,
                                      write_stream_jsonl)
from repro.observability.spans import SpanTracer
from repro.utils.errors import ConfigurationError


def _ev(etype, worker="node0", seq=0, t=100.0, pid=1, **fields):
    """A fully stamped schema-v1 stream event for aggregator tests."""
    event = {"type": etype, "v": 1, "seq": seq, "t": t, "pid": pid,
             "worker": worker}
    event.update(fields)
    return event


def _metrics_event(snapshot, scope="tracer", **kw):
    return _ev("metrics", cumulative=True, scope=scope,
               snapshot=snapshot, **kw)


# --------------------------------------------------------------------------
# Bus + publisher
# --------------------------------------------------------------------------

class TestTelemetryBus:
    def test_publish_drain_counts(self):
        bus = TelemetryBus(capacity=8)
        for i in range(5):
            assert bus.publish({"i": i}) is True
        assert len(bus) == 5
        assert bus.published == 5
        events = bus.drain()
        assert [e["i"] for e in events] == list(range(5))
        assert len(bus) == 0
        assert bus.drain() == []

    def test_overflow_drops_oldest_and_counts(self):
        bus = TelemetryBus(capacity=3)
        for i in range(5):
            bus.publish({"i": i})
        assert bus.dropped == 2
        assert bus.published == 5
        # freshest events win
        assert [e["i"] for e in bus.drain()] == [2, 3, 4]

    def test_overflow_publish_returns_false(self):
        bus = TelemetryBus(capacity=1)
        assert bus.publish({"i": 0}) is True
        assert bus.publish({"i": 1}) is False

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            TelemetryBus(capacity=0)


class TestBusPublisher:
    def test_stamps_envelope(self):
        bus = TelemetryBus()
        pub = BusPublisher(bus.publish, worker="node7", clock=lambda: 42.0)
        pub({"type": "instant", "name": "x", "category": "fault"})
        pub({"type": "instant", "name": "y", "category": "fault"})
        first, second = bus.drain()
        assert first["v"] == 1 and first["worker"] == "node7"
        assert first["t"] == 42.0 and isinstance(first["pid"], int)
        assert (first["seq"], second["seq"]) == (0, 1)

    def test_existing_worker_preserved(self):
        out = []
        pub = BusPublisher(out.append, worker="parent")
        pub({"type": "instant", "name": "x", "category": "fault",
             "worker": "child"})
        assert out[0]["worker"] == "child"


class TestStreamValidation:
    def _good(self):
        bus = TelemetryBus()
        pub = BusPublisher(bus.publish, worker="n0")
        pub({"type": "task-start", "task_index": 0})
        pub({"type": "task-end", "task_index": 0, "seconds": 0.1,
             "ok": True})
        pub({"type": "metrics", "snapshot": {}})
        return bus.drain()

    def test_valid_stream_roundtrips(self, tmp_path):
        events = self._good()
        path = tmp_path / "stream.jsonl"
        assert write_stream_jsonl(events, path) == 3
        records = read_stream_jsonl(path)
        assert validate_stream(records) == 3
        assert records == events

    def test_bad_version_rejected(self):
        record = self._good()[0]
        record["v"] = 99
        with pytest.raises(ConfigurationError, match="schema version"):
            validate_stream_record(record)

    def test_unknown_type_rejected(self):
        record = self._good()[0]
        record["type"] = "gossip"
        with pytest.raises(ConfigurationError, match="unknown event type"):
            validate_stream_record(record)

    def test_missing_required_field_rejected(self):
        record = self._good()[1]
        del record["seconds"]
        with pytest.raises(ConfigurationError, match="seconds"):
            validate_stream_record(record)

    def test_mistyped_envelope_rejected(self):
        record = self._good()[0]
        record["pid"] = True      # bool is not an acceptable pid
        with pytest.raises(ConfigurationError, match="pid"):
            validate_stream_record(record)

    def test_non_monotonic_seq_rejected(self):
        events = self._good()
        events[2]["seq"] = events[1]["seq"]
        with pytest.raises(ConfigurationError, match="not.*monotonic"):
            validate_stream(events)

    def test_interleaved_publishers_each_monotonic(self):
        events = self._good()
        other = dict(events[0])
        other["worker"] = "n1"
        other["seq"] = 0          # fresh publisher: its own sequence
        assert validate_stream(events + [other]) == 4


# --------------------------------------------------------------------------
# Rolling aggregation
# --------------------------------------------------------------------------

class TestLiveAggregator:
    def test_task_latency_and_busy_accounting(self):
        agg = LiveAggregator()
        agg.consume(_ev("task-start", task_index=0, t=100.0))
        agg.consume(_ev("task-end", task_index=0, seconds=0.25, ok=True,
                        t=100.25))
        agg.consume(_ev("task-end", task_index=1, seconds=0.75, ok=False,
                        t=101.0))
        node = agg.nodes["node0"]
        assert node.tasks_started == 1
        assert node.tasks_done == 1 and node.tasks_failed == 1
        assert node.busy_seconds == pytest.approx(1.0)
        assert node.mean_latency() == pytest.approx(0.5)
        assert agg.elapsed() == pytest.approx(1.0)

    def test_unslept_straggler_delay_charged_to_latency(self):
        agg = LiveAggregator()
        agg.consume(_ev("instant", name="straggler-delay",
                        category="fault",
                        attrs={"task_index": 3, "delay_s": 5.0,
                               "slept": False}))
        agg.consume(_ev("task-end", task_index=3, seconds=0.1, ok=True))
        assert agg.nodes["node0"].mean_latency() == pytest.approx(5.1)
        assert agg.pending_delay == {}

    def test_slept_straggler_delay_not_double_charged(self):
        agg = LiveAggregator()
        agg.consume(_ev("instant", name="straggler-delay",
                        category="fault",
                        attrs={"task_index": 3, "delay_s": 5.0,
                               "slept": True}))
        agg.consume(_ev("task-end", task_index=3, seconds=5.1, ok=True))
        assert agg.nodes["node0"].mean_latency() == pytest.approx(5.1)

    def test_stage_totals_and_drift_input(self):
        agg = LiveAggregator()
        agg.consume(_ev("span-open", name="SOLVE", category="stage"))
        agg.consume(_ev("span-close", name="SOLVE", category="stage",
                        seconds=0.5, flops=1000, bytes=2048,
                        attrs={"predicted_bytes": 1024}))
        agg.consume(_ev("span-close", name="SOLVE", category="stage",
                        seconds=0.5, flops=1000, bytes=2048,
                        attrs={"predicted_bytes": 1024}))
        agg.consume(_ev("span-close", name="SOLVE", category="stage",
                        seconds=0.5, flops=10, bytes=100))
        assert agg.stage_totals["SOLVE"] == {
            "seconds": pytest.approx(1.5), "flops": 2010, "bytes": 4196,
            "count": 3, "predicted_bytes": 2048, "priced_bytes": 4096}

    def test_open_span_balance(self):
        agg = LiveAggregator()
        agg.consume(_ev("span-open", name="a", category="task"))
        assert agg.nodes["node0"].open_spans == 1
        agg.consume(_ev("span-close", name="a", category="task",
                        seconds=0.1))
        assert agg.nodes["node0"].open_spans == 0

    def test_metrics_replace_semantics(self):
        agg = LiveAggregator()
        agg.consume(_metrics_event(
            {"hits": {"kind": "counter", "value": 3}}))
        agg.consume(_metrics_event(
            {"hits": {"kind": "counter", "value": 7}}))
        assert agg.counter_value("hits") == 7

    def test_counter_value_max_across_scopes(self):
        agg = LiveAggregator()
        agg.consume(_metrics_event(
            {"wasted_flops": {"kind": "counter", "value": 10}},
            scope="tracer"))
        agg.consume(_metrics_event(
            {"wasted_flops": {"kind": "counter", "value": 25}},
            scope="telemetry"))
        assert agg.counter_value("wasted_flops") == 25

    def test_checkpoint_marks(self):
        agg = LiveAggregator()
        agg.consume(_ev("instant", name="checkpoint-saved",
                        category="checkpoint", t=105.0))
        assert agg.checkpoint_marks == [105.0]

    def test_latency_quantile(self):
        agg = LiveAggregator()
        for i, s in enumerate([0.1, 0.2, 0.3, 0.4, 10.0]):
            agg.consume(_ev("task-end", task_index=i, seconds=s, ok=True))
        assert agg.latency_quantile(0.5) == pytest.approx(0.3)
        assert agg.latency_quantile(1.0) == pytest.approx(10.0)
        with pytest.raises(ConfigurationError):
            agg.latency_quantile(1.5)
        assert LiveAggregator().latency_quantile(0.95) is None

    def test_utilization(self):
        agg = LiveAggregator()
        agg.consume(_ev("task-end", task_index=0, seconds=1.0, ok=True,
                        t=100.0, worker="a"))
        agg.consume(_ev("task-end", task_index=1, seconds=1.0, ok=True,
                        t=102.0, worker="b"))
        # 2 busy seconds over (2s elapsed x 2 nodes)
        assert agg.utilization() == pytest.approx(0.5)
        assert LiveAggregator().utilization() == 1.0

    def test_replay_rebuilds_identical_view(self):
        events = [
            _ev("task-start", task_index=0, seq=0),
            _ev("span-open", name="SOLVE", category="stage", seq=1),
            _ev("span-close", name="SOLVE", category="stage",
                seconds=0.2, flops=10, bytes=20, seq=2),
            _ev("task-end", task_index=0, seconds=0.3, ok=True, seq=3),
        ]
        live, replayed = LiveAggregator(), LiveAggregator()
        for e in events:
            live.consume(e)
        for e in events:
            replayed.consume(e)
        assert live.summary() == replayed.summary()


# --------------------------------------------------------------------------
# Anomaly detectors
# --------------------------------------------------------------------------

def _fleet(agg, slow_latency, fast_latency=0.1, tasks=3):
    index = 0
    for worker, latency in (("node0", fast_latency),
                            ("node1", slow_latency)):
        for _ in range(tasks):
            agg.consume(_ev("task-end", worker=worker, task_index=index,
                            seconds=latency, ok=True))
            index += 1


class TestAlert:
    def test_roundtrip_and_rank(self):
        alert = Alert(kind="straggler", severity="warning", message="m",
                      node="node1", t=1.0, evidence={"x": 2})
        assert Alert.from_dict(alert.as_dict()) == alert
        assert alert.rank == 1

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            Alert(kind="x", severity="apocalyptic", message="m")


class TestStragglerDetector:
    def test_slow_node_flagged_with_latency_ratio(self):
        agg = LiveAggregator()
        _fleet(agg, slow_latency=1.0)
        alerts = StragglerDetector(ratio=1.8).update(agg)
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert.kind == "straggler" and alert.node == "node1"
        assert alert.severity == "critical"     # 10x >= critical_ratio
        assert alert.evidence["latency_ratio"] == pytest.approx(10.0)

    def test_uniform_fleet_silent(self):
        agg = LiveAggregator()
        _fleet(agg, slow_latency=0.11)
        assert StragglerDetector().update(agg) == []

    def test_single_node_silent(self):
        agg = LiveAggregator()
        for i in range(4):
            agg.consume(_ev("task-end", task_index=i, seconds=9.0,
                            ok=True))
        assert StragglerDetector().update(agg) == []

    def test_min_tasks_gate(self):
        agg = LiveAggregator()
        _fleet(agg, slow_latency=1.0, tasks=1)
        assert StragglerDetector(min_tasks=2).update(agg) == []

    def test_dedup_and_escalation(self):
        agg = LiveAggregator()
        _fleet(agg, slow_latency=0.25)        # 2.5x: warning
        detector = StragglerDetector(ratio=1.8, critical_ratio=4.0)
        first = detector.update(agg)
        assert [a.severity for a in first] == ["warning"]
        assert detector.update(agg) == []     # same condition: no flood
        _fleet(agg, slow_latency=4.0)         # now far past critical
        escalated = detector.update(agg)
        assert [a.severity for a in escalated] == ["critical"]
        assert detector.update(agg) == []

    def test_monitor_pseudo_node_ignored(self):
        agg = LiveAggregator()
        _fleet(agg, slow_latency=0.1)
        for i in range(3):
            agg.consume(_ev("task-end", worker="monitor", task_index=90 + i,
                            seconds=30.0, ok=True))
        assert StragglerDetector().update(agg) == []


def _priced_stage(agg, measured, predicted, name="SOLVE"):
    agg.consume(_ev("span-close", name=name, category="stage",
                    seconds=0.1, bytes=measured,
                    attrs={"predicted_bytes": predicted}))


class TestByteDriftDetector:
    def test_drifting_stage_flagged(self):
        agg = LiveAggregator()
        _priced_stage(agg, 4096, 2048)
        alerts = ByteDriftDetector(tolerance=0.05).update(agg)
        assert len(alerts) == 1
        assert alerts[0].kind == "byte-drift"
        assert alerts[0].severity == "critical"   # 2x is way past 50%
        assert alerts[0].evidence["stage"] == "SOLVE"
        assert alerts[0].evidence["ratio"] == pytest.approx(2.0)

    def test_within_tolerance_silent(self):
        agg = LiveAggregator()
        _priced_stage(agg, 2088, 2048)
        assert ByteDriftDetector(tolerance=0.05).update(agg) == []

    def test_min_bytes_gate(self):
        agg = LiveAggregator()
        _priced_stage(agg, 512, 16)
        assert ByteDriftDetector(min_bytes=1024).update(agg) == []


class TestStoreHitRateDetector:
    def _push(self, agg, hits, misses):
        agg.consume(_metrics_event({
            "result_store_hits": {"kind": "counter", "value": hits},
            "result_store_misses": {"kind": "counter", "value": misses}}))

    def test_collapse_after_warm_window(self):
        agg = LiveAggregator()
        detector = StoreHitRateDetector()
        self._push(agg, hits=8, misses=0)      # warm window: rate 1.0
        assert detector.update(agg) == []
        self._push(agg, hits=9, misses=7)      # window rate 1/8
        alerts = detector.update(agg)
        assert len(alerts) == 1
        assert alerts[0].kind == "store-hit-rate"
        assert alerts[0].evidence["peak_rate"] == pytest.approx(1.0)
        assert alerts[0].evidence["window_rate"] == pytest.approx(0.125)

    def test_never_warm_store_stays_silent(self):
        agg = LiveAggregator()
        detector = StoreHitRateDetector(min_peak=0.5)
        self._push(agg, hits=1, misses=7)
        assert detector.update(agg) == []
        self._push(agg, hits=1, misses=15)
        assert detector.update(agg) == []

    def test_small_window_deferred(self):
        agg = LiveAggregator()
        detector = StoreHitRateDetector(min_window_lookups=4)
        self._push(agg, hits=1, misses=1)
        assert detector.update(agg) == []
        assert detector._last == (0, 0)        # window not consumed


class TestCheckpointOverrunDetector:
    def test_overrun_flagged(self):
        agg = LiveAggregator()
        agg.t_first, agg.t_last = 100.0, 103.0
        alerts = CheckpointOverrunDetector(interval_s=1.0).update(agg)
        assert len(alerts) == 1
        assert alerts[0].kind == "checkpoint-overrun"
        assert alerts[0].evidence["overdue_s"] == pytest.approx(3.0)

    def test_recent_checkpoint_silent(self):
        agg = LiveAggregator()
        agg.t_first, agg.t_last = 100.0, 103.0
        agg.checkpoint_marks = [102.5]
        assert CheckpointOverrunDetector(interval_s=1.0).update(agg) == []

    def test_disabled_without_interval(self):
        agg = LiveAggregator()
        agg.t_first, agg.t_last = 0.0, 1e9
        assert CheckpointOverrunDetector().update(agg) == []

    def test_default_battery_composition(self):
        kinds = {type(d).kind for d in default_detectors(60.0)}
        assert kinds == {"straggler", "byte-drift", "store-hit-rate",
                         "checkpoint-overrun"}


# --------------------------------------------------------------------------
# Health / SLO rules
# --------------------------------------------------------------------------

class TestHealth:
    def test_unknown_rule_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            SLORule("x", "vibes_floor", 1.0)

    def test_empty_run_passes_vacuously(self):
        statuses = HealthMonitor.default().evaluate(LiveAggregator())
        assert all(s.ok for s in statuses)
        by_name = {s.name: s for s in statuses}
        assert by_name["p95-latency"].value is None
        assert by_name["wasted-flops"].value is None

    def test_utilization_floor(self):
        agg = LiveAggregator()
        agg.consume(_ev("task-end", task_index=0, seconds=0.1, ok=True,
                        t=100.0))
        agg.consume(_ev("instant", name="x", category="fault", t=200.0))
        monitor = HealthMonitor([
            SLORule("util", "utilization_floor", 0.05)])
        status, = monitor.evaluate(agg)
        assert not status.ok and status.value < 0.05

    def test_p95_latency_ceiling(self):
        agg = LiveAggregator()
        for i in range(20):
            agg.consume(_ev("task-end", task_index=i, seconds=10.0,
                            ok=True))
        monitor = HealthMonitor([
            SLORule("p95", "p95_task_latency", 1.0)])
        status, = monitor.evaluate(agg)
        assert not status.ok and status.value == pytest.approx(10.0)

    def test_wasted_flop_budget(self):
        agg = LiveAggregator()
        agg.consume(_metrics_event({
            "wasted_flops": {"kind": "counter", "value": 300}}))
        agg.consume(_ev("span-close", name="OBC", category="stage",
                        seconds=0.1, flops=200))
        agg.consume(_ev("span-close", name="SOLVE", category="stage",
                        seconds=0.1, flops=500))
        monitor = HealthMonitor([
            SLORule("waste", "wasted_flop_budget", 0.25)])
        status, = monitor.evaluate(agg)
        assert not status.ok and status.value == pytest.approx(0.3)
        assert status.detail == "wasted=300 useful=700"

    def test_alert_ceiling_severity_filter(self):
        agg = LiveAggregator()
        agg.alerts = [{"kind": "straggler", "severity": "warning"},
                      {"kind": "byte-drift", "severity": "critical"}]
        monitor = HealthMonitor([
            SLORule("crit", "alert_ceiling", 0.0,
                    params={"severity": "critical"}),
            SLORule("drift", "alert_ceiling", 0.0,
                    params={"alert_kind": "byte-drift"}),
            SLORule("any", "alert_ceiling", 5.0)])
        crit, drift, anything = monitor.evaluate(agg)
        assert not crit.ok and crit.value == 1.0
        assert not drift.ok and drift.value == 1.0
        assert anything.ok and anything.value == 2.0
        assert not monitor.healthy(agg)


# --------------------------------------------------------------------------
# Monitor: poll, record, replay, dashboard
# --------------------------------------------------------------------------

class TestLiveMonitor:
    def test_poll_folds_tracer_stream(self, tmp_path):
        log = tmp_path / "stream.jsonl"
        tracer = SpanTracer()
        monitor = LiveMonitor(live_log=log)
        monitor.attach(tracer, worker="nodeA")
        with tracer.span("SOLVE", category="stage"):
            tracer.metrics.counter("hits").inc(3)
        tracer.publish({"type": "task-end", "task_index": 0,
                        "seconds": 0.2, "ok": True})
        report = monitor.stop()
        assert report["dropped"] == 0
        assert report["events"] == report["records_written"] > 0
        assert tracer.publisher is None           # detached
        agg = monitor.aggregator
        assert agg.stage_totals["SOLVE"]["count"] == 1
        assert agg.counter_value("hits") == 3
        assert agg.nodes["nodeA"].tasks_done == 1
        records = read_stream_jsonl(log)
        assert validate_stream(records) == report["records_written"]

    def test_watch_registry_feeds_second_scope(self):
        tracer = SpanTracer()
        extra = MetricsRegistry()
        extra.counter("wasted_flops").inc(11)
        monitor = LiveMonitor()
        monitor.attach(tracer)
        monitor.watch_registry(extra, scope="telemetry")
        monitor.poll()
        assert monitor.aggregator.counter_value("wasted_flops") == 11

    def test_alert_sink_receives_fresh_alerts(self):
        tracer = SpanTracer()
        monitor = LiveMonitor(detectors=[StragglerDetector()])
        monitor.attach(tracer)
        for i in range(3):
            tracer.publish({"type": "task-end", "task_index": i,
                            "seconds": 0.1, "ok": True,
                            "worker": "node0"})
            tracer.publish({"type": "task-end", "task_index": 10 + i,
                            "seconds": 2.0, "ok": True,
                            "worker": "node1"})
        monitor.poll()
        monitor.poll()      # dedup: second poll adds nothing
        # the alert is folded back into the rolling view
        received = monitor.aggregator.alerts
        assert len(received) == 1
        assert received[0]["kind"] == "straggler"

    def test_replay_reproduces_live_verdicts(self, tmp_path):
        log = tmp_path / "stream.jsonl"
        tracer = SpanTracer()
        monitor = LiveMonitor(detectors=[StragglerDetector()],
                              live_log=log)
        monitor.attach(tracer)
        for i in range(3):
            tracer.publish({"type": "task-end", "task_index": i,
                            "seconds": 0.1, "ok": True, "worker": "n0"})
            tracer.publish({"type": "task-end", "task_index": 10 + i,
                            "seconds": 2.0, "ok": True, "worker": "n1"})
        live = monitor.stop()
        replayer = LiveMonitor(detectors=[StragglerDetector()])
        replayed = replayer.replay(read_stream_jsonl(log))
        assert [a["kind"] for a in replayed["alerts"]] == \
            [a["kind"] for a in live["alerts"]] == ["straggler"]
        live_nodes = live["summary"]["nodes"]
        replay_nodes = replayed["summary"]["nodes"]
        for name in ("n0", "n1"):
            assert replay_nodes[name]["tasks_done"] == \
                live_nodes[name]["tasks_done"]

    def test_dashboard_renders(self):
        from repro.observability.watch import render_dashboard
        tracer = SpanTracer()
        monitor = LiveMonitor(detectors=[StragglerDetector()])
        monitor.attach(tracer, worker="node0")
        for i in range(3):
            tracer.publish({"type": "task-end", "task_index": i,
                            "seconds": 0.1, "ok": True, "worker": "n0"})
            tracer.publish({"type": "task-end", "task_index": 10 + i,
                            "seconds": 2.0, "ok": True, "worker": "n1"})
        monitor.poll()
        text = render_dashboard(monitor)
        assert "n0" in text and "n1" in text
        assert "straggler" in text
        assert "utilization" in text
        assert "monitor" not in text.splitlines()[0]

    def test_watch_replay_from_recorded_stream(self, tmp_path):
        from repro.observability.watch import watch_replay
        log = tmp_path / "stream.jsonl"
        tracer = SpanTracer()
        monitor = LiveMonitor(live_log=log)
        monitor.attach(tracer)
        with tracer.span("SOLVE", category="stage"):
            pass
        tracer.publish({"type": "task-end", "task_index": 0,
                        "seconds": 0.2, "ok": True})
        monitor.stop()
        out = io.StringIO()
        replayer = watch_replay(log, frames=2, out=out)
        text = out.getvalue()
        assert "SOLVE" in text
        assert replayer.aggregator.stage_totals["SOLVE"]["count"] == 1


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


# --------------------------------------------------------------------------
# Acceptance: parity, injected straggler, injected drift
# --------------------------------------------------------------------------

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


class TestLiveAcceptance:
    def test_bus_on_off_bitwise_parity(self, tmp_path):
        from repro.observability.demo import traced_production_demo
        off = traced_production_demo(smoke=True)
        on = traced_production_demo(
            smoke=True, live=True,
            live_log=tmp_path / "stream.jsonl")
        assert on["live"]["dropped"] == 0
        assert on["live"]["events"] > 0
        # final result bitwise identical: the bus observed, not steered
        for point_on, point_off in zip(on["result"].points,
                                       off["result"].points):
            assert point_on.current == point_off.current
            assert point_on.scf_iterations == point_off.scf_iterations
        assert on["ledger_flops"] == off["ledger_flops"]
        assert on["ledger_bytes"] == off["ledger_bytes"]
        assert comparable_telemetry(on["metrics"].snapshot()) == \
            comparable_telemetry(off["metrics"].snapshot())
        assert on["reconciliation"]["flops_exact"]
        records = read_stream_jsonl(tmp_path / "stream.jsonl")
        assert validate_stream(records) == on["live"]["records_written"]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_replayed_live_table_is_the_report_table(self, tmp_path,
                                                     backend):
        """One fold: the live view rebuilt from the recorded stream and
        the report over the recorded spans hold the same stage table,
        and the wasted-flop SLO reads it."""
        from repro.observability.demo import traced_production_demo
        from repro.observability.report import phase_totals
        log = tmp_path / "stream.jsonl"
        demo = traced_production_demo(smoke=True, backend=backend,
                                      live_log=log)
        replayer = LiveMonitor()
        replayer.replay(read_stream_jsonl(log))
        report = {
            name: {**row, "seconds": pytest.approx(row["seconds"])}
            for name, row in phase_totals(demo["spans"]).items()}
        assert replayer.aggregator.stage_totals == report
        assert demo["live_monitor"].aggregator.stage_totals == report
        waste, = [s for s in replayer.slo_statuses
                  if s.kind == "wasted_flop_budget"]
        assert waste.detail == f"wasted=0 useful={demo['ledger_flops']}"

    def test_injected_straggler_alerts_and_reshapes_shares(self):
        from repro.observability.demo import traced_production_demo
        from repro.runtime.faults import FaultInjector, FaultProfile
        injector = FaultInjector(FaultProfile(slow_nodes=("node1",),
                                              straggler_delay_s=5.0))
        monitor = LiveMonitor(detectors=[StragglerDetector()],
                              interval=0.01)
        out = traced_production_demo(smoke=True, fault_injector=injector,
                                     live_monitor=monitor)
        t_end = time.time()
        report = out["live"]
        stragglers = [a for a in report["alerts"]
                      if a["kind"] == "straggler"]
        # on a loaded box node0 can trip the detector first; the injected
        # straggler must be flagged, whoever else is
        flagged = [a for a in stragglers if a["node"] == "node1"]
        assert flagged
        # the alert fired before the run ended, not post hoc
        assert flagged[0]["t"] < t_end

    def test_injected_byte_drift_raises_alert(self, monkeypatch):
        from repro.observability.demo import traced_production_demo
        from repro.pipeline.pipeline import TransportPipeline
        original = TransportPipeline._predicted_solve_bytes

        def shrunk(cache, solver_name, width, num_partitions=1):
            predicted = original(cache, solver_name, width, num_partitions)
            return None if predicted is None \
                else max(int(predicted) // 4, 1)

        monkeypatch.setattr(TransportPipeline, "_predicted_solve_bytes",
                            staticmethod(shrunk))
        monitor = LiveMonitor(detectors=[ByteDriftDetector()],
                              interval=0.01)
        out = traced_production_demo(smoke=True, live_monitor=monitor)
        drifts = [a for a in out["live"]["alerts"]
                  if a["kind"] == "byte-drift"]
        assert drifts
        assert drifts[0]["evidence"]["ratio"] > 1.05

    def test_process_backend_heartbeat_stream(self, tmp_path):
        from repro.observability.demo import traced_production_demo
        import os
        log = tmp_path / "stream.jsonl"
        out = traced_production_demo(smoke=True, backend="process",
                                     live=True, live_log=log)
        report = out["live"]
        assert report["dropped"] == 0
        records = read_stream_jsonl(log)
        assert validate_stream(records) == len(records)
        # worker processes really published over the heartbeat pipe
        worker_pids = {r["pid"] for r in records
                       if r["type"] in ("task-start", "task-end")}
        assert worker_pids and os.getpid() not in worker_pids
        assert out["reconciliation"]["flops_exact"]
        assert out["reconciliation"]["bytes_exact"]
