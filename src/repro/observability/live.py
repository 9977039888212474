"""Live telemetry bus: watch a run *while it executes*.

The post-hoc observability layer (spans, metrics, reports) can only
explain a run after it finishes.  This module adds the streaming side:

* :class:`TelemetryBus` — a bounded, drop-counting ring buffer that
  instrumentation publishes events onto.  Publishing never blocks and
  never grows without bound; when the consumer falls behind, the oldest
  events are dropped *and counted*, so "zero dropped" is a checkable
  claim (CI asserts it on the smoke demo).
* :class:`BusPublisher` — the callable installed as
  ``SpanTracer.publisher``.  It stamps every event with the stream
  schema version, a per-publisher monotonic sequence number, the
  worker/node name, a wall-clock timestamp, and the producing PID, then
  hands it to a sink (the bus directly for threads; the task pipe of a
  worker process).
* :class:`LiveAggregator` — folds the interleaved worker streams into a
  consistent rolling view: per-node task latencies and EMA rates,
  the cumulative stage table (each closed stage span through
  :func:`~repro.observability.report.fold_stage`, the sum the recorded
  report uses), the latest cumulative
  metrics snapshot (int-exact: "metrics" events carry full snapshots
  with replace semantics, never deltas that could double-count), open
  spans, checkpoint marks, and alerts.
* :class:`LiveMonitor` — owns the bus, aggregator, anomaly detectors
  and SLO rules; a daemon thread polls the bus, optionally records the
  stream to JSONL (``--live-log``) for replay, and folds fresh alerts
  back into the aggregator.

The rolling view is read-only over the run's state: the end-of-run
merge path (worker ledgers/metrics/spans absorbed at task completion)
is untouched, and the final telemetry stays bitwise identical with the
bus on or off — ``comparable_telemetry`` strips only wall-time-valued
metrics, which differ between any two runs regardless of the bus.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.observability.report import fold_stage
from repro.utils.errors import ConfigurationError

#: stream schema version stamped on every event
STREAM_VERSION = 1

#: event types a conforming stream may contain
EVENT_TYPES = ("task-start", "task-end", "span-open", "span-close",
               "instant", "metrics", "alert")

#: metric-name suffixes that carry measured wall time — excluded from
#: bus-on/bus-off parity comparisons (wall times differ between any two
#: runs; everything else in the registry is deterministic)
TIME_METRIC_SUFFIXES = ("_time_s", "_seconds")

#: metric-name prefixes whose values depend on thread interleaving —
#: arena scratch-buffer reuse varies with which worker reaches the pool
#: first, so these gauges differ between any two runs, bus or not
SCHEDULING_METRIC_PREFIXES = ("arena_",)


# --------------------------------------------------------------------------
# Bus + publisher
# --------------------------------------------------------------------------

class TelemetryBus:
    """Bounded MPSC event buffer with exact drop accounting.

    Any number of threads may :meth:`publish`; one consumer
    :meth:`drain`\\ s.  When the buffer is full the *oldest* event is
    evicted (freshest data wins for a live view) and ``dropped``
    increments, so the consumer always knows whether its view is
    complete.
    """

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ConfigurationError("bus capacity must be >= 1")
        self.capacity = int(capacity)
        self._events: deque = deque()
        self._lock = threading.Lock()
        self.published = 0
        self.dropped = 0

    def publish(self, event: dict) -> bool:
        """Append one event; returns False when an old event was evicted
        to make room (the publish itself always succeeds)."""
        with self._lock:
            self.published += 1
            if len(self._events) >= self.capacity:
                self._events.popleft()
                self.dropped += 1
                self._events.append(event)
                return False
            self._events.append(event)
            return True

    def drain(self) -> list:
        """Remove and return every buffered event (consumer side)."""
        with self._lock:
            events = list(self._events)
            self._events.clear()
        return events

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


class BusPublisher:
    """Stamps events with (v, seq, worker, t, pid) and forwards to a sink.

    The sequence number is monotonic *per publisher*, which is per
    (process, attach) — enough for consumers to detect reordering or
    loss within one worker's stream.  ``sink`` is any callable taking
    the event dict: ``TelemetryBus.publish`` in-process, or a send up
    a worker process's task pipe.
    """

    def __init__(self, sink, worker: str = "node0", clock=time.time):
        self.sink = sink
        self.worker = str(worker)
        self.clock = clock
        self._seq = itertools.count()

    def __call__(self, event: dict) -> None:
        event.setdefault("worker", self.worker)
        event["v"] = STREAM_VERSION
        event["seq"] = next(self._seq)
        event["t"] = self.clock()
        event["pid"] = os.getpid()
        self.sink(event)


# --------------------------------------------------------------------------
# Stream records (JSONL) + schema validation
# --------------------------------------------------------------------------

_REQUIRED_FIELDS = {
    "task-start": ("task_index",),
    "task-end": ("task_index", "seconds", "ok"),
    "span-open": ("name", "category"),
    "span-close": ("name", "category", "seconds"),
    "instant": ("name", "category"),
    "metrics": ("snapshot",),
    "alert": ("kind", "severity", "message"),
}


def validate_stream_record(record: dict, index: int = 0) -> None:
    """Raise :class:`ConfigurationError` unless ``record`` conforms to
    stream schema v1 (envelope stamps plus type-specific fields)."""
    where = f"stream record {index}"
    if not isinstance(record, dict):
        raise ConfigurationError(f"{where}: not an object")
    if record.get("v") != STREAM_VERSION:
        raise ConfigurationError(
            f"{where}: schema version {record.get('v')!r}, "
            f"expected {STREAM_VERSION}")
    etype = record.get("type")
    if etype not in EVENT_TYPES:
        raise ConfigurationError(f"{where}: unknown event type {etype!r}")
    for key, kinds in (("seq", int), ("pid", int),
                       ("t", (int, float)), ("worker", str)):
        if not isinstance(record.get(key), kinds) \
                or isinstance(record.get(key), bool):
            raise ConfigurationError(
                f"{where}: missing or mistyped envelope field {key!r}")
    for name in _REQUIRED_FIELDS[etype]:
        if name not in record:
            raise ConfigurationError(
                f"{where}: {etype} event missing field {name!r}")
    if etype == "metrics" and not isinstance(record["snapshot"], dict):
        raise ConfigurationError(f"{where}: metrics snapshot not a dict")


def validate_stream(records) -> int:
    """Validate every record and per-(pid, worker) seq monotonicity;
    returns the record count."""
    last_seq: dict = {}
    count = 0
    for index, record in enumerate(records):
        validate_stream_record(record, index)
        key = (record["pid"], record["worker"])
        prev = last_seq.get(key)
        if prev is not None and record["seq"] <= prev:
            raise ConfigurationError(
                f"stream record {index}: seq {record['seq']} not "
                f"monotonic for publisher {key} (last {prev})")
        last_seq[key] = record["seq"]
        count += 1
    return count


def write_stream_jsonl(events, path) -> int:
    """Write events to a JSONL stream file; returns the record count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event, sort_keys=True) + "\n")
            count += 1
    return count


def read_stream_jsonl(path) -> list:
    """Read a recorded JSONL stream back into event dicts."""
    events = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def follow_stream_jsonl(path, poll_s: float = 0.2, idle_timeout: float = 5.0):
    """Yield records from a stream file as they are appended (live tail).

    Stops after ``idle_timeout`` seconds without a new complete line —
    the "watch a live run from another terminal" transport.
    """
    deadline = time.monotonic() + idle_timeout
    with open(path, encoding="utf-8") as fh:
        buffer = ""
        while True:
            chunk = fh.readline()
            if chunk:
                buffer += chunk
                if buffer.endswith("\n"):
                    line = buffer.strip()
                    buffer = ""
                    if line:
                        deadline = time.monotonic() + idle_timeout
                        yield json.loads(line)
                continue
            if time.monotonic() >= deadline:
                return
            time.sleep(poll_s)


# --------------------------------------------------------------------------
# Rolling aggregation
# --------------------------------------------------------------------------

#: rolling-window length for per-node latency statistics
LATENCY_WINDOW = 256


@dataclass
class NodeState:
    """Rolling view of one worker/node assembled from its stream."""

    worker: str
    tasks_started: int = 0
    tasks_done: int = 0
    tasks_failed: int = 0
    busy_seconds: float = 0.0
    #: exponential moving average of task latency (seconds)
    ema_latency: float = 0.0
    #: exponential moving average of completion rate (tasks/second)
    ema_rate: float = 0.0
    last_seen: float = 0.0
    open_spans: int = 0
    latencies: deque = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW))

    def observe_latency(self, seconds: float, alpha: float = 0.3) -> None:
        self.latencies.append(float(seconds))
        if self.ema_latency <= 0.0:
            self.ema_latency = float(seconds)
        else:
            self.ema_latency += alpha * (float(seconds) - self.ema_latency)
        rate = 1.0 / max(float(seconds), 1e-9)
        if self.ema_rate <= 0.0:
            self.ema_rate = rate
        else:
            self.ema_rate += alpha * (rate - self.ema_rate)

    def mean_latency(self) -> float:
        return (sum(self.latencies) / len(self.latencies)
                if self.latencies else 0.0)

    def as_dict(self) -> dict:
        return {"worker": self.worker,
                "tasks_started": self.tasks_started,
                "tasks_done": self.tasks_done,
                "tasks_failed": self.tasks_failed,
                "busy_seconds": self.busy_seconds,
                "ema_latency": self.ema_latency,
                "ema_rate": self.ema_rate,
                "open_spans": self.open_spans,
                "mean_latency": self.mean_latency()}


class LiveAggregator:
    """Folds bus events into a consistent rolling view of the run.

    Counters stay int-exact because "metrics" events carry *cumulative*
    registry snapshots with replace semantics (the parent registry
    already absorbs worker metrics at task completion, so the latest
    snapshot is the whole truth — no delta arithmetic to get wrong).
    All other state is windowed/EMA per node.  Consuming an event never
    mutates the run itself, so replaying a recorded stream rebuilds the
    identical view.
    """

    def __init__(self):
        self.nodes: dict = {}
        self.events_seen = 0
        self.by_type: dict = {}
        #: latest cumulative MetricsRegistry snapshot per scope
        #: (replace semantics; scope "tracer" is the installed tracer's
        #: registry, "telemetry" the resilient runner's)
        self.metrics_scopes: dict = {}
        #: cumulative per-stage table, rows as
        #: :func:`~repro.observability.report.fold_stage` writes them
        self.stage_totals: dict = {}
        self.alerts: list = []
        #: straggler delays injected but not slept (paired to task-end)
        self.pending_delay: dict = {}
        self.checkpoint_marks: list = []
        self.current_phase = ""
        self.t_first = None
        self.t_last = None
        self.all_latencies: deque = deque(maxlen=4 * LATENCY_WINDOW)

    def node(self, worker: str) -> NodeState:
        state = self.nodes.get(worker)
        if state is None:
            state = self.nodes[worker] = NodeState(worker=str(worker))
        return state

    # -- event folding ------------------------------------------------------

    def consume(self, event: dict) -> None:
        self.events_seen += 1
        etype = event.get("type", "")
        self.by_type[etype] = self.by_type.get(etype, 0) + 1
        t = float(event.get("t", 0.0))
        if t:
            self.t_first = t if self.t_first is None else \
                min(self.t_first, t)
            self.t_last = t if self.t_last is None else max(self.t_last, t)
        node = self.node(event.get("worker", "node0"))
        node.last_seen = max(node.last_seen, t)
        handler = getattr(self, f"_on_{etype.replace('-', '_')}", None)
        if handler is not None:
            handler(event, node)

    def _on_task_start(self, event: dict, node: NodeState) -> None:
        node.tasks_started += 1

    def _on_task_end(self, event: dict, node: NodeState) -> None:
        seconds = float(event.get("seconds", 0.0))
        # Re-add injected-but-unslept straggler delay so the latency the
        # detectors see models the slowness the fault plan prescribed
        # even in fast simulated runs (real_sleep=False).
        seconds += self.pending_delay.pop(event.get("task_index"), 0.0)
        node.busy_seconds += seconds
        if event.get("ok", True):
            node.tasks_done += 1
        else:
            node.tasks_failed += 1
        node.observe_latency(seconds)
        self.all_latencies.append(seconds)

    def _on_span_open(self, event: dict, node: NodeState) -> None:
        node.open_spans += 1
        if event.get("category") in ("bias", "scf", "stage"):
            self.current_phase = event.get("name", "")

    def _on_span_close(self, event: dict, node: NodeState) -> None:
        node.open_spans = max(node.open_spans - 1, 0)
        if event.get("category") == "stage":
            attrs = event.get("attrs") or {}
            fold_stage(self.stage_totals, event.get("name", ""),
                       event.get("seconds", 0.0), event.get("flops", 0),
                       event.get("bytes", 0),
                       attrs.get("predicted_bytes", 0))

    def _on_instant(self, event: dict, node: NodeState) -> None:
        name = event.get("name", "")
        attrs = event.get("attrs") or {}
        if name == "straggler-delay" and not attrs.get("slept", False):
            index = attrs.get("task_index")
            if index is not None:
                self.pending_delay[index] = \
                    self.pending_delay.get(index, 0.0) \
                    + float(attrs.get("delay_s", 0.0))
        elif event.get("category") == "checkpoint":
            self.checkpoint_marks.append(float(event.get("t", 0.0)))

    def _on_metrics(self, event: dict, node: NodeState) -> None:
        if event.get("cumulative", True):
            self.metrics_scopes[event.get("scope", "tracer")] = \
                event.get("snapshot") or {}

    def _on_alert(self, event: dict, node: NodeState) -> None:
        self.alerts.append(event)

    # -- derived views ------------------------------------------------------

    def elapsed(self) -> float:
        if self.t_first is None or self.t_last is None:
            return 0.0
        return max(self.t_last - self.t_first, 0.0)

    def utilization(self) -> float:
        """Busy fraction across nodes: sum(busy) / (elapsed * n_nodes)."""
        elapsed = self.elapsed()
        if not self.nodes or elapsed <= 0.0:
            return 1.0
        busy = sum(n.busy_seconds for n in self.nodes.values())
        return min(busy / (elapsed * len(self.nodes)), 1.0)

    def latency_quantile(self, q: float):
        """Empirical quantile of recent task latencies (None when no
        task completed yet)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError("quantile q must be in [0, 1]")
        if not self.all_latencies:
            return None
        ordered = sorted(self.all_latencies)
        index = min(int(q * len(ordered)), len(ordered) - 1)
        return ordered[index]

    def counter_value(self, name: str) -> int:
        """Cumulative counter value across scopes.

        The max over scopes: a counter lives in one registry, the
        tracer's or the runner telemetry's, and the max reads it from
        whichever holds it.
        """
        best = 0
        for snap in self.metrics_scopes.values():
            entry = snap.get(name)
            if entry and entry.get("kind") == "counter":
                best = max(best, entry.get("value", 0))
        return best

    def summary(self) -> dict:
        return {"events": self.events_seen,
                "by_type": dict(self.by_type),
                "elapsed_s": self.elapsed(),
                "utilization": self.utilization(),
                "phase": self.current_phase,
                "nodes": {w: n.as_dict()
                          for w, n in sorted(self.nodes.items())},
                "stage_totals": {k: dict(v) for k, v in
                                 sorted(self.stage_totals.items())},
                "alerts": len(self.alerts),
                "checkpoints": len(self.checkpoint_marks)}


# --------------------------------------------------------------------------
# Monitor (bus consumer + detector/SLO driver)
# --------------------------------------------------------------------------

class LiveMonitor:
    """Drives the live side of a run: drains the bus, folds the stream
    into the aggregator, runs anomaly detectors and SLO rules, and
    records the stream to JSONL.

    Use either as polled-from-outside (call :meth:`poll`) or with the
    background daemon thread (:meth:`start` / :meth:`stop`).  The final
    :meth:`stop` performs a last drain so no event is lost between the
    end of the run and the report.
    """

    def __init__(self, bus: TelemetryBus | None = None, detectors=None,
                 health=None, interval: float = 0.05, live_log=None,
                 clock=time.time):
        if detectors is None:
            from repro.observability.anomaly import default_detectors
            detectors = default_detectors()
        if health is None:
            from repro.observability.health import HealthMonitor
            health = HealthMonitor.default()
        self.bus = bus if bus is not None else TelemetryBus()
        self.aggregator = LiveAggregator()
        self.detectors = list(detectors)
        self.health = health
        self.interval = float(interval)
        self.live_log = live_log
        self.clock = clock
        self.slo_statuses: list = []
        self.records_written = 0
        self._monitor_publisher = BusPublisher(
            self.bus.publish, worker="monitor", clock=clock)
        #: extra MetricsRegistry objects snapshotted each poll, keyed by
        #: scope name (see :meth:`watch_registry`)
        self._registries: dict = {}
        self._tracer = None
        self._log_fh = None
        self._poll_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = None

    # -- wiring -------------------------------------------------------------

    def attach(self, tracer, worker: str = "node0") -> BusPublisher:
        """Install a publisher on ``tracer`` so its spans/instants (and
        anything calling ``tracer.publish``) land on this monitor's bus."""
        publisher = BusPublisher(self.bus.publish, worker=worker,
                                 clock=self.clock)
        tracer.publisher = publisher
        self._tracer = tracer
        return publisher

    def detach(self) -> None:
        if self._tracer is not None:
            self._tracer.publisher = None
            self._tracer = None

    def watch_registry(self, registry, scope: str = "telemetry") -> None:
        """Snapshot an additional :class:`MetricsRegistry` each poll as a
        cumulative ``metrics`` event under ``scope``.  The thread backend
        books ``wasted_flops`` only into the resilient runner's
        telemetry registry, so watch that one to feed the
        ``wasted_flop_budget`` SLO (the aggregator reads the max across
        scopes, so mirrored counters never double-count)."""
        self._registries[str(scope)] = registry

    # -- polling ------------------------------------------------------------

    def _record(self, event: dict) -> None:
        if self.live_log is None:
            return
        if self._log_fh is None:
            self._log_fh = open(self.live_log, "w", encoding="utf-8")
        self._log_fh.write(json.dumps(event, sort_keys=True) + "\n")
        self.records_written += 1

    def poll(self) -> int:
        """One drain-fold-detect-evaluate cycle; returns the number of
        events consumed (bus events plus fresh alerts)."""
        with self._poll_lock:
            if self._tracer is not None:
                self._monitor_publisher(
                    {"type": "metrics", "cumulative": True,
                     "scope": "tracer",
                     "snapshot": self._tracer.metrics.snapshot()})
            for scope, registry in self._registries.items():
                self._monitor_publisher(
                    {"type": "metrics", "cumulative": True, "scope": scope,
                     "snapshot": registry.snapshot()})
            events = self.bus.drain()
            for event in events:
                self._record(event)
                self.aggregator.consume(event)
            fresh = []
            for detector in self.detectors:
                fresh.extend(detector.update(self.aggregator))
            for alert in fresh:
                event = dict(alert.as_dict())
                event["type"] = "alert"
                self._monitor_publisher(event)
            # alert events were just published onto the bus; fold them
            # immediately so report()/dashboards see them this cycle
            for event in self.bus.drain():
                self._record(event)
                self.aggregator.consume(event)
            if self.health is not None:
                self.slo_statuses = self.health.evaluate(self.aggregator)
            return len(events) + len(fresh)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.poll()

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-live-monitor", daemon=True)
        self._thread.start()

    def stop(self) -> dict:
        """Stop polling, drain the tail of the stream, close the log;
        returns the final :meth:`report`."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=10.0)
            self._thread = None
        self.poll()
        self.detach()
        if self._log_fh is not None:
            self._log_fh.close()
            self._log_fh = None
        return self.report()

    # -- results ------------------------------------------------------------

    def report(self) -> dict:
        return {"events": self.aggregator.events_seen,
                "published": self.bus.published,
                "dropped": self.bus.dropped,
                "records_written": self.records_written,
                "alerts": [dict(a) for a in self.aggregator.alerts],
                "slo": [s.as_dict() for s in self.slo_statuses],
                "summary": self.aggregator.summary()}

    def replay(self, records) -> dict:
        """Fold a recorded stream (dicts) through the aggregator,
        detectors, and SLO rules — the ``watch --replay`` path.

        Recorded ``alert`` events are *skipped*: they are derived data
        the live monitor produced, and this monitor's detectors
        re-derive them from the raw stream (so a replay reproduces the
        live verdicts instead of double-counting them).
        """
        for record in records:
            if record.get("type") == "alert":
                continue
            self.aggregator.consume(record)
            for detector in self.detectors:
                for alert in detector.update(self.aggregator):
                    event = dict(alert.as_dict())
                    event["type"] = "alert"
                    self._monitor_publisher(event)
            for event in self.bus.drain():
                self.aggregator.consume(event)
        if self.health is not None:
            self.slo_statuses = self.health.evaluate(self.aggregator)
        return self.report()


# --------------------------------------------------------------------------
# Parity helper
# --------------------------------------------------------------------------

def comparable_telemetry(snapshot: dict) -> dict:
    """A metrics snapshot with run-to-run-noisy metrics removed.

    Final bus-on vs. bus-off telemetry must be bitwise identical in
    every deterministic metric; this filter drops only what differs
    between *any* two runs regardless of the bus — measured wall times
    (``*_time_s``, ``*_seconds`` histograms) and the
    scheduling-dependent arena pool gauges (``arena_*``: scratch reuse
    varies with worker interleaving).  It never touches flop, byte, or
    count metrics.
    """
    out = {}
    for name, entry in snapshot.items():
        if name.endswith(TIME_METRIC_SUFFIXES) \
                or name.startswith(SCHEDULING_METRIC_PREFIXES):
            continue
        out[name] = entry
    return out
