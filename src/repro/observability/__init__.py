"""Unified observability layer: spans, metrics, exporters, run reports.

One subsystem replacing the fragmented telemetry of earlier PRs:

1. :class:`SpanTracer` — a thread-safe span tracer with nested scopes
   (SCF iteration -> bias point -> (k, E-batch) task -> pipeline stage
   -> kernel event) carrying wall time, exact
   :class:`~repro.linalg.flops.FlopLedger` flops, worker/node id, and
   free-form attributes.  Near-zero overhead when no tracer is
   installed: every instrumentation site is one global read.
2. :class:`MetricsRegistry` — counters, gauges, histograms, labeled
   counters; snapshotable (JSON-serializable, checkpoint-persistable)
   and mergeable across runners without shared locks.
   :class:`~repro.runtime.RunTelemetry` is a view over one.
3. Exporters — JSONL event logs and Chrome-trace/Perfetto JSON whose
   per-node tracks regenerate the paper's Fig. 12 activity timeline
   from a real traced run (``python -m repro trace``).
4. Reports — Fig. 6-style phase breakdowns, per-node activity tables,
   and roofline annotation (achieved vs. attainable GF/s per stage via
   :mod:`repro.perfmodel.roofline`), all over the one stage table
   ``fold_stage`` sums, plus its reconciliation against the ledger.
5. Live telemetry — :class:`TelemetryBus` / :class:`LiveAggregator` /
   :class:`LiveMonitor` stream events *while the run executes*,
   :mod:`~repro.observability.anomaly` detectors raise typed
   :class:`Alert` records (stragglers, byte drift, fallback spikes,
   store-hit collapse, checkpoint overrun), and
   :mod:`~repro.observability.health` evaluates declarative SLO rules;
   ``python -m repro watch`` renders the dashboard live or from a
   recorded stream.
"""

from repro.observability.export import (read_spans_jsonl, to_chrome_trace,
                                        validate_chrome_trace,
                                        write_chrome_trace,
                                        write_spans_jsonl)
from repro.observability.metrics import (Counter, Gauge, Histogram,
                                         LabeledCounter, MetricsRegistry)
from repro.observability.report import (RooflineStage, activity_report,
                                        cache_report, cache_totals,
                                        memory_report, memory_totals,
                                        node_activity, phase_report,
                                        phase_totals, reconcile,
                                        roofline_annotate, roofline_report)
from repro.observability.spans import (CATEGORIES, Span, SpanTracer,
                                       current_tracer, install_tracer,
                                       tracing)

__all__ = [
    "CATEGORIES",
    "Span",
    "SpanTracer",
    "current_tracer",
    "install_tracer",
    "tracing",
    "Counter",
    "Gauge",
    "Histogram",
    "LabeledCounter",
    "MetricsRegistry",
    "read_spans_jsonl",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_spans_jsonl",
    "RooflineStage",
    "activity_report",
    "cache_report",
    "cache_totals",
    "memory_report",
    "memory_totals",
    "node_activity",
    "phase_report",
    "phase_totals",
    "reconcile",
    "roofline_annotate",
    "roofline_report",
    "traced_production_demo",
    "TelemetryBus",
    "BusPublisher",
    "LiveAggregator",
    "LiveMonitor",
    "comparable_telemetry",
    "read_stream_jsonl",
    "validate_stream",
    "write_stream_jsonl",
    "Alert",
    "default_detectors",
    "HealthMonitor",
    "SLORule",
    "SLOStatus",
    "render_dashboard",
    "watch_replay",
]

_LAZY = {
    "traced_production_demo": "repro.observability.demo",
    "TelemetryBus": "repro.observability.live",
    "BusPublisher": "repro.observability.live",
    "LiveAggregator": "repro.observability.live",
    "LiveMonitor": "repro.observability.live",
    "comparable_telemetry": "repro.observability.live",
    "read_stream_jsonl": "repro.observability.live",
    "validate_stream": "repro.observability.live",
    "write_stream_jsonl": "repro.observability.live",
    "Alert": "repro.observability.anomaly",
    "default_detectors": "repro.observability.anomaly",
    "HealthMonitor": "repro.observability.health",
    "SLORule": "repro.observability.health",
    "SLOStatus": "repro.observability.health",
    "render_dashboard": "repro.observability.watch",
    "watch_replay": "repro.observability.watch",
}


def __getattr__(name):
    if name in _LAZY:
        import importlib
        mod = importlib.import_module(_LAZY[name])
        val = getattr(mod, name)
        globals()[name] = val
        return val
    raise AttributeError(
        f"module 'repro.observability' has no attribute {name!r}")
