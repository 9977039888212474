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
5. The span log — the tracer hands each span to
   :class:`SpanLogWriter` as it closes, so one JSONL file is both the
   live stream ``python -m repro watch`` tails and the record
   ``python -m repro report`` re-reads; both print :func:`run_report`.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "spans": ("CATEGORIES", "Span", "SpanTracer", "current_tracer",
              "install_tracer", "tracing"),
    "metrics": ("Counter", "Gauge", "Histogram", "LabeledCounter",
                "MetricsRegistry", "comparable_telemetry"),
    "export": ("SpanLogWriter", "follow_spans_jsonl", "read_spans_jsonl",
               "to_chrome_trace", "validate_chrome_trace",
               "write_chrome_trace", "write_spans_jsonl"),
    "report": ("RooflineStage", "activity_report", "cache_report",
               "cache_totals", "memory_report", "memory_totals",
               "node_activity", "phase_report", "phase_totals", "reconcile",
               "reconcile_report", "roofline_annotate", "roofline_report",
               "run_report"),
})
