"""Thread-safe span tracer with nested scopes (the run-wide event stream).

A :class:`Span` is one timed scope of the simulation — SCF iteration,
bias point, (k, E-batch) task, pipeline stage, kernel event — carrying
wall time, exact :class:`~repro.linalg.flops.FlopLedger` flops, the
worker/node it ran on, and free-form attributes.  Spans nest through a
per-thread scope stack, so a stage span emitted inside a task scope
records that task as its parent and exporters can rebuild the full
hierarchy (Perfetto renders it as stacked slices).

One tracer is installed process-wide (:func:`install_tracer` /
:func:`tracing`); instrumentation sites call :func:`current_tracer` and
do nothing when it returns ``None``, so a run without tracing pays one
global read per stage — the near-zero disabled overhead the
acceptance criterion demands.  Each tracer also carries a
:class:`~repro.observability.metrics.MetricsRegistry` so span-adjacent
counters (retries, rebalances, bucket widths) land in the same
observable unit.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.linalg.flops import current_device
from repro.observability.metrics import MetricsRegistry

#: span categories used by the built-in instrumentation sites
CATEGORIES = ("bias", "scf", "task", "stage", "kernel", "fault",
              "balancer", "memory", "checkpoint", "ledger")


@dataclass
class Span:
    """One timed scope; times are ``time.perf_counter`` seconds."""

    name: str
    category: str = ""
    t_start: float = 0.0
    t_stop: float = 0.0
    flops: int = 0
    bytes_moved: int = 0
    worker: str = "cpu"
    span_id: int = 0
    parent_id: int | None = None
    #: monotonic registration sequence number within one tracer.  Wall
    #: times tie (instant events especially, across worker processes),
    #: so exporters and reports order by ``(t_start, seq)`` — the seq
    #: makes merged/absorbed streams sort deterministically.
    seq: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return max(self.t_stop - self.t_start, 0.0)

    def as_dict(self) -> dict:
        """JSON-serializable form (the JSONL event-log record)."""
        return {"name": self.name, "category": self.category,
                "t_start": self.t_start, "t_stop": self.t_stop,
                "flops": int(self.flops),
                "bytes_moved": int(self.bytes_moved),
                "worker": self.worker, "span_id": self.span_id,
                "parent_id": self.parent_id, "seq": int(self.seq),
                "attrs": dict(self.attrs)}

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(name=data["name"], category=data.get("category", ""),
                   t_start=float(data.get("t_start", 0.0)),
                   t_stop=float(data.get("t_stop", 0.0)),
                   flops=int(data.get("flops", 0)),
                   bytes_moved=int(data.get("bytes_moved", 0)),
                   worker=data.get("worker", "cpu"),
                   span_id=int(data.get("span_id", 0)),
                   parent_id=data.get("parent_id"),
                   seq=int(data.get("seq", 0)),
                   attrs=dict(data.get("attrs", {})))


class SpanTracer:
    """Collects spans from every thread of a run.

    Parameters
    ----------
    enabled : bool
        A disabled tracer records nothing; every entry point returns
        immediately (``span()`` yields ``None``).
    metrics : :class:`MetricsRegistry`, optional
        The registry span-adjacent counters record into; a fresh one is
        created when omitted.
    """

    def __init__(self, enabled: bool = True,
                 metrics: MetricsRegistry | None = None):
        self.enabled = bool(enabled)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans: list = []
        #: called with each span's :meth:`Span.as_dict` as it closes
        #: (scope exit, ``emit``/``instant``, every span ``absorb``
        #: adopts): the span log's writer
        #: (:class:`~repro.observability.export.SpanLogWriter`) streams
        #: the run through it.  ``None`` costs one attribute read.
        self.on_close = None
        self._lock = threading.Lock()
        self._next_id = 1
        self._tls = threading.local()

    # -- scope stack (per thread) -------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current_parent_id(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _register(self, span: Span) -> Span:
        with self._lock:
            span.span_id = self._next_id
            span.seq = self._next_id
            self._next_id += 1
            self.spans.append(span)
        return span

    def _closed(self, sp: Span) -> None:
        hook = self.on_close
        if hook is not None:
            hook(sp.as_dict())

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str, category: str = "", worker: str | None = None,
             **attrs):
        """Open a nested scope; yields the live :class:`Span` (or ``None``
        when the tracer is disabled).  The span is registered at open so
        children see it as their parent; ``t_stop`` lands on exit,
        success or failure (a raising body is still timed, with the
        exception type recorded in ``attrs["error"]``)."""
        if not self.enabled:
            yield None
            return
        sp = Span(name=name, category=category,
                  worker=worker if worker is not None else current_device(),
                  t_start=time.perf_counter(),
                  parent_id=self.current_parent_id(), attrs=dict(attrs))
        self._register(sp)
        stack = self._stack()
        stack.append(sp.span_id)
        try:
            yield sp
        except BaseException as exc:
            sp.attrs["error"] = type(exc).__name__
            raise
        finally:
            stack.pop()
            sp.t_stop = time.perf_counter()
            self._closed(sp)

    def emit(self, name: str, category: str = "",
             t_start: float | None = None, t_stop: float | None = None,
             seconds: float | None = None, flops: int = 0,
             bytes_moved: int = 0, worker: str | None = None,
             attrs: dict | None = None,
             parent_id: int | None = None) -> Span | None:
        """Record a completed span post hoc (e.g. a pipeline stage).

        ``seconds`` is an alternative to ``t_stop``, for a caller that
        measured the duration itself (a stage scope's wall time).
        """
        if not self.enabled:
            return None
        now = time.perf_counter()
        if t_start is None:
            t_start = now
        if t_stop is None:
            t_stop = t_start + (seconds if seconds is not None else 0.0)
        sp = Span(name=name, category=category, t_start=t_start,
                  t_stop=t_stop, flops=int(flops),
                  bytes_moved=int(bytes_moved),
                  worker=worker if worker is not None else current_device(),
                  parent_id=(parent_id if parent_id is not None
                             else self.current_parent_id()),
                  attrs=dict(attrs or {}))
        self._register(sp)
        self._closed(sp)
        return sp

    def instant(self, name: str, category: str = "",
                worker: str | None = None,
                attrs: dict | None = None) -> Span | None:
        """A zero-duration marker event (task fault, rebalance, checkpoint)."""
        now = time.perf_counter()
        return self.emit(name, category=category, t_start=now, t_stop=now,
                         worker=worker, attrs=attrs)

    def absorb(self, span_dicts, parent_id: int | None = None) -> list:
        """Adopt spans recorded by another tracer (e.g. a worker process).

        ``span_dicts`` are :meth:`Span.as_dict` records.  Every span gets
        a fresh id from this tracer's sequence; the parent/child links
        *within* the absorbed batch are remapped accordingly, and spans
        that were roots in the source tracer are attached to
        ``parent_id`` (default: the caller's current scope), so a worker
        task's span tree hangs under the parent-side span that dispatched
        it.  Returns the adopted :class:`Span` objects.
        """
        if not self.enabled:
            return []
        if parent_id is None:
            parent_id = self.current_parent_id()
        spans = [Span.from_dict(d) if isinstance(d, dict) else d
                 for d in span_dicts]
        # Adopt in the source tracer's registration order (its seq), so
        # fresh ids/seqs are assigned deterministically regardless of the
        # iteration order the batch arrived in.
        spans.sort(key=lambda s: (s.seq, s.span_id))
        remap: dict = {}
        with self._lock:
            for sp in spans:
                old = sp.span_id
                sp.span_id = self._next_id
                sp.seq = self._next_id
                self._next_id += 1
                remap[old] = sp.span_id
            for sp in spans:
                sp.parent_id = remap.get(sp.parent_id, parent_id)
            self.spans.extend(spans)
        for sp in spans:
            self._closed(sp)
        return spans

    # -- access -------------------------------------------------------------

    def records(self) -> list:
        """Snapshot of the recorded spans (list copy, thread-safe)."""
        with self._lock:
            return list(self.spans)

    def by_category(self, category: str) -> list:
        return [s for s in self.records() if s.category == category]


# --------------------------------------------------------------------------
# Process-wide active tracer
# --------------------------------------------------------------------------

_ACTIVE: SpanTracer | None = None


def current_tracer() -> SpanTracer | None:
    """The installed tracer, or ``None`` when tracing is off/disabled.

    Instrumentation sites branch on this; the disabled path is one
    module-global read.
    """
    tracer = _ACTIVE
    if tracer is not None and tracer.enabled:
        return tracer
    return None


def install_tracer(tracer: SpanTracer | None) -> SpanTracer | None:
    """Install ``tracer`` process-wide; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


@contextmanager
def tracing(tracer: SpanTracer | None = None):
    """Scope with a tracer installed (created fresh when omitted)::

        with tracing() as tracer:
            run_production(...)
        write_chrome_trace(tracer.records(), "trace.json")
    """
    if tracer is None:
        tracer = SpanTracer()
    previous = install_tracer(tracer)
    try:
        yield tracer
    finally:
        install_tracer(previous)
