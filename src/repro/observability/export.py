"""Span exporters: the JSONL span log and Chrome-trace/Perfetto JSON.

Two formats, both plain files:

* **JSONL** — one :meth:`Span.as_dict` object per line; the lossless
  run-wide span log.  :class:`SpanLogWriter` is its one writer: hung on
  :attr:`SpanTracer.on_close <repro.observability.spans.SpanTracer.
  on_close>` it appends each span as it closes, so the file is the live
  stream ``python -m repro watch`` tails (:func:`follow_spans_jsonl`)
  and the record ``python -m repro report`` re-reads
  (:func:`read_spans_jsonl`).
* **Chrome trace events** — the ``{"traceEvents": [...]}`` JSON that
  ``chrome://tracing`` and https://ui.perfetto.dev load directly.  Each
  worker/node becomes one *process* (track group) with per-thread
  tracks, regenerating the paper's Fig. 12 per-node activity timeline
  from a real traced run.  :func:`validate_chrome_trace` is the schema
  check CI runs on the exported artifact.
"""

from __future__ import annotations

import json
import os
import threading
import time

from repro.observability.spans import Span
from repro.utils.errors import ConfigurationError


class SpanLogWriter:
    """Appends one JSON line per span record to ``path`` and flushes it.

    Callable with a :meth:`Span.as_dict` record, so it is the tracer's
    ``on_close`` hook as it stands; a lock keeps the lines of concurrent
    threads whole.  A run killed mid-write leaves at most one torn last
    line, which :func:`read_spans_jsonl` skips.
    """

    def __init__(self, path):
        self.lines = 0
        self._fh = open(path, "w")
        self._lock = threading.Lock()

    def __call__(self, record: dict) -> None:
        line = json.dumps(record) + "\n"
        with self._lock:
            self._fh.write(line)
            self._fh.flush()
            self.lines += 1

    def close(self) -> None:
        with self._lock:
            self._fh.close()

    def __enter__(self) -> "SpanLogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_spans_jsonl(spans, path) -> int:
    """Write spans as JSON-lines; returns the number of records."""
    with SpanLogWriter(path) as writer:
        for sp in spans:
            writer(sp.as_dict())
    return writer.lines


def _parse_line(line: str, path, number: int) -> Span:
    try:
        return Span.from_dict(json.loads(line))
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigurationError(
            f"{path}:{number}: not a span record ({exc})") from exc


def read_spans_jsonl(path) -> list:
    """Read a span log back into :class:`Span` objects.

    An unterminated last line is the torn tail of a killed writer and is
    skipped; a malformed complete line is a :class:`ConfigurationError`
    naming the file and line.
    """
    out = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            if not line.endswith("\n"):
                break
            if line.strip():
                out.append(_parse_line(line, path, number))
    return out


def follow_spans_jsonl(path, poll_s: float = 0.2,
                       idle_timeout: float = 5.0):
    """Yield the :class:`Span` of each complete line of a span log as
    the writer appends it (the file may not exist yet).

    Stops after ``idle_timeout`` seconds without a new complete line.
    """
    deadline = time.monotonic() + idle_timeout
    while not os.path.exists(path):
        if time.monotonic() >= deadline:
            return
        time.sleep(poll_s)
    with open(path) as fh:
        number, buffer = 0, ""
        while True:
            buffer += fh.readline()
            if buffer.endswith("\n"):
                number += 1
                if buffer.strip():
                    yield _parse_line(buffer, path, number)
                buffer = ""
                deadline = time.monotonic() + idle_timeout
                continue
            if time.monotonic() >= deadline:
                return
            time.sleep(poll_s)


def _worker_pids(spans) -> dict:
    """Stable worker -> pid mapping (sorted; one Perfetto track group
    per simulated node)."""
    return {w: i + 1 for i, w in
            enumerate(sorted({sp.worker for sp in spans}))}


def _thread_tids(spans) -> dict:
    """Pack spans of one worker onto minimal track lanes (tids).

    Spans do not carry thread ids, so concurrent spans of one worker are
    disambiguated by overlap: a child span shares its parent's lane
    (Chrome-trace nesting needs one tid per stack), and every other span
    takes the lowest lane that is free at its start time.
    """
    by_id = {sp.span_id: sp for sp in spans if sp.span_id}
    tids: dict = {}
    busy_until: dict = {}          # (worker, tid) -> t_stop
    for sp in sorted(spans, key=lambda s: (s.t_start, s.t_stop, s.seq)):
        parent = by_id.get(sp.parent_id) if sp.parent_id else None
        if parent is not None and id(parent) in tids \
                and parent.worker == sp.worker:
            tid = tids[id(parent)]
        else:
            tid = 1
            while busy_until.get((sp.worker, tid), -1.0) > sp.t_start \
                    + 1e-9:
                tid += 1
        busy_until[(sp.worker, tid)] = max(
            busy_until.get((sp.worker, tid), -1.0), sp.t_stop)
        tids[id(sp)] = tid
    return tids


def to_chrome_trace(spans, kernel_spans=None) -> dict:
    """Build a Chrome trace-event JSON object from spans.

    Nested spans become stacked "X" (complete) slices; zero-duration
    spans become instant events.  Timestamps are microseconds relative
    to the earliest span, which keeps the numbers small and Perfetto's
    timeline anchored at zero.
    """
    spans = list(spans) + list(kernel_spans or [])
    if not spans:
        raise ConfigurationError("no spans recorded; run under tracing()")
    origin = min(sp.t_start for sp in spans)
    pids = _worker_pids(spans)
    tids = _thread_tids(spans)

    events = []
    for worker, pid in pids.items():
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": worker}})
        events.append({"ph": "M", "name": "process_sort_index", "pid": pid,
                       "tid": 0, "args": {"sort_index": pid}})

    for sp in spans:
        pid = pids[sp.worker]
        tid = tids[id(sp)]
        args = {"flops": int(sp.flops),
                "bytes_moved": int(sp.bytes_moved)}
        args.update(sp.attrs)
        common = {"name": sp.name, "cat": sp.category or "span",
                  "pid": pid, "tid": tid,
                  "ts": (sp.t_start - origin) * 1e6, "args": args}
        if sp.seconds <= 0.0:
            events.append({**common, "ph": "i", "s": "t"})
        else:
            events.append({**common, "ph": "X",
                           "dur": sp.seconds * 1e6})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"exporter": "repro.observability"}}


def write_chrome_trace(spans, path, kernel_spans=None) -> dict:
    """Export spans to a Perfetto-loadable JSON file (validated)."""
    trace = to_chrome_trace(spans, kernel_spans=kernel_spans)
    validate_chrome_trace(trace)
    with open(path, "w") as fh:
        json.dump(trace, fh)
    return trace


_REQUIRED = {"X": ("name", "ts", "dur", "pid", "tid"),
             "i": ("name", "ts", "pid", "tid"),
             "M": ("name", "pid")}


def validate_chrome_trace(trace) -> int:
    """Schema-check a Chrome trace-event JSON object.

    Verifies the structural invariants Perfetto's JSON importer relies
    on (an event array, known phase tags, required per-phase fields,
    finite non-negative timestamps).  Returns the number of slice
    ("X") events; raises :class:`ConfigurationError` on any violation.
    """
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise ConfigurationError(
            "not a Chrome trace: missing 'traceEvents'")
    events = trace["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ConfigurationError("'traceEvents' must be a non-empty list")
    slices = 0
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ConfigurationError(f"event {i} is not an object")
        ph = ev.get("ph")
        if ph not in _REQUIRED:
            raise ConfigurationError(
                f"event {i} has unsupported phase {ph!r}")
        for key in _REQUIRED[ph]:
            if key not in ev:
                raise ConfigurationError(
                    f"event {i} (ph={ph}) is missing {key!r}")
        if ph == "X":
            slices += 1
            if not (ev["ts"] >= 0.0 and ev["dur"] >= 0.0):
                raise ConfigurationError(
                    f"event {i} has negative ts/dur")
    if slices == 0:
        raise ConfigurationError("trace holds no slice ('X') events")
    return slices
