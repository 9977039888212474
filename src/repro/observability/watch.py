"""``python -m repro watch spans.jsonl``: the report of a running trace.

Tails the span log a ``trace --jsonl`` run is writing and, at most every
``interval`` seconds, re-prints :func:`~repro.observability.report.
run_report` over the spans closed so far, until the log stays idle for
``idle_timeout`` seconds.  Over a finished log it prints the report
once.  Plain text, so CI runs it headless.
"""

from __future__ import annotations

import sys
import time

from repro.observability.export import follow_spans_jsonl
from repro.observability.report import run_report


def watch(path, interval: float = 0.5, idle_timeout: float = 5.0,
          out=None, clear: bool = True) -> list:
    """Follow ``path`` until it goes idle; returns the spans read."""
    out = out if out is not None else sys.stdout
    spans: list = []
    shown, last = 0, time.monotonic()

    def refresh():
        if clear:
            out.write("\x1b[2J\x1b[H")
        out.write(f"{len(spans)} spans from {path}\n"
                  f"{run_report(spans, memory=True)}\n")
        out.flush()

    for sp in follow_spans_jsonl(path, idle_timeout=idle_timeout):
        spans.append(sp)
        if time.monotonic() - last >= interval:
            refresh()
            shown, last = len(spans), time.monotonic()
    if spans and len(spans) != shown:
        refresh()
    return spans
