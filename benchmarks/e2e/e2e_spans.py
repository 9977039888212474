"""Benchmark-owned spans around the calls into each layer.

The traced child opens one span around the public call under test and one
around every layer probe.  Spans live in memory and are written as JSON
lines when the child is done, so recording them costs two clock reads per
span while the measurement runs.  Spans inside the program itself are the
program's own business (``repro.observability``); this file never touches
them.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class SpanLog:
    """Spans of one traced run: name, start, end, parent, run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._open: list = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "run_id": self.run_id,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_seconds(self) -> dict:
        """Self time per span id: duration minus what child spans cover.

        Spans open and close on one thread in stack order, so the children
        of a span never overlap and their cover is the sum of their
        durations.
        """
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def write(self, path) -> None:
        own = self.self_seconds()
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(s, self_s=own[s["id"]])) + "\n")
