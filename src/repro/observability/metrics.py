"""Thread-safe metrics registry: counters, gauges, histograms.

The run-wide quantitative side of the observability layer (the span
tracer is the temporal side): FEAST iteration counts, retry counts,
batch-bucket widths, cache hit rates — anything countable — lives in a
:class:`MetricsRegistry`.  Registries are plain data underneath: they
``snapshot()`` to a JSON-serializable dict (what the checkpoint layer
persists) and ``merge()`` across runners without ever sharing a lock,
so production runs with several :class:`~repro.runtime.RunTelemetry`
instances report one coherent total.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left

from repro.utils.errors import ConfigurationError


class Counter:
    """Monotonic sum.  Integer increments keep the value an exact int."""

    kind = "counter"

    def __init__(self, lock):
        self.value = 0
        self._lock = lock

    def inc(self, amount=1):
        with self._lock:
            self.value += amount

    def snapshot(self) -> dict:
        with self._lock:
            return {"kind": self.kind, "value": self.value}

    def merge_snapshot(self, snap: dict) -> None:
        self.inc(snap["value"])


class Gauge:
    """Last-written value (e.g. the resolved energy batch size)."""

    kind = "gauge"

    def __init__(self, lock):
        self.value = None
        self._lock = lock

    def set(self, value):
        with self._lock:
            self.value = value

    def snapshot(self) -> dict:
        with self._lock:
            return {"kind": self.kind, "value": self.value}

    def merge_snapshot(self, snap: dict) -> None:
        if snap.get("value") is not None:
            self.set(snap["value"])


#: default histogram bucket bounds: three log-spaced buckets per decade
#: over 1e-9 .. 1e9 — wide enough for latencies in seconds, iteration
#: counts, and byte volumes alike (values outside land in the two
#: open-ended edge buckets)
DEFAULT_BOUNDS = tuple(10.0 ** (k / 3.0) for k in range(-27, 28))


class Histogram:
    """Streaming count/sum/min/max plus fixed log-spaced bucket counts.

    Bucket counts are exact integers, so merging histograms across
    runners (or worker processes) loses no observation; they also make
    :meth:`quantile` answerable without keeping the observations.
    """

    kind = "histogram"

    def __init__(self, lock, bounds=None):
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self.bounds = tuple(float(b) for b in
                            (bounds if bounds is not None
                             else DEFAULT_BOUNDS))
        #: counts[i] observes values <= bounds[i]; the final slot is the
        #: +Inf overflow bucket
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self._lock = lock

    def observe(self, value):
        with self._lock:
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            self.bucket_counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self):
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def quantile(self, q: float):
        """Online quantile estimate from the bucket counts.

        Returns the upper bound of the bucket holding the ``q``-th
        observation, clamped to the observed ``[min, max]`` range (so
        p50 of identical values is that value, not a bucket edge).
        ``None`` when nothing was observed yet.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError("quantile q must be in [0, 1]")
        with self._lock:
            if self.count == 0:
                return None
            target = max(int(math.ceil(q * self.count)), 1)
            cum = 0
            for i, c in enumerate(self.bucket_counts):
                cum += c
                if cum >= target:
                    edge = self.bounds[i] if i < len(self.bounds) \
                        else self.max
                    return min(max(edge, self.min), self.max)
            return self.max

    def snapshot(self) -> dict:
        with self._lock:
            return {"kind": self.kind, "count": self.count,
                    "total": self.total, "min": self.min, "max": self.max,
                    "bounds": list(self.bounds),
                    "buckets": list(self.bucket_counts)}

    def merge_snapshot(self, snap: dict) -> None:
        with self._lock:
            self.count += snap["count"]
            self.total += snap["total"]
            for key, pick in (("min", min), ("max", max)):
                other = snap.get(key)
                if other is None:
                    continue
                ours = getattr(self, key)
                setattr(self, key,
                        other if ours is None else pick(ours, other))
            buckets = snap.get("buckets")
            bounds = snap.get("bounds")
            if buckets is not None and bounds is not None \
                    and tuple(float(b) for b in bounds) == self.bounds:
                for i, c in enumerate(buckets):
                    self.bucket_counts[i] += int(c)
            elif buckets is not None and bounds:
                # mismatched grids: re-bin each source bucket at its
                # upper bound (count/total stay exact; quantiles degrade
                # to the coarser of the two grids)
                for i, c in enumerate(buckets):
                    if not c:
                        continue
                    edge = bounds[i] if i < len(bounds) \
                        else snap.get("max", float("inf"))
                    self.bucket_counts[
                        bisect_left(self.bounds, edge)] += int(c)
            elif snap["count"]:
                # legacy bucket-less snapshot: spread at the mean
                mean = snap["total"] / snap["count"]
                self.bucket_counts[
                    bisect_left(self.bounds, mean)] += int(snap["count"])


class LabeledCounter:
    """A family of counters keyed by a string label.

    Backs keyed telemetry: ``failures_by_type`` and ``tasks_by_worker``
    are labeled counters, so a cross-runner merge adds label by label.
    """

    kind = "labeled_counter"

    def __init__(self, lock):
        self.values: dict = {}
        self._lock = lock

    def inc(self, label: str, amount=1):
        with self._lock:
            self.values[label] = self.values.get(label, 0) + amount

    def get(self, label: str):
        with self._lock:
            return self.values.get(label, 0)

    def as_dict(self) -> dict:
        with self._lock:
            return dict(self.values)

    def snapshot(self) -> dict:
        return {"kind": self.kind, "values": self.as_dict()}

    def merge_snapshot(self, snap: dict) -> None:
        for label, value in snap["values"].items():
            self.inc(label, value)


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Histogram,
                                    LabeledCounter)}


class MetricsRegistry:
    """Named metrics with get-or-create access and snapshot/merge.

    All accessors are thread-safe; each metric carries its own lock, so
    two registries never deadlock when merging into each other
    concurrently (merges read a snapshot of the source first).
    """

    def __init__(self):
        self._metrics: dict = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(threading.Lock())
            elif not isinstance(metric, cls):
                raise ConfigurationError(
                    f"metric {name!r} is a {metric.kind}, not a "
                    f"{cls.kind}")
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def labeled(self, name: str) -> LabeledCounter:
        return self._get(name, LabeledCounter)

    def names(self) -> list:
        with self._lock:
            return sorted(self._metrics)

    # -- snapshot / merge ---------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serializable state of every metric (checkpoint format)."""
        with self._lock:
            metrics = dict(self._metrics)
        return {name: m.snapshot() for name, m in sorted(metrics.items())}

    def merge_snapshot(self, snap: dict) -> None:
        """Fold a snapshot in: counters sum, labels union, gauges adopt."""
        for name, entry in snap.items():
            cls = _KINDS.get(entry.get("kind"))
            if cls is None:
                raise ConfigurationError(
                    f"unknown metric kind {entry.get('kind')!r} for "
                    f"{name!r}")
            self._get(name, cls).merge_snapshot(entry)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in via its snapshot (no shared locking)."""
        self.merge_snapshot(other.snapshot())

    @classmethod
    def from_snapshot(cls, snap: dict) -> "MetricsRegistry":
        reg = cls()
        reg.merge_snapshot(snap)
        return reg

    def as_rows(self) -> list:
        """Human-readable ``name  value`` rows for CLI reports."""
        rows = []
        for name, entry in self.snapshot().items():
            kind = entry["kind"]
            if kind == "counter" or kind == "gauge":
                rows.append(f"{name:<28s} {entry['value']}")
            elif kind == "histogram":
                if entry["count"]:
                    mean = entry["total"] / entry["count"]
                    rows.append(
                        f"{name:<28s} n={entry['count']} "
                        f"mean={mean:.4g} min={entry['min']:.4g} "
                        f"max={entry['max']:.4g}")
                else:
                    rows.append(f"{name:<28s} n=0")
            else:
                rows.append(f"{name:<28s} {entry['values']}")
        return rows


#: metric-name suffixes that carry measured wall time: they differ
#: between any two runs, so parity checks leave them out
TIME_METRIC_SUFFIXES = ("_time_s", "_seconds")

#: metric-name prefixes whose values depend on thread interleaving —
#: arena scratch-buffer reuse varies with which worker reaches the pool
#: first, so these gauges differ between any two runs
SCHEDULING_METRIC_PREFIXES = ("arena_",)


def comparable_telemetry(snapshot: dict) -> dict:
    """A metrics snapshot with run-to-run-noisy metrics removed.

    Two runs of the same inputs (say, with the span log on and off)
    must agree bit for bit in every deterministic metric; this filter
    drops only what differs between *any* two runs — measured wall
    times (``*_time_s``, ``*_seconds`` histograms) and the
    scheduling-dependent arena pool gauges (``arena_*``).  It never
    touches flop, byte, or count metrics.
    """
    return {name: entry for name, entry in snapshot.items()
            if not name.endswith(TIME_METRIC_SUFFIXES)
            and not name.startswith(SCHEDULING_METRIC_PREFIXES)}
