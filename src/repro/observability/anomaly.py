"""Online anomaly detection over the live telemetry stream.

Detectors consume the :class:`~repro.observability.live.LiveAggregator`
rolling view after every bus drain and emit typed :class:`Alert`
records with severity and evidence.  Each detector deduplicates on a
subject key and re-alerts only when severity escalates, so a persistent
condition produces one warning (and at most one critical), not a flood.

The built-in set covers the failure modes the paper's scaling runs care
about: stragglers (per-node latency vs. the fleet), byte/flop drift
(measured kernel traffic vs. the exact
:mod:`repro.perfmodel.costmodel` predictions, reusing
:func:`~repro.perfmodel.roofline.byte_drift`), result-store hit-rate
collapse, and checkpoint-interval overrun.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.perfmodel.roofline import byte_drift

#: ordered severities (index = rank, used for escalation)
SEVERITIES = ("info", "warning", "critical")


@dataclass
class Alert:
    """One detected anomaly, with enough evidence to act on."""

    kind: str
    severity: str
    message: str
    node: str = ""
    t: float = 0.0
    evidence: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")
        if not self.t:
            self.t = time.time()

    @property
    def rank(self) -> int:
        return SEVERITIES.index(self.severity)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "severity": self.severity,
                "message": self.message, "node": self.node,
                "t": self.t, "evidence": dict(self.evidence)}

    @classmethod
    def from_dict(cls, data: dict) -> "Alert":
        return cls(kind=data["kind"], severity=data["severity"],
                   message=data.get("message", ""),
                   node=data.get("node", ""), t=data.get("t", 0.0),
                   evidence=dict(data.get("evidence", {})))


class Detector:
    """Base class: subject-keyed dedup with severity escalation."""

    kind = "anomaly"

    def __init__(self):
        self._raised: dict = {}

    def _emit(self, subject: str, alert: Alert):
        """Return ``alert`` if it is new (or escalates) for ``subject``,
        else ``None``."""
        previous = self._raised.get(subject)
        if previous is not None and alert.rank <= previous:
            return None
        self._raised[subject] = alert.rank
        return alert

    def update(self, aggregator) -> list:
        """Inspect the rolling view; return fresh :class:`Alert`\\ s."""
        raise NotImplementedError


class StragglerDetector(Detector):
    """A node whose task latency exceeds the rest of the fleet.

    A node whose mean (windowed) latency exceeds the mean of the *other*
    nodes by ``ratio`` is a straggler.
    """

    kind = "straggler"

    def __init__(self, ratio: float = 1.8, critical_ratio: float = 4.0,
                 min_tasks: int = 2):
        super().__init__()
        self.ratio = float(ratio)
        self.critical_ratio = float(critical_ratio)
        self.min_tasks = int(min_tasks)

    def update(self, aggregator) -> list:
        nodes = [n for n in aggregator.nodes.values()
                 if n.latencies and n.worker != "monitor"]
        if len(nodes) < 2:
            return []
        alerts = []
        for node in nodes:
            if node.tasks_done < self.min_tasks:
                continue
            others = [o.mean_latency() for o in nodes if o is not node
                      and o.latencies]
            if not others:
                continue
            fleet = sum(others) / len(others)
            mine = node.mean_latency()
            if fleet <= 0.0 or mine <= 0.0:
                continue
            latency_ratio = mine / fleet
            if latency_ratio < self.ratio:
                continue
            severity = "critical" if latency_ratio >= self.critical_ratio \
                else "warning"
            alert = self._emit(node.worker, Alert(
                kind=self.kind, severity=severity, node=node.worker,
                message=(f"node {node.worker} is {latency_ratio:.1f}x "
                         f"slower than the fleet"),
                evidence={"latency_ratio": latency_ratio,
                          "node_mean_s": mine, "fleet_mean_s": fleet,
                          "tasks_done": node.tasks_done}))
            if alert is not None:
                alerts.append(alert)
        return alerts


class ByteDriftDetector(Detector):
    """Measured stage bytes drifting from the exact byte model.

    Cumulative per-stage ``priced_bytes`` vs. ``predicted_bytes`` (the
    two byte-model columns of the aggregator's ``stage_totals``) through
    :func:`~repro.perfmodel.roofline.byte_drift` — the data-centric
    health signal: silently-introduced extra copies show up here first.
    """

    kind = "byte-drift"

    def __init__(self, tolerance: float = 0.05,
                 critical_tolerance: float = 0.5,
                 min_bytes: int = 1024):
        super().__init__()
        self.tolerance = float(tolerance)
        self.critical_tolerance = float(critical_tolerance)
        self.min_bytes = int(min_bytes)

    def update(self, aggregator) -> list:
        alerts = []
        for stage, row in aggregator.stage_totals.items():
            if row["priced_bytes"] < self.min_bytes:
                continue
            verdict = byte_drift(row["priced_bytes"],
                                 row["predicted_bytes"], self.tolerance)
            if not verdict["drifting"]:
                continue
            deviation = abs(verdict["ratio"] - 1.0)
            severity = "critical" \
                if deviation > self.critical_tolerance else "warning"
            alert = self._emit(stage, Alert(
                kind=self.kind, severity=severity,
                message=(f"stage {stage} moved "
                         f"{verdict['ratio']:.2f}x the modelled bytes"),
                evidence={"stage": stage, **verdict}))
            if alert is not None:
                alerts.append(alert)
        return alerts


class StoreHitRateDetector(Detector):
    """Result-store hit rate collapsing mid-run.

    Tracks the windowed hit rate between polls; once the store has
    proven useful (peak windowed rate above ``min_peak``), a window
    whose rate falls below ``collapse_fraction`` of that peak is a
    collapse — e.g. an evicting store or a key-schema mismatch after a
    config change.  A store that was never warm stays silent.
    """

    kind = "store-hit-rate"

    def __init__(self, min_peak: float = 0.5,
                 collapse_fraction: float = 0.5,
                 min_window_lookups: int = 4):
        super().__init__()
        self.min_peak = float(min_peak)
        self.collapse_fraction = float(collapse_fraction)
        self.min_window_lookups = int(min_window_lookups)
        self._last = (0, 0)
        self._peak = 0.0

    def update(self, aggregator) -> list:
        hits = aggregator.counter_value("result_store_hits")
        misses = aggregator.counter_value("result_store_misses")
        lookups = hits + misses
        last_hits, last_lookups = self._last
        window = lookups - last_lookups
        if window < self.min_window_lookups:
            return []
        rate = (hits - last_hits) / window
        self._last = (hits, lookups)
        if rate > self._peak:
            self._peak = rate
            return []
        if self._peak < self.min_peak \
                or rate >= self.collapse_fraction * self._peak:
            return []
        alert = self._emit("store", Alert(
            kind=self.kind, severity="warning",
            message=(f"result-store hit rate collapsed to {rate:.0%} "
                     f"(peak {self._peak:.0%})"),
            evidence={"window_rate": rate, "peak_rate": self._peak,
                      "window_lookups": window, "hits": hits,
                      "misses": misses}))
        return [alert] if alert is not None else []


class CheckpointOverrunDetector(Detector):
    """Time since the last checkpoint exceeding the configured interval.

    Disabled unless an ``interval_s`` is configured (checkpointing is
    optional); ``overrun_factor`` gives the run headroom before the
    first warning.  Uses stream timestamps, so replay reproduces the
    verdicts.
    """

    kind = "checkpoint-overrun"

    def __init__(self, interval_s: float | None = None,
                 overrun_factor: float = 2.0):
        super().__init__()
        self.interval_s = None if interval_s is None else float(interval_s)
        self.overrun_factor = float(overrun_factor)

    def update(self, aggregator) -> list:
        if self.interval_s is None or aggregator.t_last is None:
            return []
        marks = aggregator.checkpoint_marks
        last = marks[-1] if marks else aggregator.t_first
        overdue = aggregator.t_last - last
        budget = self.overrun_factor * self.interval_s
        if overdue <= budget:
            return []
        alert = self._emit(f"overrun-{len(marks)}", Alert(
            kind=self.kind, severity="warning",
            message=(f"{overdue:.1f}s since last checkpoint "
                     f"(interval {self.interval_s:.1f}s)"),
            evidence={"overdue_s": overdue,
                      "interval_s": self.interval_s,
                      "checkpoints_seen": len(marks)}))
        return [alert] if alert is not None else []


def default_detectors(checkpoint_interval_s: float | None = None) -> list:
    """The standard detector battery for a live run."""
    return [StragglerDetector(), ByteDriftDetector(), StoreHitRateDetector(),
            CheckpointOverrunDetector(interval_s=checkpoint_interval_s)]
