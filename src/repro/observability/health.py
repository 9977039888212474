"""Declarative SLO rules evaluated continuously over the live view.

Where :mod:`repro.observability.anomaly` spots *events* (a straggler, a
drifting stage), this module answers "is the run healthy *right now*?"
against user-declared objectives.  Each :class:`SLORule` names a
measurable (utilization, p95 task latency, wasted-flop fraction, alert
count), a comparison, and a threshold; :class:`HealthMonitor` evaluates
the whole rule set against a
:class:`~repro.observability.live.LiveAggregator` and returns
:class:`SLOStatus` verdicts the dashboard and CI render.

Rules read the aggregator's own view: its ``stage_totals`` table for
useful flops, the cumulative metrics snapshots for wasted ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.errors import ConfigurationError

#: supported rule kinds and the direction of "healthy"
RULE_KINDS = {
    "utilization_floor": ">=",
    "p95_task_latency": "<=",
    "wasted_flop_budget": "<=",
    "alert_ceiling": "<=",
}


@dataclass
class SLORule:
    """One objective: measure ``kind``, require it ``op`` ``threshold``."""

    name: str
    kind: str
    threshold: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ConfigurationError(
                f"unknown SLO rule kind {self.kind!r}; "
                f"known: {sorted(RULE_KINDS)}")

    @property
    def op(self) -> str:
        return RULE_KINDS[self.kind]


@dataclass
class SLOStatus:
    """The verdict for one rule at one evaluation instant."""

    name: str
    kind: str
    ok: bool
    value: float | None
    threshold: float
    op: str
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "ok": self.ok,
                "value": self.value, "threshold": self.threshold,
                "op": self.op, "detail": self.detail}


class HealthMonitor:
    """Evaluates a set of :class:`SLORule`\\ s against the rolling view."""

    def __init__(self, rules=None):
        self.rules = list(rules) if rules is not None else []

    @classmethod
    def default(cls) -> "HealthMonitor":
        """A permissive default rule set: flags only gross unhealth so
        ordinary smoke runs stay green."""
        return cls([
            SLORule("utilization", "utilization_floor", 0.05),
            SLORule("p95-latency", "p95_task_latency", 300.0),
            SLORule("wasted-flops", "wasted_flop_budget", 0.5),
            SLORule("critical-alerts", "alert_ceiling", 0.0,
                    params={"severity": "critical"}),
        ])

    # -- measurements -------------------------------------------------------

    def _measure(self, rule: SLORule, aggregator):
        if rule.kind == "utilization_floor":
            return aggregator.utilization(), ""
        if rule.kind == "p95_task_latency":
            q = float(rule.params.get("q", 0.95))
            value = aggregator.latency_quantile(q)
            return value, f"q={q:g} over {len(aggregator.all_latencies)}"
        if rule.kind == "wasted_flop_budget":
            wasted = aggregator.counter_value("wasted_flops")
            # every stage span that closed, so a stage a failed attempt
            # got through before it died is in both terms
            useful = sum(row["flops"]
                         for row in aggregator.stage_totals.values())
            total = wasted + useful
            if total <= 0:
                return None, "no flops recorded yet"
            return wasted / total, f"wasted={wasted} useful={useful}"
        if rule.kind == "alert_ceiling":
            severity = rule.params.get("severity")
            kind = rule.params.get("alert_kind")
            count = 0
            for alert in aggregator.alerts:
                if severity and alert.get("severity") != severity:
                    continue
                if kind and alert.get("kind") != kind:
                    continue
                count += 1
            scope = severity or "any"
            return float(count), f"severity={scope}"
        raise ConfigurationError(f"unknown SLO rule kind {rule.kind!r}")

    def evaluate(self, aggregator) -> list:
        """Return an :class:`SLOStatus` per rule.  A rule whose
        measurable has no data yet passes vacuously (``value=None``)."""
        statuses = []
        for rule in self.rules:
            value, detail = self._measure(rule, aggregator)
            if value is None:
                ok = True
            elif rule.op == ">=":
                ok = value >= rule.threshold
            else:
                ok = value <= rule.threshold
            statuses.append(SLOStatus(
                name=rule.name, kind=rule.kind, ok=ok, value=value,
                threshold=rule.threshold, op=rule.op, detail=detail))
        return statuses

    def healthy(self, aggregator) -> bool:
        return all(s.ok for s in self.evaluate(aggregator))
