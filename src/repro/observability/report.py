"""Span-derived run reports: phase breakdown, node activity, roofline.

Everything here consumes plain :class:`~repro.observability.spans.Span`
lists — live from a tracer or re-read from a JSONL export — and
produces the three views the paper tells its performance story with:

* :func:`phase_totals` / :func:`phase_report` — the Fig. 6 per-phase
  time/flop breakdown, derived from stage spans instead of the bespoke
  ``fig6_phases`` bookkeeping,
* :func:`node_activity` / :func:`activity_report` — the Fig. 12
  per-node activity timeline summary (busy seconds, flops, span),
* :func:`roofline_annotate` / :func:`roofline_report` — achieved vs.
  attainable GF/s per stage, joining span flops/bytes/seconds against
  :mod:`repro.perfmodel.roofline` and a device's peaks.

:func:`fold_stage` is the only code that adds a stage to a table: the
report over a finished span log, ``watch`` over a growing one and the
memory view all go through it, over the stage spans
:func:`~repro.pipeline.trace.stage_scope` emits.
:func:`reconcile` is the one check such a table can still fail: its
flop and byte totals against the surrounding ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.specs import GpuSpec, MachineSpec
from repro.perfmodel.roofline import RooflinePoint, byte_drift
from repro.utils.errors import ConfigurationError


def fold_stage(table: dict, name: str, seconds: float, flops: int,
               nbytes: int, predicted: int = 0) -> None:
    """Add one executed stage to ``table`` — the only code that does.

    A row is ``{"seconds", "flops", "bytes", "count", "predicted_bytes",
    "priced_bytes"}``.  A stage that carries a byte-model prediction
    also adds its measured bytes to ``priced_bytes``, so measured and
    predicted traffic are compared over the same stages.
    """
    row = table.setdefault(name, {"seconds": 0.0, "flops": 0, "bytes": 0,
                                  "count": 0, "predicted_bytes": 0,
                                  "priced_bytes": 0})
    row["seconds"] += float(seconds)
    row["flops"] += int(flops)
    row["bytes"] += int(nbytes)
    row["count"] += 1
    if predicted > 0:
        row["predicted_bytes"] += int(predicted)
        row["priced_bytes"] += int(nbytes)


def phase_totals(spans, category: str = "stage") -> dict:
    """:func:`fold_stage` over the spans of one category, by name.

    ``spans`` are :class:`~repro.observability.spans.Span` objects; the
    table is in first-seen order.  For ``category="stage"`` this is the
    Fig. 6 phase table; per-stage flops and bytes are exact integer sums
    of the stage probe ledgers, so they reconcile bit-for-bit with the
    surrounding :class:`~repro.linalg.flops.FlopLedger`.
    """
    out: dict = {}
    for sp in spans:
        if sp.category != category:
            continue
        fold_stage(out, sp.name, sp.seconds, sp.flops, sp.bytes_moved,
                   sp.attrs.get("predicted_bytes", 0))
    return out


def _fmt_ai(flops: int, nbytes: int) -> str:
    """Arithmetic-intensity cell: flop/B, or a dash without traffic."""
    if nbytes <= 0:
        return "     --"
    return f"{flops / nbytes:7.1f}"


def phase_report(totals: dict, title: str = "Phase breakdown "
                 "(span-derived, Fig. 6 view)") -> str:
    lines = [title]
    total_s = sum(e["seconds"] for e in totals.values()) or 1.0
    for name, e in totals.items():
        lines.append(f"  {name:<10s} {e['seconds'] * 1e3:10.2f} ms "
                     f"({e['seconds'] / total_s:6.1%})  "
                     f"{e['flops']:>16,d} flop  "
                     f"{e['bytes'] / 1e6:9.1f} MB  "
                     f"AI {_fmt_ai(e['flops'], e['bytes'])} flop/B  "
                     f"x{e['count']}")
    total_f = sum(e["flops"] for e in totals.values())
    total_b = sum(e["bytes"] for e in totals.values())
    lines.append(f"  {'total':<10s} {total_s * 1e3:10.2f} ms "
                 f"{'':>9s}{total_f:>16,d} flop  "
                 f"{total_b / 1e6:9.1f} MB  "
                 f"AI {_fmt_ai(total_f, total_b)} flop/B")
    return "\n".join(lines)


def node_activity(spans, category: str = "stage") -> dict:
    """Per-worker activity summary — the Fig. 12 timeline, tabulated.

    Returns ``{worker: {"busy_s", "span_s", "flops", "spans",
    "by_name"}}``; ``span_s`` is last-stop minus first-start on that
    worker, so ``busy_s / span_s`` is the track's utilization.
    """
    picked = [sp for sp in spans if sp.category == category]
    if not picked:
        raise ConfigurationError(
            f"no {category!r} spans recorded; run under tracing()")
    out: dict = {}
    for sp in picked:
        entry = out.setdefault(sp.worker, {
            "busy_s": 0.0, "flops": 0, "spans": 0, "by_name": {},
            "_t0": sp.t_start, "_t1": sp.t_stop})
        entry["busy_s"] += sp.seconds
        entry["flops"] += int(sp.flops)
        entry["spans"] += 1
        entry["by_name"][sp.name] = \
            entry["by_name"].get(sp.name, 0.0) + sp.seconds
        entry["_t0"] = min(entry["_t0"], sp.t_start)
        entry["_t1"] = max(entry["_t1"], sp.t_stop)
    for entry in out.values():
        entry["span_s"] = max(entry.pop("_t1") - entry.pop("_t0"), 0.0)
    return dict(sorted(out.items()))


def activity_report(activity: dict) -> str:
    lines = ["Per-node activity (span-derived, Fig. 12 view)"]
    for worker, e in activity.items():
        util = e["busy_s"] / e["span_s"] if e["span_s"] > 0 else 0.0
        names = ", ".join(f"{n}:{t * 1e3:.0f}ms"
                          for n, t in sorted(e["by_name"].items()))
        lines.append(f"  {worker:<8s} {e['busy_s'] * 1e3:9.1f} ms busy "
                     f"/ {e['span_s'] * 1e3:9.1f} ms span "
                     f"({util:5.1%})  {e['flops'] / 1e6:9.1f} MFLOP  "
                     f"[{names}]")
    return "\n".join(lines)


@dataclass
class RooflineStage:
    """One phase's measured rate joined against a device roofline."""

    name: str
    seconds: float
    point: RooflinePoint

    @property
    def achieved_gflops(self) -> float:
        if self.seconds <= 0.0:
            return 0.0
        return self.point.flops / self.seconds / 1e9

    @property
    def attainable_gflops(self) -> float:
        return self.point.attainable_flops / 1e9

    @property
    def efficiency(self) -> float:
        """Achieved / roofline-attainable (can exceed 1 when the real
        host outruns the simulated device's calibrated peak)."""
        att = self.point.attainable_flops
        return self.achieved_gflops * 1e9 / att if att > 0 else 0.0

    def row(self) -> str:
        kind = "compute" if self.point.compute_bound else "memory"
        return (f"{self.name:<10s} AI {self.point.arithmetic_intensity:8.1f}"
                f" flop/B ({kind}-bound)  achieved "
                f"{self.achieved_gflops:9.2f} GF/s  attainable "
                f"{self.attainable_gflops:9.1f} GF/s  "
                f"({self.efficiency:6.1%})")


def _as_gpu(device) -> GpuSpec:
    if isinstance(device, GpuSpec):
        return device
    if isinstance(device, MachineSpec):
        return device.node.gpu
    spec = getattr(device, "spec", None)      # SimulatedMachine
    if spec is not None:
        return spec.node.gpu
    raise ConfigurationError(
        "device must be a GpuSpec, MachineSpec, or SimulatedMachine")


def roofline_annotate(totals: dict, device) -> dict:
    """Join phase totals against a device roofline.

    ``totals`` is :func:`phase_totals` output; ``device`` is a
    :class:`GpuSpec`, :class:`MachineSpec`, or
    :class:`~repro.hardware.SimulatedMachine`.  Phases without flops
    are skipped (nothing to place on a roofline).
    """
    gpu = _as_gpu(device)
    peak = gpu.peak_dp_gflops * 1e9
    bw = gpu.bandwidth_gb_s * 1e9
    out = {}
    for name, e in totals.items():
        if e["flops"] <= 0:
            continue
        point = RooflinePoint(name=name, flops=int(e["flops"]),
                              bytes_moved=int(e["bytes"]),
                              device_peak_flops=peak,
                              device_bandwidth=bw)
        out[name] = RooflineStage(name=name, seconds=float(e["seconds"]),
                                  point=point)
    if not out:
        raise ConfigurationError("no phase carries flops to annotate")
    return out


def roofline_report(annotated: dict, device_name: str = "") -> str:
    lines = [f"Roofline annotation per stage"
             + (f" (vs {device_name})" if device_name else "")]
    lines += ["  " + stage.row() for stage in annotated.values()]
    return "\n".join(lines)


def reconcile(records, ledger_total_flops: int,
              ledger_total_bytes: int | None = None) -> dict:
    """Check the stage table of ``records`` against the ledger totals.

    Every stage view is :func:`phase_totals` over the spans
    :func:`~repro.pipeline.trace.stage_scope` emits, so the one
    way a stage table and the surrounding
    :class:`~repro.linalg.flops.FlopLedger` can still disagree is a
    kernel recorded outside every stage scope: it is in the ledger and
    in no stage.  Returns ``{"flops_exact", "bytes_exact", "span_flops",
    "ledger_flops", "span_bytes", "ledger_bytes"}``.
    """
    totals = phase_totals(records).values()
    span_flops = sum(e["flops"] for e in totals)
    span_bytes = sum(e["bytes"] for e in totals)
    return {"flops_exact": span_flops == int(ledger_total_flops),
            "bytes_exact": (ledger_total_bytes is None
                            or span_bytes == int(ledger_total_bytes)),
            "span_flops": span_flops,
            "ledger_flops": int(ledger_total_flops),
            "span_bytes": span_bytes,
            "ledger_bytes": (None if ledger_total_bytes is None
                             else int(ledger_total_bytes))}


def reconcile_report(check: dict) -> str:
    """One line: :func:`reconcile`'s verdict in flops and in bytes."""
    def verdict(kind):
        return (f"{kind} {'EXACT' if check[kind + '_exact'] else 'MISMATCH'}"
                f" ({check['span_' + kind]:,d} span == "
                f"{check['ledger_' + kind]:,d} ledger)")
    return f"reconciliation: {verdict('flops')}, {verdict('bytes')}"


def cache_totals(spans) -> dict:
    """Persistent-result-store view of a traced run.

    Aggregates the ``category="cache"`` instants the runner and the
    :class:`~repro.cache.ResultStore` emit: per-spectrum probe outcomes
    (hits/misses over the scheduled (k, E) points) and eviction sweeps.
    """
    probes = hits = misses = evictions = freed = 0
    for sp in spans:
        if sp.category != "cache":
            continue
        if sp.name == "result-store-probe":
            probes += 1
            hits += int(sp.attrs.get("hits", 0))
            misses += int(sp.attrs.get("misses", 0))
        elif sp.name == "result-store-evict":
            evictions += int(sp.attrs.get("removed", 0))
            freed += int(sp.attrs.get("freed_bytes", 0))
    total = hits + misses
    return {"probes": probes, "hits": hits, "misses": misses,
            "hit_rate": hits / total if total else 0.0,
            "evictions": evictions, "freed_bytes": freed}


def cache_report(spans) -> str:
    """Human-readable :func:`cache_totals`: store hit rates + evictions."""
    ct = cache_totals(spans)
    lines = ["Persistent result store (cross-run cache)"]
    if ct["probes"] == 0:
        lines.append("  not active (run with a result_store)")
        return "\n".join(lines)
    lines.append(
        f"  {ct['probes']} probe(s): {ct['hits']} hits / "
        f"{ct['misses']} misses  (hit rate {ct['hit_rate']:.1%})")
    if ct["evictions"]:
        lines.append(f"  {ct['evictions']} eviction(s), "
                     f"{ct['freed_bytes'] / 1e6:.1f} MB freed")
    return "\n".join(lines)


def memory_totals(spans, tolerance: float = 0.05) -> dict:
    """Memory-movement view of a traced run.

    Returns ``{"arena", "stages"}``: the latest workspace-arena counters
    (from the ``category="memory"`` instants the pipeline emits after
    each batch) and, per :func:`phase_totals` row that carries a
    byte-model prediction, a
    :func:`~repro.perfmodel.roofline.byte_drift` verdict of the traffic
    measured on the priced stages vs the prediction.
    """
    spans = list(spans)
    arena: dict = {}
    for sp in spans:
        # last instant wins: counters are cumulative over the workspace life
        if sp.category == "memory" and sp.name == "arena":
            arena = dict(sp.attrs)
    stages = {name: byte_drift(e["priced_bytes"], e["predicted_bytes"],
                               tolerance)
              for name, e in phase_totals(spans).items()
              if e["predicted_bytes"] > 0}
    return {"arena": arena, "stages": stages}


def memory_report(spans, tolerance: float = 0.05) -> str:
    """Human-readable :func:`memory_totals`: arena reuse + byte drift."""
    mt = memory_totals(spans, tolerance)
    lines = ["Memory movement (byte-aware dataflow view)"]
    arena = mt["arena"]
    if arena:
        lines.append(
            f"  arena {arena.get('name', '?')}: "
            f"{arena.get('reuses', 0)} reuses / "
            f"{arena.get('fresh', 0)} fresh / "
            f"{arena.get('escaped', 0)} escaped  "
            f"(reuse rate {float(arena.get('reuse_rate', 0.0)):.1%}, "
            f"{int(arena.get('bytes_pooled', 0)) / 1e6:.1f} MB pooled)")
    else:
        lines.append("  arena: not active (run with use_arena=True)")
    if mt["stages"]:
        for name, e in mt["stages"].items():
            flag = "DRIFT" if e["drifting"] else "ok"
            lines.append(
                f"  {name:<10s} measured {e['measured'] / 1e6:9.1f} MB  "
                f"predicted {e['predicted'] / 1e6:9.1f} MB  "
                f"ratio {e['ratio']:6.3f}  [{flag}]")
    else:
        lines.append("  no stage carried a byte-model prediction")
    return "\n".join(lines)


def run_report(spans, memory: bool = False) -> str:
    """The tables ``python -m repro report`` prints, and ``watch``
    re-prints on every refresh: phases, per-node activity (once a stage
    has closed), the result store (when it was probed), with ``memory``
    arena reuse and byte drift, and the :func:`reconcile` verdict
    against the run's ledger once a ``ledger`` span (its totals in
    ``flops`` / ``bytes_moved``) has closed the log."""
    spans = list(spans)
    parts = [phase_report(phase_totals(spans))]
    if any(sp.category == "stage" for sp in spans):
        parts.append(activity_report(node_activity(spans)))
    if cache_totals(spans)["probes"]:
        parts.append(cache_report(spans))
    if memory:
        parts.append(memory_report(spans))
    ledger = [sp for sp in spans if sp.category == "ledger"]
    if ledger:
        parts.append(reconcile_report(reconcile(
            spans, ledger[-1].flops, ledger[-1].bytes_moved)))
    return "\n\n".join(parts)
