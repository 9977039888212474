"""Traced production demo: one observable end-to-end simulation.

Runs a laptop-scale version of the paper's production loop — a Si
nanowire, one (or two) bias points, the self-consistent
Schroedinger-Poisson iteration, the Landauer current — under an
installed :class:`~repro.observability.SpanTracer` and a flop ledger,
then exports and cross-checks every observability artifact:

* a Chrome-trace/Perfetto JSON with one track per simulated node (the
  Fig. 12 activity timeline of a real run),
* the JSONL span log, written span by span as the run goes, which
  ``python -m repro watch`` tails and ``python -m repro report``
  re-reads,
* the Fig. 6 phase report and roofline annotation derived from spans,
* the reconciliation check: the stage table folded from the spans must
  sum to the ledger total exactly, in flops and in bytes (the log ends
  with a ``ledger`` span carrying those totals, so ``report`` repeats
  the check offline).

The demo deliberately runs fault-free: failed resilient attempts would
emit stage spans whose flops never merge into the ledger, which would
(correctly) break the exact reconciliation this demo asserts.

It also runs with ``use_arena=True``: the transport pipelines run
under a workspace arena.  The arena never changes what the ledger
records (the same kernels run on the same
shapes), so the flop/byte reconciliation stays exact, and the
``memory``-category arena instants feed ``python -m repro report
--memory``.
"""

from __future__ import annotations

import numpy as np

from repro.basis import tight_binding_set
from repro.core.energygrid import lead_band_structure
from repro.core.production import run_production
from repro.hamiltonian import build_device
from repro.hardware.specs import TITAN
from repro.linalg import ledger_scope
from repro.observability.export import SpanLogWriter, write_chrome_trace
from repro.observability.report import (phase_totals, reconcile,
                                        roofline_annotate)
from repro.observability.spans import SpanTracer, tracing
from repro.parallel.executor import ThreadTaskRunner
from repro.runtime import ResilientTaskRunner
from repro.structure import silicon_nanowire
from repro.utils.errors import ConfigurationError


def traced_production_demo(num_nodes: int = 2, smoke: bool = False,
                           trace_path=None, jsonl_path=None,
                           energy_batch_size: int = 2,
                           backend: str = "thread",
                           result_store=None) -> dict:
    """Run the traced production loop and collect every report input.

    Parameters
    ----------
    num_nodes : simulated nodes behind the runner (one Perfetto track
        group each).
    smoke : shrink to one bias point and one SCF iteration (CI budget).
    trace_path, jsonl_path : optional export destinations; exports are
        skipped when omitted.  The span log at ``jsonl_path`` is
        written while the run executes, one line per span as it closes.
    energy_batch_size : energies per (k, E-batch) unit (> 0).
    backend : ``"thread"`` (the default: a fault-protected
        :class:`~repro.runtime.ResilientTaskRunner` over threads) or
        ``"process"`` (the same resilient wrapper around a
        :class:`~repro.parallel.ProcessTaskRunner` — the guarded tasks
        ship a picklable ``_retry_run`` descriptor, so retries execute
        worker-side with the identical policy).  Either way the same
        reconciliation must hold exactly.
    result_store : optional path or :class:`~repro.cache.ResultStore` —
        the persistent cross-run result cache.  A warm re-run merges
        cached (k, E) results bitwise-identically; hits solve nothing,
        so they contribute zero flops and the exact reconciliation still
        holds (it then covers only the freshly solved remainder).

    Returns a dict with the production ``result``, the ``tracer``, its
    ``spans``/``metrics``, the runner ``telemetry``, the span-derived
    ``totals``, the ``roofline`` annotation against the Titan K20X, the
    ``reconciliation`` verdict, and the export paths (or ``None``).
    """
    wire = silicon_nanowire(diameter_nm=1.0, length_cells=4)
    basis = tight_binding_set()
    lead = build_device(wire, basis, num_cells=4).lead
    _, bands = lead_band_structure(lead, 11)
    e_lo = float(bands.min())
    e_window = (e_lo + 0.1, e_lo + (0.6 if smoke else 1.0))

    bias_points = [0.05] if smoke else [0.05, 0.1]
    scf_kwargs = dict(max_iter=1 if smoke else 2)

    if backend == "process":
        from repro.parallel.process import ProcessTaskRunner
        runner = ResilientTaskRunner(
            ProcessTaskRunner(num_workers=num_nodes), max_retries=1)
    elif backend == "thread":
        runner = ResilientTaskRunner(
            ThreadTaskRunner(num_workers=num_nodes), max_retries=1)
    else:
        raise ConfigurationError(
            f"demo backend must be 'thread' or 'process', got {backend!r}")
    tracer = SpanTracer()
    writer = None
    if jsonl_path is not None:
        writer = tracer.on_close = SpanLogWriter(jsonl_path)
    try:
        with tracing(tracer):
            with ledger_scope() as ledger:
                result = run_production(
                    wire, basis, num_cells=4, bias_points=bias_points,
                    mu_source=e_lo + 0.3, e_window=e_window,
                    num_k=1, num_nodes=num_nodes,
                    scf_kwargs=scf_kwargs, task_runner=runner,
                    energy_batch_size=int(energy_batch_size),
                    use_arena=True, result_store=result_store)
            # the log's last span: the totals its stage table must match
            tracer.emit("ledger", category="ledger",
                        flops=ledger.total_flops,
                        bytes_moved=ledger.total_bytes)
    finally:
        if hasattr(runner, "close"):
            runner.close()
        if writer is not None:
            tracer.on_close = None
            writer.close()

    spans = tracer.records()
    totals = phase_totals(spans)
    check = reconcile(spans, ledger.total_flops, ledger.total_bytes)
    # A fully warm result-store run solves nothing: no phase carries
    # flops, and there is nothing to place on a roofline.
    roofline = roofline_annotate(totals, TITAN) \
        if any(e["flops"] > 0 for e in totals.values()) else {}

    out = {
        "result": result,
        "tracer": tracer,
        "spans": spans,
        "metrics": tracer.metrics,
        "telemetry": runner.telemetry,
        "totals": totals,
        "roofline": roofline,
        "reconciliation": check,
        "ledger_flops": int(ledger.total_flops),
        "ledger_bytes": int(ledger.total_bytes),
        "num_nodes": int(num_nodes),
        "trace_path": None,
        "jsonl_path": None if writer is None else str(jsonl_path),
        "jsonl_lines": None if writer is None else writer.lines,
    }
    if trace_path is not None:
        write_chrome_trace(spans, trace_path)
        out["trace_path"] = str(trace_path)
    return out


def worker_tracks(spans) -> list:
    """Sorted worker names that carry stage spans (one Perfetto track
    group each) — the acceptance check for "one track per node"."""
    return sorted({sp.worker for sp in spans if sp.category == "stage"})
