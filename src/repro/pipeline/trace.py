"""The one record of a pipeline stage: its ``category="stage"`` span.

Each (k, E) task runs through the fixed stage sequence ``PREPARE ->
OBC -> ASSEMBLE -> SOLVE -> ANALYZE`` (paper Fig. 6: the phases of one
energy point).  :func:`stage_scope` wraps one stage execution - for one
energy or for a whole energy batch of a k-point - and, under a tracer,
emits one span carrying

* wall time, and
* flops and kernel bytes, by running the stage under a fresh probe
  :class:`repro.linalg.flops.FlopLedger` that is merged into whatever
  ledger was active when the stage started.

Because every kernel-recording call inside the stage lands in the probe
and the probe is merged verbatim into the parent, the sum of stage flop
and byte counts reconciles *exactly* with the surrounding ledger total,
and every stage table is
:func:`repro.observability.report.phase_totals` over the spans.  With
no tracer installed the scope is one :func:`current_tracer` read: no
probe, no span, and the stage's kernels record straight into the
active ledger.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.linalg.flops import FlopLedger, current_ledger, ledger_scope
from repro.observability.spans import current_tracer

#: Canonical stage order of one (k, E) transport task.
STAGES = ("PREPARE", "OBC", "ASSEMBLE", "SOLVE", "ANALYZE")


@contextmanager
def stage_scope(name: str, kpoint_index: int, energy_indices):
    """Run one stage once for the energies ``energy_indices`` of k-point
    ``kpoint_index``.

    Yields a notes dict the stage body may fill with diagnostics (the
    OBC method, the resolved solver, the rhs width, SplitSolve's phase
    times, a model-predicted ``predicted_bytes``, ...).  Under a tracer
    the body runs under one probe ledger, merged into the parent on
    exit — success or failure, so resilience accounting of a failed
    attempt still sees the flops it burned — and one
    ``category="stage"`` span records the stage's seconds, flops and
    bytes with ``kpoint``, ``batch_size`` and ``energy_indices`` and the
    notes as attributes.  The probe inherits the parent's ``trace`` flag
    so per-kernel event streams (Fig. 12 activity) survive.  Without a
    tracer the notes are thrown away.
    """
    tracer = current_tracer()
    if tracer is None:
        yield {}
        return
    parent = current_ledger()
    probe = FlopLedger(trace=parent.trace)
    notes: dict = {}
    t0 = time.perf_counter()
    try:
        with ledger_scope(probe):
            yield notes
    finally:
        parent.merge(probe)
        elapsed = time.perf_counter() - t0
        indices = [int(ie) for ie in energy_indices]
        attrs = {"kpoint": int(kpoint_index), "batch_size": len(indices),
                 "energy_indices": indices, **notes}
        tracer.emit(name, category="stage", t_start=t0, seconds=elapsed,
                    flops=int(probe.total_flops),
                    bytes_moved=int(sum(probe.bytes_by_device.values())),
                    attrs=attrs)
