"""Structured stage-level traces for the transport pipeline.

Each (k, E) task runs through the fixed stage sequence ``PREPARE ->
OBC -> ASSEMBLE -> SOLVE -> ANALYZE`` (paper Fig. 6: the phases of one
energy point).  :func:`batch_stage_scope` wraps one stage execution -
for one task or for a whole energy batch - and captures

* wall time, and
* flops, by running the stage under a fresh probe
  :class:`repro.linalg.flops.FlopLedger` that is merged into whatever
  ledger was active when the stage started.

Because every kernel-recording call inside the stage lands in the probe
and the probe is merged verbatim into the parent, the sum of stage flop
and byte counts reconciles *exactly* with the surrounding ledger total.
:func:`batch_stage_scope` is the one writer of a stage's cost: the
:class:`StageTrace` rows and the ``category="stage"`` span it emits
carry the same ``name`` / ``seconds`` / ``flops`` / ``bytes_moved`` (and
the same optional ``predicted_bytes`` note), and every stage table is
:func:`repro.observability.report.phase_totals` over either.  Traces are
plain data; they also feed measured per-task costs to the dynamic load
balancer.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.linalg.flops import FlopLedger, current_ledger, ledger_scope
from repro.observability.spans import current_tracer

#: Canonical stage order of one (k, E) transport task.
STAGES = ("PREPARE", "OBC", "ASSEMBLE", "SOLVE", "ANALYZE")


@dataclass
class StageTrace:
    """One executed pipeline stage: name, wall time, flops, kernel
    traffic, diagnostics."""

    name: str
    seconds: float = 0.0
    flops: int = 0
    bytes_moved: int = 0
    meta: dict = field(default_factory=dict)

    def as_row(self) -> str:
        return (f"{self.name:<9s} {self.seconds * 1e3:9.3f} ms "
                f"{self.flops:>14,d} flop")


@dataclass
class TaskTrace:
    """All stage traces of one (k, E) task."""

    kpoint_index: int = -1
    energy_index: int = -1
    energy: float = 0.0
    stages: list = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return float(sum(s.seconds for s in self.stages))

    @property
    def total_flops(self) -> int:
        return int(sum(s.flops for s in self.stages))

    @property
    def total_bytes(self) -> int:
        return int(sum(s.bytes_moved for s in self.stages))

    def stage(self, name: str) -> StageTrace:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)

    def as_table(self) -> str:
        lines = [f"task (k={self.kpoint_index}, iE={self.energy_index}, "
                 f"E={self.energy:+.4f} eV)"]
        lines += ["  " + s.as_row() for s in self.stages]
        lines.append(f"  {'total':<9s} {self.total_seconds * 1e3:9.3f} ms "
                     f"{self.total_flops:>14,d} flop")
        return "\n".join(lines)


def apportion_exact(total: int, n: int) -> list:
    """Split integer ``total`` over ``n`` tasks as equally as integers
    allow (the first ``total % n`` get one more).

    The shares sum to ``total`` bit-for-bit, which is what keeps the
    flop counts of a stage that ran once for several tasks reconcilable
    with the surrounding ledger.
    """
    if n == 0:
        return []
    share, rest = divmod(int(total), n)
    return [share + 1] * rest + [share] * (n - rest)


@contextmanager
def batch_stage_scope(traces, name: str):
    """Run one stage once for one or several (k, E) tasks.

    The stage body executes a single time under one probe ledger; on
    exit, one :class:`StageTrace` per task is appended to each
    ``TaskTrace`` in ``traces``, with the wall time split equally and
    the flop and byte totals split into exact equal integer shares
    (:func:`apportion_exact`), so the sum of the per-task stage counts
    still reconciles with the surrounding ledger.  A stage whose cost
    differs from task to task (OBC) opens one scope per task instead.
    The probe inherits the parent's ``trace`` flag so per-kernel event
    streams (Fig. 12 activity) survive, and is merged into the parent on
    exit — success or failure — so resilience accounting of a failed
    attempt still sees the flops it burned.

    Yields the list of per-task :class:`StageTrace` objects so the body
    can attach ``meta`` entries (batch size, rhs width, ...).
    """
    parent = current_ledger()
    probe = FlopLedger(trace=parent.trace)
    sts = [StageTrace(name=name) for _ in traces]
    for tr, st in zip(traces, sts):
        tr.stages.append(st)
    t0 = time.perf_counter()
    try:
        with ledger_scope(probe):
            yield sts
    finally:
        parent.merge(probe)
        elapsed = time.perf_counter() - t0
        total_bytes = int(sum(probe.bytes_by_device.values()))
        flop_shares = apportion_exact(int(probe.total_flops), len(sts))
        byte_shares = apportion_exact(total_bytes, len(sts))
        for st, f, b in zip(sts, flop_shares, byte_shares):
            st.seconds = elapsed / len(sts)
            st.flops = f
            st.bytes_moved = b
        tracer = current_tracer()
        if tracer is not None and traces:
            attrs = {"kpoint": traces[0].kpoint_index,
                     "batch_size": len(sts),
                     "energy_indices": [tr.energy_index
                                        for tr in traces]}
            # model-predicted traffic, when the stage body priced it
            # (SOLVE attaches per-task byte-model counts) — the span then
            # carries measured and predicted bytes side by side for the
            # drift check.
            predicted = sum(int(st.meta.get("predicted_bytes", 0))
                            for st in sts)
            if predicted > 0:
                attrs["predicted_bytes"] = predicted
            tracer.emit(name, category="stage", t_start=t0,
                        seconds=elapsed, flops=int(probe.total_flops),
                        bytes_moved=total_bytes, attrs=attrs)


@contextmanager
def stage_scope(trace: TaskTrace, name: str):
    """Run one stage of one task: :func:`batch_stage_scope` over the one
    trace.  Yields the :class:`StageTrace` so the stage body can attach
    ``meta`` entries (e.g. the resolved solver name, SplitSolve phase
    times)."""
    with batch_stage_scope([trace], name) as (st,):
        yield st
