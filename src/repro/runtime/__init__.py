"""Fault-tolerant execution runtime.

Two pieces, layered on top of :mod:`repro.parallel`:

1. :class:`ResilientTaskRunner` — per-task retry with exponential
   backoff and a wall-clock timeout, one :class:`RetryPolicy` and one
   retry loop on every backend, and :class:`RunTelemetry` (retries,
   give-ups, wasted flops) recorded next to the flop ledger,
2. :class:`CheckpointStore` — the atomic checkpoint file.  The result
   store resumes a spectrum; one ``"sweep"`` record in a checkpoint
   file resumes the SCF loop and the bias sweep, so a killed allocation
   resumes at the next SCF iteration of the bias point it was on.

Faults are real: a task that raises, overruns its timeout, or kills
its worker.  A protected run whose tasks fail transiently produces
results bit-identical to the fault-free run (retries re-execute
deterministic pure tasks), which is the invariant the regression tests
pin; a worker death is surfaced as a typed error, not retried.
"""

from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.resilience import (ResilientTaskRunner, RetryPolicy,
                                      RunTelemetry)

__all__ = [
    "CheckpointStore",
    "ResilientTaskRunner",
    "RetryPolicy",
    "RunTelemetry",
]
