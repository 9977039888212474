"""Resilient task execution: retry, backoff, timeout.

:class:`ResilientTaskRunner` wraps any ``task_runner(tasks) -> list``
(``ThreadTaskRunner``, ``ProcessTaskRunner``, or plain sequential
execution) so that each (k, E) task survives transient failures: a
failed attempt is retried with exponential backoff, and everything —
retries, timeouts, wasted flops — is accounted in :class:`RunTelemetry`
alongside the flop ledger, mirroring how OMEN's production runs log
re-executed energy points.

There is one retry loop, :func:`_retry_run`.  In process it runs around
the task closure; on the process backend it is the task's descriptor
and runs inside the worker, next to the failure.  Failed attempts run
under a scratch :class:`~repro.linalg.flops.FlopLedger` that is merged
into the active ledger only on success, so only successful attempts
reach the ledger and the discarded work shows up as ``wasted_flops``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.linalg.flops import (FlopLedger, current_device, current_ledger,
                                ledger_scope)
from repro.observability.metrics import MetricsRegistry
from repro.observability.spans import current_tracer
from repro.utils.errors import (ConfigurationError, TaskExecutionError,
                                TaskTimeoutError)


@dataclass(frozen=True)
class RetryPolicy:
    """Plain-data retry parameters that survive the pickle boundary.

    ``max_retries`` extra attempts after the first; between attempts of
    one task ``min(backoff_s * backoff_factor**(attempt-1),
    backoff_cap_s)`` seconds of backoff (``backoff_s=0``, the default,
    sleeps never); an attempt longer than ``timeout_s`` seconds of wall
    clock is discarded and retried (it cannot be interrupted, so it runs
    to completion and its flops are wasted); only ``retry_on``
    exceptions are retried.  ``task_index`` names the task in errors.
    """

    max_retries: int = 3
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    backoff_cap_s: float = 1.0
    timeout_s: float | None = None
    retry_on: tuple = (Exception,)
    task_index: int = 0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.backoff_s < 0 or self.backoff_factor < 1 \
                or self.backoff_cap_s < 0:
            raise ConfigurationError(
                "backoff_s/backoff_cap_s must be >= 0 and "
                "backoff_factor >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive")


def _retry_run(policy: RetryPolicy, descriptor, telemetry=None):
    """The retry loop around one task: ``descriptor.run()`` until it
    succeeds or ``policy.max_retries`` retries are spent.

    Module-level (pickled by reference): on the process backend the
    guarded task ships ``TaskDescriptor(_retry_run, (policy, inner))``
    and this loop runs inside the worker, counting into the running
    task's telemetry (:func:`~repro.parallel.serialization.
    task_telemetry`), which comes home with the result.  In process,
    :class:`ResilientTaskRunner` passes its own ``telemetry``.

    The dispatcher counts the first attempt; this loop counts the
    retries, failures, give-ups and the flops and seconds of failed
    attempts.  Each attempt runs under a probe ledger merged into the
    active ledger only on success.  A
    :class:`~repro.utils.errors.ConfigurationError` is never retried.
    """
    if telemetry is None:
        from repro.parallel.serialization import task_telemetry
        telemetry = RunTelemetry(task_telemetry())
    last_exc = None
    for attempt in range(policy.max_retries + 1):
        if attempt:
            if policy.backoff_s > 0:
                time.sleep(min(policy.backoff_s * policy.backoff_factor
                               ** (attempt - 1), policy.backoff_cap_s))
            telemetry.record_attempt(retry=True)
        target = current_ledger()
        probe = FlopLedger()
        t0 = time.perf_counter()
        try:
            with ledger_scope(probe):
                out = descriptor.run()
            elapsed = time.perf_counter() - t0
            if policy.timeout_s is not None and elapsed > policy.timeout_s:
                raise TaskTimeoutError(
                    f"task {policy.task_index} attempt {attempt} took "
                    f"{elapsed:.3g} s (budget {policy.timeout_s} s)",
                    elapsed_s=elapsed, timeout_s=policy.timeout_s)
        except policy.retry_on as exc:
            if isinstance(exc, ConfigurationError):
                raise  # a programming error is never transient
            telemetry.record_failure(exc, probe.total_flops,
                                     time.perf_counter() - t0)
            tracer = current_tracer()
            if tracer is not None:
                tracer.instant(
                    "task-fault", category="fault", worker=current_device(),
                    attrs={"task_index": policy.task_index,
                           "attempt": attempt,
                           "error": type(exc).__name__})
            last_exc = exc
            continue
        target.merge(probe)
        return out
    telemetry.record_giveup()
    node = current_device()
    raise TaskExecutionError(
        f"task {policy.task_index} failed after {policy.max_retries + 1} "
        f"attempts on {node}: {last_exc}",
        task_index=policy.task_index, node=node,
        attempts=policy.max_retries + 1) from last_exc


class RunTelemetry:
    """Structured failure/retry accounting of one resilient runner.

    A *view* over a :class:`~repro.observability.MetricsRegistry`: every
    counter (attempts, retries, wasted flops, ...) lives in the
    registry, and the familiar attributes are read-through properties.
    The stage breakdown of a run is not here: it is
    :func:`~repro.observability.report.phase_totals` over the run's
    stage spans.  That makes telemetry

    * **mergeable** — :meth:`merge` folds another runner's telemetry in
      without ever sharing a lock, so production runs with several
      :class:`ResilientTaskRunner` instances report one coherent total,
    * **persistable** — :meth:`snapshot` / :meth:`restore` round-trip
      through the checkpoint layer, so a restarted run's report covers
      the whole job rather than only the post-restart tail.
    """

    def __init__(self, metrics: MetricsRegistry | None = None):
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()

    # -- read-through views over the registry -------------------------------

    @property
    def tasks_submitted(self) -> int:
        return self.metrics.counter("tasks_submitted").value

    @property
    def attempts(self) -> int:
        return self.metrics.counter("attempts").value

    @property
    def retries(self) -> int:
        return self.metrics.counter("retries").value

    @property
    def giveups(self) -> int:
        return self.metrics.counter("giveups").value

    @property
    def timeouts(self) -> int:
        return self.metrics.counter("timeouts").value

    @property
    def wasted_flops(self) -> int:
        return self.metrics.counter("wasted_flops").value

    @property
    def wasted_time_s(self) -> float:
        return self.metrics.counter("wasted_time_s").value

    @property
    def failures_by_type(self) -> dict:
        return self.metrics.labeled("failures_by_type").as_dict()

    # -- recording ----------------------------------------------------------

    def record_submitted(self, num_tasks: int) -> None:
        self.metrics.counter("tasks_submitted").inc(int(num_tasks))

    def record_attempt(self, retry: bool) -> None:
        self.metrics.counter("attempts").inc()
        if retry:
            self.metrics.counter("retries").inc()

    def record_failure(self, exc: Exception, wasted_flops: int,
                       wasted_time_s: float) -> None:
        self.metrics.labeled("failures_by_type").inc(type(exc).__name__)
        self.metrics.counter("wasted_flops").inc(int(wasted_flops))
        self.metrics.counter("wasted_time_s").inc(float(wasted_time_s))
        if isinstance(exc, TaskTimeoutError):
            self.metrics.counter("timeouts").inc()

    def record_giveup(self) -> None:
        self.metrics.counter("giveups").inc()

    # -- aggregation / persistence ------------------------------------------

    def merge(self, other: "RunTelemetry") -> "RunTelemetry":
        """Fold another runner's telemetry in (lock-free across objects:
        the source is snapshotted first, then the snapshot is applied).
        Returns ``self`` so totals chain: ``a.merge(b).merge(c)``."""
        self.metrics.merge_snapshot(other.metrics.snapshot())
        return self

    def snapshot(self) -> dict:
        """JSON-serializable state (what the checkpoint layer persists)."""
        return self.metrics.snapshot()

    def restore(self, snap: dict | None) -> None:
        """Adopt a persisted snapshot (on checkpoint resume).

        Only a telemetry that has recorded nothing (no submission, no
        attempt) adopts it: a fresh runner resuming a job then reports
        the whole job, while the runner that wrote the checkpoint
        already holds what it says and would count itself twice.
        """
        if snap and not (self.tasks_submitted or self.attempts):
            self.metrics.merge_snapshot(snap)

    @classmethod
    def from_snapshot(cls, snap: dict) -> "RunTelemetry":
        """A telemetry view over a shipped metrics snapshot (the form a
        worker process sends home)."""
        return cls(MetricsRegistry.from_snapshot(snap))

    @property
    def total_failures(self) -> int:
        return sum(self.failures_by_type.values())

    def summary(self) -> str:
        rows = [
            f"tasks       {self.tasks_submitted}",
            f"attempts    {self.attempts}",
            f"retries     {self.retries}",
            f"failures    {self.total_failures} "
            f"{dict(self.failures_by_type)}",
            f"timeouts    {self.timeouts}",
            f"give-ups    {self.giveups}",
            f"wasted      {self.wasted_flops:.3g} flops, "
            f"{self.wasted_time_s:.3g} s",
        ]
        return "\n".join("  " + r for r in rows)


class ResilientTaskRunner:
    """Per-task retry + backoff + timeout around any task runner.

    Parameters
    ----------
    task_runner : callable or None
        The wrapped ``task_runner(tasks) -> list``; ``None`` executes
        sequentially in-process.
    max_retries, backoff_s, backoff_factor, backoff_cap_s, timeout_s, \
retry_on :
        The :class:`RetryPolicy` of every task: a task runs at most
        ``max_retries + 1`` times before a
        :class:`~repro.utils.errors.TaskExecutionError` gives up.

    Notes
    -----
    Retries re-execute the identical, side-effect-free task, so a
    protected run returns results bit-identical to a fault-free run —
    the property the determinism tests pin down.

    Both backends run the same loop, :func:`_retry_run`.  A task that
    carries a :class:`~repro.parallel.serialization.TaskDescriptor` (the
    process backend's shipping format) is guarded by one too,
    ``TaskDescriptor(_retry_run, (policy, inner))``, so on the process
    backend the loop runs inside the worker.  A worker that dies takes
    its loop with it: the death is surfaced as the process runner's
    :class:`~repro.utils.errors.TaskExecutionError`, not retried.
    """

    def __init__(self, task_runner=None, *, max_retries: int = 3,
                 backoff_s: float = 0.0, backoff_factor: float = 2.0,
                 backoff_cap_s: float = 1.0, timeout_s: float | None = None,
                 retry_on=(Exception,)):
        self.task_runner = task_runner
        self.policy = RetryPolicy(
            max_retries=int(max_retries), backoff_s=float(backoff_s),
            backoff_factor=float(backoff_factor),
            backoff_cap_s=float(backoff_cap_s), timeout_s=timeout_s,
            retry_on=retry_on)
        # Share the wrapped runner's telemetry when it keeps one (the
        # process runner does): worker metrics merge into the inner
        # object, parent-side submissions record into this one — one
        # shared registry means one coherent report, no double count.
        inner = getattr(task_runner, "telemetry", None)
        self._shared_telemetry = isinstance(inner, RunTelemetry)
        self.telemetry = inner if self._shared_telemetry \
            else RunTelemetry()

    def __call__(self, tasks) -> list:
        tasks = list(tasks)
        if not self._shared_telemetry:
            # a telemetry-keeping wrapped runner records its own
            # submissions into the shared registry; recording here too
            # would double count
            self.telemetry.record_submitted(len(tasks))
        guarded = [self._make_resilient(i, t) for i, t in enumerate(tasks)]
        if self.task_runner is None:
            return [g() for g in guarded]
        return self.task_runner(guarded)

    def _make_resilient(self, index: int, task):
        from repro.parallel.serialization import TaskDescriptor
        policy = replace(self.policy, task_index=index)

        def run():
            # the closure runs in process only, where it dispatches the
            # first attempt (a telemetry-keeping runner counts its own)
            self.telemetry.record_attempt(retry=False)
            return _retry_run(policy, TaskDescriptor(fn=task),
                              self.telemetry)

        inner = getattr(task, "descriptor", None)
        if isinstance(inner, TaskDescriptor):
            # descriptor-shipping runners (the process backend) cannot
            # pickle the closure above: ship the same loop around the
            # task's own descriptor, to run worker-side
            run.descriptor = TaskDescriptor(fn=_retry_run,
                                            args=(policy, inner))
        return run

    def close(self) -> None:
        """Release the wrapped runner's resources (worker pools)."""
        close = getattr(self.task_runner, "close", None)
        if close is not None:
            close()
