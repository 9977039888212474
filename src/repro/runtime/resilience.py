"""Resilient task execution: retry, backoff, timeout, quarantine.

:class:`ResilientTaskRunner` wraps any ``task_runner(tasks) -> list``
(``ThreadTaskRunner``, ``ProcessTaskRunner``, or plain sequential
execution) so that each (k, E) task survives transient failures: failed
attempts are retried with exponential backoff on a fresh simulated node,
permanently dead nodes are quarantined, and everything — retries,
timeouts, wasted flops — is accounted in :class:`RunTelemetry` alongside
the flop ledger, mirroring how OMEN's production runs log re-executed
energy points.

Failed attempts run under a scratch :class:`~repro.linalg.flops.FlopLedger`
that is merged into the active ledger only on success, so the flop
accounting of a faulty-but-protected run is *identical* to the fault-free
run, and the discarded work shows up as ``wasted_flops`` instead.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

from repro.linalg.flops import FlopLedger, current_ledger, ledger_scope
from repro.observability.metrics import MetricsRegistry
from repro.observability.spans import current_tracer
from repro.utils.errors import (ConfigurationError, NodeFailureError,
                                TaskExecutionError, TaskTimeoutError)


@dataclass(frozen=True)
class RetryPolicy:
    """Plain-data retry parameters that survive the pickle boundary.

    The worker-side twin of :class:`ResilientTaskRunner`'s settings:
    :func:`_retry_run` re-reads them inside the worker process, so the
    process backend gets the same per-task retry/backoff/timeout
    semantics the in-process closures provide.
    """

    max_retries: int = 3
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    backoff_cap_s: float = 1.0
    timeout_s: float | None = None
    retry_on: tuple = (Exception,)
    task_index: int = 0


def _retry_run(policy: RetryPolicy, descriptor):
    """Worker-side retry loop around one task descriptor.

    Module-level (pickled by reference): when
    :class:`ResilientTaskRunner` wraps a descriptor-shipping runner like
    :class:`~repro.parallel.process.ProcessTaskRunner`, the guarded task
    it builds carries ``TaskDescriptor(_retry_run, (policy, inner))`` —
    so retries execute *inside the worker*, next to the failure, instead
    of needing the un-picklable parent closure.

    Accounting mirrors the in-process path: each attempt runs under a
    probe ledger merged into the worker's task ledger only on success,
    so a retried-but-recovered unit ships home the same flop totals as
    a fault-free one.  Counters go to the running task's telemetry
    (:func:`~repro.parallel.serialization.task_telemetry`), which comes
    home whether or not the parent traces and is merged once into the
    runner telemetry — only the *extra* attempts are counted here,
    because the process runner already records one attempt per
    submitted task.  A :class:`~repro.utils.errors.ConfigurationError`
    is never retried.
    """
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
            last_exc = exc
            continue
        target.merge(probe)
        return out
    telemetry.record_giveup()
    raise TaskExecutionError(
        f"task {policy.task_index} failed after "
        f"{policy.max_retries + 1} worker-side attempts: {last_exc}",
        task_index=policy.task_index, node="",
        attempts=policy.max_retries + 1) from last_exc


class RunTelemetry:
    """Structured failure/retry accounting of one resilient runner.

    A *view* over a :class:`~repro.observability.MetricsRegistry`: every
    counter (attempts, retries, wasted flops, ...) lives in the
    registry, and the familiar attributes are read-through properties.
    The stage breakdown of a run is not here: it is
    :func:`~repro.observability.report.phase_totals` over the run's
    spans or ``TransportSpectrum.traces``.  That makes telemetry

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
    def node_deaths(self) -> int:
        return self.metrics.counter("node_deaths").value

    @property
    def wasted_flops(self) -> int:
        return self.metrics.counter("wasted_flops").value

    @property
    def wasted_time_s(self) -> float:
        return self.metrics.counter("wasted_time_s").value

    @property
    def straggler_delay_s(self) -> float:
        return self.metrics.counter("straggler_delay_s").value

    @property
    def failures_by_type(self) -> dict:
        return self.metrics.labeled("failures_by_type").as_dict()

    @property
    def quarantined_nodes(self) -> set:
        return set(self.metrics.labeled("quarantined_nodes").as_dict())

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
        if isinstance(exc, NodeFailureError):
            self.metrics.counter("node_deaths").inc()
            if exc.permanent:
                self.metrics.labeled("quarantined_nodes").inc(
                    str(exc.node))

    def record_success(self, delay_s: float) -> None:
        self.metrics.counter("straggler_delay_s").inc(float(delay_s))

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
            f"node deaths {self.node_deaths} "
            f"(quarantined: {sorted(self.quarantined_nodes) or '-'})",
            f"give-ups    {self.giveups}",
            f"wasted      {self.wasted_flops:.3g} flops, "
            f"{self.wasted_time_s:.3g} s "
            f"(+{self.straggler_delay_s:.3g} s straggling)",
        ]
        return "\n".join("  " + r for r in rows)


class ResilientTaskRunner:
    """Per-task retry + backoff + timeout around any task runner.

    Parameters
    ----------
    task_runner : callable or None
        The wrapped ``task_runner(tasks) -> list``; ``None`` executes
        sequentially in-process.
    max_retries : int
        Extra attempts after the first (so a task runs at most
        ``max_retries + 1`` times) before a
        :class:`~repro.utils.errors.TaskExecutionError` gives up.
    backoff_s, backoff_factor, backoff_cap_s :
        Exponential backoff between attempts of one task:
        ``min(backoff_s * backoff_factor**(attempt-1), backoff_cap_s)``
        seconds.  ``backoff_s=0`` (default) disables sleeping, which is
        what the simulated machine wants.
    timeout_s : float, optional
        Per-attempt wall-clock budget.  An attempt whose (real + injected
        straggler) time exceeds it is discarded and retried; threads
        cannot be interrupted, so the attempt runs to completion and its
        flops are charged to ``wasted_flops``.
    fault_injector : :class:`repro.runtime.faults.FaultInjector`, optional
        Injected faults are applied per attempt; retries of a task move
        it to the next simulated node, modelling rescheduling away from a
        dead host.  Refused around a
        :class:`~repro.parallel.process.ProcessTaskRunner`, which never
        calls the in-process closure that injects.

    Notes
    -----
    Retries re-execute the identical, side-effect-free task closure, so a
    protected run returns results bit-identical to a fault-free run —
    the property the determinism tests pin down.

    When a wrapped task carries a
    :class:`~repro.parallel.serialization.TaskDescriptor` (the process
    backend's shipping format), the guarded task gets one too:
    ``TaskDescriptor(_retry_run, (RetryPolicy(...), inner))``.  The
    retry loop then runs *inside the worker process* with the same
    policy, so ``ResilientTaskRunner(ProcessTaskRunner(...))`` composes
    and real worker exceptions are retried next to where they happened.
    Faults are injected on that backend only by the process runner's
    own ``fault_injector``, at dispatch, with no retry.
    """

    def __init__(self, task_runner=None, *, max_retries: int = 3,
                 backoff_s: float = 0.0, backoff_factor: float = 2.0,
                 backoff_cap_s: float = 1.0, timeout_s: float | None = None,
                 fault_injector=None, retry_on=(Exception,)):
        if max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if backoff_s < 0 or backoff_factor < 1 or backoff_cap_s < 0:
            raise ConfigurationError(
                "backoff_s/backoff_cap_s must be >= 0 and "
                "backoff_factor >= 1")
        if timeout_s is not None and timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive")
        if fault_injector is not None:
            from repro.parallel.process import ProcessTaskRunner
            if isinstance(task_runner, ProcessTaskRunner):
                raise ConfigurationError(
                    "ResilientTaskRunner cannot inject faults around a "
                    "ProcessTaskRunner: its tasks run worker-side, where "
                    "this injector never reaches.  Pass the injector as "
                    "ProcessTaskRunner(fault_injector=) instead; it "
                    "injects at dispatch, with no retry.")
        self.task_runner = task_runner
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)
        self.backoff_factor = float(backoff_factor)
        self.backoff_cap_s = float(backoff_cap_s)
        self.timeout_s = timeout_s
        self.fault_injector = fault_injector
        self.retry_on = retry_on
        # Share the wrapped runner's telemetry when it keeps one (the
        # process runner does): worker metrics merge into the inner
        # object, parent-side submissions record into this one — one
        # shared registry means one coherent report, no double count.
        inner = getattr(task_runner, "telemetry", None)
        self._shared_telemetry = isinstance(inner, RunTelemetry)
        self.telemetry = inner if self._shared_telemetry \
            else RunTelemetry()

    @property
    def num_workers(self) -> int:
        """Simulated node count behind the wrapped runner.

        Retries reschedule round-robin over this many nodes, so the
        fallback when the wrapped runner exposes no ``num_workers``
        matters: a fallback of 1 would land every retry back on the same
        simulated node, defeating the "retry on a fresh node" contract.
        The fallback therefore derives from the fault injector's node
        universe when one is known, and otherwise assumes
        ``max_retries + 1`` distinct nodes — enough for every attempt of
        a task to run on a fresh node — with an explicit warning.
        """
        n = getattr(self.task_runner, "num_workers", None)
        if n is not None:
            return int(n)
        if self.fault_injector is not None:
            universe = self.fault_injector.node_universe()
            if universe:
                return len(universe)
        fallback = self.max_retries + 1
        warnings.warn(
            f"wrapped task runner exposes no num_workers; assuming "
            f"{fallback} simulated node(s) so retries still move to "
            f"fresh nodes", RuntimeWarning, stacklevel=2)
        return fallback

    @property
    def task_times(self) -> list:
        """Per-task times of the wrapped runner, when it records them."""
        return getattr(self.task_runner, "task_times", [])

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

    # -- internals ----------------------------------------------------------

    def _backoff(self, attempt: int) -> None:
        if self.backoff_s <= 0:
            return
        time.sleep(min(self.backoff_s * self.backoff_factor
                       ** (attempt - 1), self.backoff_cap_s))

    def _make_resilient(self, index: int, task):
        def run():
            workers = max(self.num_workers, 1)
            last_exc = None
            node = f"node{index % workers}"
            for attempt in range(self.max_retries + 1):
                # reschedule retries onto the next node round-robin, so a
                # permanently dead node does not eat every attempt
                node = f"node{(index + attempt) % workers}"
                if attempt:
                    self._backoff(attempt)
                self.telemetry.record_attempt(retry=attempt > 0)
                target = current_ledger()
                probe = FlopLedger()
                t0 = time.perf_counter()
                delay = 0.0
                try:
                    if self.fault_injector is not None:
                        delay = self.fault_injector.inject(index, attempt,
                                                           node)
                    with ledger_scope(probe):
                        out = task()
                    elapsed = time.perf_counter() - t0 + delay
                    if self.timeout_s is not None \
                            and elapsed > self.timeout_s:
                        raise TaskTimeoutError(
                            f"task {index} attempt {attempt} took "
                            f"{elapsed:.3g} s (budget {self.timeout_s} s)",
                            elapsed_s=elapsed, timeout_s=self.timeout_s)
                except self.retry_on as exc:
                    if isinstance(exc, ConfigurationError):
                        raise  # a programming error is never transient
                    # wasted time includes the injected straggler delay:
                    # the timeout decision above is made on
                    # (real + delay), so the accounting must charge the
                    # same quantity or a timed-out attempt records less
                    # wasted time than the time that triggered it
                    self.telemetry.record_failure(
                        exc, probe.total_flops,
                        time.perf_counter() - t0 + delay)
                    tracer = current_tracer()
                    if tracer is not None:
                        tracer.instant(
                            "task-fault", category="fault", worker=node,
                            attrs={"task_index": index, "attempt": attempt,
                                   "error": type(exc).__name__})
                    last_exc = exc
                    continue
                target.merge(probe)
                self.telemetry.record_success(delay)
                return out
            self.telemetry.record_giveup()
            raise TaskExecutionError(
                f"task {index} failed after {self.max_retries + 1} "
                f"attempts (last on {node}): {last_exc}",
                task_index=index, node=node,
                attempts=self.max_retries + 1) from last_exc

        inner_desc = getattr(task, "descriptor", None)
        if inner_desc is not None:
            # descriptor-shipping runners (the process backend) cannot
            # pickle the closure above; give them a module-level retry
            # wrapper around the task's own descriptor instead, so the
            # retry loop runs worker-side with the same policy.
            from repro.parallel.serialization import TaskDescriptor
            if isinstance(inner_desc, TaskDescriptor):
                run.descriptor = TaskDescriptor(
                    fn=_retry_run,
                    args=(RetryPolicy(
                        max_retries=self.max_retries,
                        backoff_s=self.backoff_s,
                        backoff_factor=self.backoff_factor,
                        backoff_cap_s=self.backoff_cap_s,
                        timeout_s=self.timeout_s,
                        retry_on=tuple(self.retry_on),
                        task_index=index), inner_desc))
        return run

    def close(self) -> None:
        """Release the wrapped runner's resources (worker pools)."""
        close = getattr(self.task_runner, "close", None)
        if close is not None:
            close()
