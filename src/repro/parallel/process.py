"""Multi-process task execution: real parallelism past the GIL.

:class:`ProcessTaskRunner` sits behind the same ``task_runner(tasks) ->
list`` interface as :class:`~repro.parallel.executor.ThreadTaskRunner`,
but executes each task in a worker *process*: tasks are shipped as
picklable :class:`~repro.parallel.serialization.TaskDescriptor` recipes
(closures stay home), and each completed task returns a
:class:`~repro.parallel.serialization.WorkerTaskResult` whose flop
ledger, metrics, and span tree are merged back into the parent — so a
multi-process run produces the *same* observability artifacts as a
threaded one, with per-node attribution intact.

Task ``i`` of a batch is labelled ``node{i % num_workers}``, the rule
the thread runner uses.  The label is a logical scheduling slot, not a
process identity: the pool hands each submitted task to whichever
worker process is free.
"""

from __future__ import annotations

import queue as queue_mod
import threading
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from multiprocessing import get_context

from repro.linalg.flops import current_ledger
from repro.observability.spans import current_tracer
from repro.parallel.serialization import (_init_worker_heartbeat,
                                          descriptor_of,
                                          execute_descriptor)
from repro.runtime.resilience import RunTelemetry
from repro.utils.errors import ConfigurationError, TaskExecutionError

#: ``multiprocessing`` start method of the worker pool (safe with a
#: threaded parent)
_START_METHOD = "spawn"


class ProcessTaskRunner:
    """Run task lists on ``num_workers`` worker processes.

    Parameters
    ----------
    num_workers : int
        Simulated nodes ``node{i}``, one OS process each.
    fault_injector : :class:`repro.runtime.faults.FaultInjector`, optional
        Injected per-attempt faults (attempt 0; no retries — the
        injector state lives in the parent, so injection happens at
        dispatch time).

    Notes
    -----
    The worker pool is created lazily on first use and kept alive across
    calls (an SCF loop dispatches hundreds of batches); call
    :meth:`close` — or use the runner as a context manager — to release
    the processes.  Results are bit-identical to the thread/serial
    backends because descriptors re-execute the same deterministic
    pipeline code on bitwise-identical inputs.
    """

    def __init__(self, num_workers: int, fault_injector=None):
        if num_workers < 1:
            raise ConfigurationError("num_workers must be >= 1")
        self.num_workers = num_workers
        self.fault_injector = fault_injector
        self.task_times: list = []
        #: merged per-worker telemetry (RunTelemetry view; the parent's
        #: ``compute_spectrum`` also folds task traces into it)
        self.telemetry = RunTelemetry()
        self._pool = None
        self._heartbeat_queue = None
        self._heartbeat_thread = None
        self._heartbeat_stop = None

    # -- lifecycle -----------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            ctx = get_context(_START_METHOD)
            initializer, initargs = None, ()
            tracer = current_tracer()
            if tracer is not None and tracer.publisher is not None:
                # Live telemetry is on: give every spawned worker the
                # heartbeat queue (shareable only via the pool
                # initializer — spawn-time inheritance, not submit
                # args) and forward its events onto the parent's bus.
                self._heartbeat_queue = ctx.Queue()
                initializer = _init_worker_heartbeat
                initargs = (self._heartbeat_queue,)
                self._start_heartbeat_drain(tracer.publisher.sink)
            self._pool = ProcessPoolExecutor(
                max_workers=self.num_workers, mp_context=ctx,
                initializer=initializer, initargs=initargs)
        return self._pool

    def _start_heartbeat_drain(self, sink) -> None:
        """Daemon thread pumping worker heartbeat events to ``sink``
        (the telemetry bus) — events arrive pre-stamped by the worker's
        publisher, so they are forwarded verbatim, never re-stamped."""
        self._heartbeat_stop = threading.Event()
        hb_queue, stop = self._heartbeat_queue, self._heartbeat_stop

        def _drain():
            while True:
                try:
                    event = hb_queue.get(timeout=0.05)
                except (queue_mod.Empty, OSError, EOFError):
                    if stop.is_set():
                        return
                    continue
                if event is None:
                    return
                sink(event)

        self._heartbeat_thread = threading.Thread(
            target=_drain, name="repro-heartbeat-drain", daemon=True)
        self._heartbeat_thread.start()

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if self._heartbeat_thread is not None:
            self._heartbeat_stop.set()
            self._heartbeat_thread.join(timeout=5.0)
            self._heartbeat_thread = None
            self._heartbeat_stop = None
        if self._heartbeat_queue is not None:
            self._heartbeat_queue.close()
            self._heartbeat_queue = None

    def __enter__(self) -> "ProcessTaskRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # best-effort; close() is the supported path
        try:
            self.close()
        except Exception:
            pass

    # -- execution ------------------------------------------------------------

    def __call__(self, tasks) -> list:
        tasks = list(tasks)
        parent_ledger = current_ledger()
        tracer = current_tracer()
        traced = tracer is not None
        times = [None] * len(tasks)
        results = [None] * len(tasks)
        self.telemetry.record_submitted(len(tasks))
        pool = self._ensure_pool()
        futures = []
        failure = None
        try:
            for idx, task in enumerate(tasks):
                node = f"node{idx % self.num_workers}"
                if self.fault_injector is not None:
                    try:
                        delay = self.fault_injector.inject(idx, 0, node)
                    except Exception as exc:
                        failure = TaskExecutionError(
                            f"task {idx} failed on {node}: {exc}",
                            task_index=idx, node=node)
                        failure.__cause__ = exc
                        break
                    if delay > 0.0 and traced:
                        tracer.instant(
                            "straggler-delay", category="fault",
                            worker=node,
                            attrs={"task_index": idx,
                                   "delay_s": float(delay),
                                   "slept": bool(self.fault_injector
                                                 .profile.real_sleep)})
                self.telemetry.record_attempt(retry=False)
                futures.append(pool.submit(
                    execute_descriptor, idx, node, traced,
                    descriptor_of(task)))
            if failure is None:
                failure = self._collect(futures, times, results,
                                        parent_ledger, tracer)
        finally:
            for f in futures:
                f.cancel()
            self.task_times = times
        if failure is not None:
            raise failure
        return results

    def _collect(self, futures, times, results, parent_ledger, tracer):
        """Drain futures, merging telemetry; returns the first failure.

        Worker-side task exceptions come back as data
        (:class:`WorkerFailure`), so every finished task's ledger and
        spans are merged *before* the abort decision — the wasted work
        of a failing batch is still accounted.  Future-level exceptions
        (unpicklable descriptor, dead worker) abort via
        ``FIRST_EXCEPTION`` without waiting for the rest.
        """
        done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
        failure = None
        for idx, future in enumerate(futures):
            if future not in done:
                continue
            infra = future.exception()
            if infra is not None:
                if failure is None:
                    failure = TaskExecutionError(
                        f"task {idx} could not be executed remotely "
                        f"({type(infra).__name__}: {infra}); "
                        f"process-backend tasks must carry a picklable "
                        f"TaskDescriptor or be module-level callables",
                        task_index=idx, node="")
                    failure.__cause__ = infra
                continue
            wr = future.result()
            times[idx] = wr.elapsed_s
            self._merge_worker_result(wr, parent_ledger, tracer)
            if wr.error is not None:
                if failure is None:
                    failure = TaskExecutionError(
                        f"task {idx} failed on {wr.node}: "
                        f"{wr.error.exc_type}: {wr.error.message}\n"
                        f"{wr.error.traceback_text}",
                        task_index=idx, node=wr.node)
                continue
            results[idx] = wr.value
        if failure is None and not_done:
            failure = TaskExecutionError(
                "process pool aborted before all tasks completed",
                task_index=-1, node="")
        return failure

    def _merge_worker_result(self, wr, parent_ledger, tracer) -> None:
        """Fold one worker's ledger, retry accounting, tracer metrics and
        spans into the parent: the accounting into the runner telemetry
        only, the tracer's metrics into the tracer's only."""
        if wr.ledger:
            parent_ledger.merge_snapshot(wr.ledger)
        if wr.telemetry:
            self.telemetry.metrics.merge_snapshot(wr.telemetry)
        self.telemetry.metrics.labeled("tasks_by_worker").inc(wr.node)
        if tracer is not None:
            if wr.metrics:
                tracer.metrics.merge_snapshot(wr.metrics)
            if wr.spans:
                tracer.absorb(wr.spans)
