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

Task ``i`` of a batch runs on worker process ``i % num_workers``, and is
labelled ``node{i % num_workers}`` as the thread runner labels it: the
label is the process, which meets the same units, and keeps their
boundaries, in every SCF iteration.  Each worker has one duplex pipe
and one task in flight; the task's spans reach the parent's tracer
(and its span log) with its result.
"""

from __future__ import annotations

import os
import pickle
import sys
import traceback
from multiprocessing import get_context
from multiprocessing.connection import wait

from repro.linalg.flops import current_ledger
from repro.observability.spans import current_tracer, install_tracer
from repro.parallel.serialization import (WorkerFailure, descriptor_of,
                                          execute_descriptor)
from repro.runtime.resilience import RunTelemetry
from repro.utils.errors import ConfigurationError, TaskExecutionError


def _start_method() -> str:
    """``fork`` on Linux from a one-thread parent (a forked threaded
    process can deadlock), else ``spawn``.  Threads are counted as the
    kernel and Python 3.12's fork warning count them: BLAS pools too."""
    if sys.platform.startswith("linux") \
            and len(os.listdir("/proc/self/task")) == 1:
        return "fork"
    return "spawn"


def _serve(conn, inherited) -> None:
    """Worker body: answer each task from ``conn`` with its
    :class:`WorkerTaskResult` (a bare :class:`WorkerFailure` when it
    cannot cross) until the parent hangs up.  A fork first drops what it
    inherited: the other pipe ends, the device cache, the tracer."""
    for other in inherited:
        other.close()
    runner = sys.modules.get("repro.core.runner")
    if runner is not None:
        runner._WORKER_CACHE.clear()
    install_tracer(None)
    while True:
        try:
            data = conn.recv_bytes()
        except EOFError:
            return
        if not data:                 # the parent's hang-up message
            return
        try:
            conn.send(execute_descriptor(*pickle.loads(data)))
        except Exception as exc:     # an import or a pickle failed here
            conn.send(WorkerFailure(exc_type=type(exc).__name__,
                                    message=str(exc),
                                    traceback_text=traceback.format_exc()))


def _unshippable(idx: int, exc_type: str, message) -> TaskExecutionError:
    return TaskExecutionError(
        f"task {idx} could not be executed remotely ({exc_type}: "
        f"{message}); process-backend tasks must carry a picklable "
        f"TaskDescriptor or be module-level callables",
        task_index=idx, node="")


class ProcessTaskRunner:
    """Run task lists on ``num_workers`` worker processes.

    Parameters
    ----------
    num_workers : int
        Simulated nodes ``node{i}``, one OS process each.

    Notes
    -----
    The workers are started on first use and kept alive across calls (an
    SCF loop dispatches hundreds of batches); call :meth:`close` — or use
    the runner as a context manager — to release the processes.  A call
    in which a worker died closes them all; the next call starts afresh.
    Results are bit-identical to the thread/serial backends because
    descriptors re-execute the same deterministic pipeline code on
    bitwise-identical inputs.
    """

    def __init__(self, num_workers: int):
        if num_workers < 1:
            raise ConfigurationError("num_workers must be >= 1")
        self.num_workers = num_workers
        #: merged per-worker telemetry (RunTelemetry view)
        self.telemetry = RunTelemetry()
        #: ``"fork"`` or ``"spawn"`` while the workers are up
        self.start_method = None
        self._conns: list = []
        self._procs: list = []

    # -- lifecycle -----------------------------------------------------------

    def _ensure_workers(self) -> None:
        """Start all workers together, before any thread of ours."""
        if self._procs:
            return
        self.start_method = _start_method()
        ctx = get_context(self.start_method)
        pipes = [ctx.Pipe() for _ in range(self.num_workers)]
        ends = [end for pipe in pipes for end in pipe]
        for w, (_, child) in enumerate(pipes):
            inherited = [end for end in ends if end is not child] \
                if self.start_method == "fork" else []
            proc = ctx.Process(target=_serve, name=f"repro-node{w}",
                               args=(child, inherited), daemon=True)
            proc.start()
            self._procs.append(proc)
        for parent, child in pipes:
            child.close()
            self._conns.append(parent)

    def close(self) -> None:
        """Hang up on the workers and reap them (idempotent)."""
        for conn in self._conns:
            try:   # heard even where another fork holds this end too
                conn.send_bytes(b"")
            except OSError:
                pass                 # that worker is gone already
            conn.close()
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():      # still inside a task: stop it
                proc.terminate()
                proc.join()
        self._conns, self._procs, self.start_method = [], [], None

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
        results = [None] * len(tasks)
        self.telemetry.record_submitted(len(tasks))
        for _ in tasks:   # the first attempts are dispatched here
            self.telemetry.record_attempt(retry=False)
        failures = self._run(tasks, results, parent_ledger, tracer) \
            if tasks else {}
        if failures:
            raise failures[min(failures)]
        return results

    def _run(self, tasks, results, parent_ledger, tracer) -> dict:
        """Feed worker ``w`` the tasks ``w, w + n, ...``, one in flight
        each, merging every reply; returns ``{task index: failure}``.

        Task exceptions come back as data, so every task runs and is
        merged before the abort decision: the wasted work of a failing
        batch is accounted.  A task that cannot be shipped, or a worker
        that dies (a sentinel fires), stops the dispatch; the tasks in
        flight are waited for.
        """
        self._ensure_workers()
        n, traced = self.num_workers, tracer is not None
        todo = [iter(range(w, len(tasks), n)) for w in range(n)]
        owner = {}
        for w, (conn, proc) in enumerate(zip(self._conns, self._procs)):
            owner[conn] = owner[proc.sentinel] = w
        busy: dict = {}       # worker -> index of its task in flight
        failures: dict = {}
        stop = dead = False   # no more dispatch / a worker is gone

        def died(w, idx):
            nonlocal stop, dead
            proc = self._procs[w]
            proc.join(timeout=5.0)
            failures[idx] = TaskExecutionError(
                f"task {idx} failed on node{w}: worker process {proc.pid} "
                f"died (exit code {proc.exitcode})",
                task_index=idx, node=f"node{w}")
            stop = dead = True

        def dispatch(w):
            nonlocal stop
            idx = None if stop else next(todo[w], None)
            if idx is None:
                return
            try:
                self._conns[w].send((idx, f"node{w}", traced,
                                     descriptor_of(tasks[idx])))
            except (pickle.PicklingError, TypeError, AttributeError) as exc:
                failures[idx] = _unshippable(idx, type(exc).__name__, exc)
                failures[idx].__cause__ = exc
                stop = True
            except OSError:
                died(w, idx)
            else:
                busy[w] = idx

        try:
            for w in range(n):
                dispatch(w)
            while busy:
                ready = wait([self._conns[w] for w in busy]
                             + [self._procs[w].sentinel for w in busy])
                for w in sorted({owner[obj] for obj in ready} & set(busy)):
                    conn = self._conns[w]
                    try:
                        reply = conn.recv() if conn.poll() else None
                    except (EOFError, OSError):
                        reply = None
                    idx = busy.pop(w)
                    if reply is None:
                        died(w, idx)
                        continue
                    if isinstance(reply, WorkerFailure):
                        failures[idx] = _unshippable(idx, reply.exc_type,
                                                     reply.message)
                        stop = True
                        continue
                    self._merge_worker_result(reply, parent_ledger, tracer)
                    if reply.error is None:
                        results[idx] = reply.value
                    else:
                        failures[idx] = TaskExecutionError(
                            f"task {idx} failed on {reply.node}: "
                            f"{reply.error.exc_type}: {reply.error.message}"
                            f"\n{reply.error.traceback_text}",
                            task_index=idx, node=reply.node)
                    dispatch(w)
        finally:
            if dead or busy:   # a worker is gone, or a pipe is mid-task
                self.close()
        return failures

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
