"""The serialization boundary of the multi-process backend.

A worker process cannot receive the closures :func:`compute_spectrum`
builds (they capture live ``DeviceCache`` objects, locks, and memo
state), so the process backend ships **task descriptors** instead: a
picklable module-level callable plus plain-data arguments.  Producers
attach a descriptor to their task closures (``task.descriptor = ...``);
thread/serial runners ignore it and call the closure, the process
runner pickles the descriptor and executes it remotely.

The worker side runs each descriptor under the same scopes the
in-process runners use — a fresh :class:`~repro.linalg.flops.FlopLedger`,
a ``device_scope`` naming the simulated node, and (when the parent is
tracing) a worker-local :class:`~repro.observability.SpanTracer` — and
returns everything as a plain-data :class:`WorkerTaskResult` the parent
merges back: ledger snapshot into the active ledger, span dicts and
tracer metrics into the installed tracer, the task's retry accounting
(:func:`task_telemetry`, traced or not) into the runner telemetry.
"""

from __future__ import annotations

import os
import traceback
from contextlib import nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field

from repro.linalg.flops import FlopLedger, device_scope, ledger_scope
from repro.observability.metrics import MetricsRegistry

_TASK_TELEMETRY: ContextVar = ContextVar("task_telemetry", default=None)


def task_telemetry() -> MetricsRegistry | None:
    """The metrics registry of the task :func:`execute_descriptor` is
    running (``None`` outside one): the worker-side retry loop counts
    into it, and it ships home whether or not the parent traces."""
    return _TASK_TELEMETRY.get()


@dataclass(frozen=True)
class TaskDescriptor:
    """A picklable recipe for one task: ``fn(*args, **kwargs)``.

    ``fn`` must be an importable module-level callable (pickled by
    reference); ``args``/``kwargs`` must be plain picklable data.
    """

    fn: object
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)

    def run(self):
        return self.fn(*self.args, **self.kwargs)


def descriptor_of(task) -> TaskDescriptor:
    """The descriptor to ship for ``task``.

    Tasks built by descriptor-aware producers carry one as
    ``task.descriptor``; bare callables fall back to pickling the
    callable itself, which works for module-level functions and
    ``functools.partial`` over plain data (lambdas and closures will
    fail to pickle with an explanatory error from the runner).
    """
    desc = getattr(task, "descriptor", None)
    if isinstance(desc, TaskDescriptor):
        return desc
    return TaskDescriptor(fn=task)


@dataclass
class WorkerFailure:
    """A task exception, flattened to plain data for the trip home."""

    exc_type: str
    message: str
    traceback_text: str


@dataclass
class WorkerTaskResult:
    """Everything one worker-side task execution sends back."""

    index: int
    node: str
    value: object = None
    error: WorkerFailure | None = None
    ledger: dict = field(default_factory=dict)
    #: the task's retry accounting (a RunTelemetry registry snapshot)
    telemetry: dict | None = None
    metrics: dict | None = None
    spans: list | None = None


def execute_descriptor(index: int, node: str, traced: bool,
                       descriptor: TaskDescriptor) -> WorkerTaskResult:
    """Run one descriptor in the current (worker) process.

    Mirrors the scope nesting of
    :class:`~repro.parallel.executor.ThreadTaskRunner`: kernel flops land
    in a task-local ledger attributed to ``node``, and when ``traced`` a
    worker-local tracer records the ``task``/``stage`` span tree.  Never
    raises — failures come back as :attr:`WorkerTaskResult.error` so the
    parent controls the abort policy.
    """
    from repro.observability.spans import SpanTracer, tracing

    ledger = FlopLedger()
    telemetry = MetricsRegistry()
    tracer = SpanTracer() if traced else None
    value = None
    error = None
    token = _TASK_TELEMETRY.set(telemetry)
    try:
        with ledger_scope(ledger), device_scope(node), \
                (tracing(tracer) if traced else nullcontext()):
            scope = tracer.span(f"task {index}", category="task",
                                worker=node, task_index=index,
                                pid=os.getpid()) \
                if traced else nullcontext()
            with scope:
                value = descriptor.run()
    except Exception as exc:
        error = WorkerFailure(exc_type=type(exc).__name__,
                              message=str(exc),
                              traceback_text=traceback.format_exc())
    finally:
        _TASK_TELEMETRY.reset(token)
    return WorkerTaskResult(
        index=index, node=node, value=value, error=error,
        ledger=ledger.as_snapshot(),
        telemetry=telemetry.snapshot() or None,
        metrics=tracer.metrics.snapshot() if traced else None,
        spans=[sp.as_dict() for sp in tracer.records()]
        if traced else None)
