"""Task-runner backend selection: one string, three execution models.

``make_task_runner("thread", 4)`` is the single place that maps the
user-facing ``backend=`` argument of :func:`repro.core.compute_spectrum`
(and the CLI's ``--backend``) onto a concrete runner:

* ``"serial"`` — no runner at all (``None``): tasks execute inline in
  the caller, the reference path every other backend must bit-match;
* ``"thread"`` — :class:`~repro.parallel.executor.ThreadTaskRunner`,
  simulated nodes on threads (NumPy releases the GIL, so solves overlap);
* ``"process"`` — :class:`~repro.parallel.process.ProcessTaskRunner`,
  worker OS processes fed picklable task descriptors.

Owned-runner lifecycle: callers that create a runner through this
factory should ``close_task_runner`` it when done — a no-op for the
serial/thread backends, a pool shutdown for the process backend.  A
driver that takes either a runner or a ``backend=`` opens
:func:`task_runner_scope`, which does both.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.parallel.executor import ThreadTaskRunner
from repro.utils.errors import ConfigurationError

#: backends accepted by :func:`make_task_runner` (and the CLI)
BACKENDS = ("serial", "thread", "process")


def make_task_runner(backend: str, num_workers: int | None = None):
    """Build the task runner for ``backend``.

    Parameters
    ----------
    backend : one of :data:`BACKENDS`.
    num_workers : worker count (default 1; ignored for ``"serial"``).

    Returns ``None`` for ``"serial"`` — the convention the execution
    layer already treats as "run inline".
    """
    backend = str(backend).lower()
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; choose from {BACKENDS}")
    workers = 1 if num_workers is None else int(num_workers)
    if backend != "serial" and workers < 1:
        raise ConfigurationError("num_workers must be >= 1")
    if backend == "serial":
        return None
    if backend == "thread":
        return ThreadTaskRunner(workers)
    # a serial or thread run never imports multiprocessing
    from repro.parallel.process import ProcessTaskRunner
    return ProcessTaskRunner(workers)


def close_task_runner(runner) -> None:
    """Release a runner built by :func:`make_task_runner` (idempotent)."""
    close = getattr(runner, "close", None)
    if callable(close):
        close()


@contextmanager
def task_runner_scope(task_runner=None, backend: str | None = None,
                      num_workers: int | None = None):
    """The runner a driver runs with: ``task_runner`` as given, or one
    built for ``backend`` (:func:`make_task_runner`) and closed on exit.
    Passing both is a :class:`ConfigurationError`."""
    if backend is not None and task_runner is not None:
        raise ConfigurationError(
            "pass either task_runner or backend, not both")
    if backend is None:
        yield task_runner
        return
    runner = make_task_runner(backend, num_workers)
    try:
        yield runner
    finally:
        close_task_runner(runner)
