"""Thread-backed task execution with per-rank flop attribution.

The glue between :func:`repro.core.runner.compute_spectrum`'s
``task_runner`` hook and the parallel substrate: tasks (one per (k, E)
point) run on a worker pool; each worker records its flops into the
shared ledger under its rank's device name, so the scaling experiments
can reconstruct per-node activity.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from contextlib import nullcontext

from repro.linalg.flops import current_ledger, device_scope, ledger_scope
from repro.observability.spans import current_tracer
from repro.utils.errors import ConfigurationError, TaskExecutionError


class ThreadTaskRunner:
    """Run task lists on ``num_workers`` threads.

    Each worker is a simulated node ``node{i}``; kernel flops executed by
    a worker are attributed to it.

    Notes
    -----
    This runner performs no retries; wrap it in a
    :class:`repro.runtime.ResilientTaskRunner` for that.  A raising task
    aborts the batch with a
    :class:`~repro.utils.errors.TaskExecutionError` carrying the failed
    task's index.
    """

    def __init__(self, num_workers: int):
        if num_workers < 1:
            raise ConfigurationError("num_workers must be >= 1")
        self.num_workers = num_workers

    def __call__(self, tasks) -> list:
        parent_ledger = current_ledger()

        def run(item):
            idx, task = item
            node = f"node{idx % self.num_workers}"
            tracer = current_tracer()
            scope = tracer.span(f"task {idx}", category="task",
                                worker=node, task_index=idx) \
                if tracer is not None else nullcontext()
            with ledger_scope(parent_ledger):
                with device_scope(node), scope:
                    try:
                        return task()
                    except TaskExecutionError:
                        # already indexed (e.g. by a resilient wrapper)
                        raise
                    except Exception as exc:
                        raise TaskExecutionError(
                            f"task {idx} failed on {node}: {exc}",
                            task_index=idx, node=node) from exc

        with ThreadPoolExecutor(max_workers=self.num_workers) as pool:
            return list(pool.map(run, enumerate(tasks)))
