"""Parallel substrate: OMEN's multi-level workload distribution (Fig. 9).

Three levels, exactly as the paper describes:

1. **momentum k** — almost embarrassingly parallel; node counts per k are
   assigned by the dynamic load balancer of [45],
2. **energy E** — embarrassingly parallel within a momentum group,
3. **spatial domain decomposition** — SplitSolve partitions within one
   energy point's solver group.

An in-process, thread-backed MPI lookalike (:class:`FakeComm`) executes
SPMD rank programs for the communication patterns (Bcast of H/S, Gather
of observables); the distribution/topology logic is pure and is reused
verbatim by the simulated-machine scaling experiments.
"""

from repro.parallel.comm import FakeComm, run_spmd
from repro.parallel.topology import (
    WorkloadDistribution,
    allocate_nodes_to_momentum,
    distribute_items,
    build_distribution,
)
from repro.parallel.balancer import DynamicLoadBalancer
from repro.parallel.executor import ThreadTaskRunner
from repro.parallel.process import ProcessTaskRunner
from repro.parallel.serialization import TaskDescriptor, descriptor_of
from repro.parallel.backend import (BACKENDS, close_task_runner,
                                    make_task_runner)

__all__ = [
    "FakeComm",
    "run_spmd",
    "WorkloadDistribution",
    "allocate_nodes_to_momentum",
    "distribute_items",
    "build_distribution",
    "DynamicLoadBalancer",
    "ThreadTaskRunner",
    "ProcessTaskRunner",
    "TaskDescriptor",
    "descriptor_of",
    "BACKENDS",
    "make_task_runner",
    "close_task_runner",
]
