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

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "comm": ("FakeComm", "run_spmd"),
    "topology": ("WorkloadDistribution", "allocate_nodes_to_momentum",
                 "distribute_items", "build_distribution"),
    "balancer": ("DynamicLoadBalancer",),
    "executor": ("ThreadTaskRunner",),
    "process": ("ProcessTaskRunner",),
    "serialization": ("TaskDescriptor", "descriptor_of"),
    "backend": ("BACKENDS", "make_task_runner", "close_task_runner",
                "task_runner_scope"),
})
