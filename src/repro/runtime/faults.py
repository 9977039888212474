"""Deterministic fault injection for the simulated supercomputer.

The paper's production runs hold thousands of Cray nodes for hours per
bias point; at that scale node failures, transient task errors and
stragglers are routine, and OMEN survives them only because the (k, E)
tasks are independent and re-runnable.  This module injects exactly those
failure modes into the simulated machine so the resilience layer
(:mod:`repro.runtime.resilience`) can be exercised — and so the scaling
model (:meth:`repro.hardware.machine.SimulatedMachine.run_iteration`) can
price them.

Every decision is a pure function of ``(seed, task_index, attempt)``
through a :class:`numpy.random.SeedSequence` spawn key, so the injected
fault sequence is bit-reproducible regardless of thread scheduling: the
same seed produces the same retries, and a protected run converges to the
exact fault-free result.
"""

from __future__ import annotations

import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.utils.errors import (ConfigurationError, InjectedFaultError,
                                NodeFailureError)
from repro.utils.rng import DEFAULT_SEED


@dataclass(frozen=True)
class FaultProfile:
    """Knobs of the injected failure distribution (all per attempt).

    Parameters
    ----------
    task_failure_prob : probability a task attempt raises a transient
        fault (bit flips, link errors, the long tail of MPI aborts).
    node_death_prob : probability the node under the attempt dies.
    permanent_death_fraction : share of node deaths that are permanent —
        the node is quarantined and never hosts work again; the rest are
        transient (the task fails once, the node recovers).
    straggler_prob : probability the attempt runs on a slow node.
    straggler_delay_s : extra (simulated) wall time of a straggling
        attempt.  Charged to telemetry, and to the per-task timeout if
        one is configured; only actually slept when ``real_sleep``.
    real_sleep : sleep ``straggler_delay_s`` for real (off by default so
        tests and examples stay fast).
    seed : base seed of the decision stream.
    """

    task_failure_prob: float = 0.0
    node_death_prob: float = 0.0
    permanent_death_fraction: float = 1.0
    straggler_prob: float = 0.0
    straggler_delay_s: float = 0.0
    real_sleep: bool = False
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for name in ("task_failure_prob", "node_death_prob",
                     "permanent_death_fraction", "straggler_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]")
        if self.straggler_delay_s < 0:
            raise ConfigurationError("straggler_delay_s must be >= 0")

    @property
    def attempt_failure_prob(self) -> float:
        """Probability that one attempt fails for any injected reason."""
        return 1.0 - ((1.0 - self.task_failure_prob)
                      * (1.0 - self.node_death_prob))


@dataclass(frozen=True)
class FaultDecision:
    """The injector's verdict for one (task, attempt, node) triple."""

    task_index: int
    attempt: int
    node: str
    fail_task: bool
    kill_node: bool
    permanent: bool
    straggle: bool
    delay_s: float

    @property
    def fails(self) -> bool:
        return self.fail_task or self.kill_node


class FaultInjector:
    """Seeded source of task faults, node deaths, and stragglers.

    Shared by the execution layer (raises faults under running tasks)
    and the performance model (prices the expected retry overhead).
    Thread-safe; the per-decision randomness never depends on call
    order, only on ``(task_index, attempt)``.
    """

    def __init__(self, profile: FaultProfile | None = None, nodes=None,
                 **knobs):
        if profile is None:
            profile = FaultProfile(**knobs)
        elif knobs:
            raise ConfigurationError(
                "pass either a FaultProfile or keyword knobs, not both")
        self.profile = profile
        self._dead_permanent: set = set()
        #: declared node universe (optional) plus every node ever seen
        #: by :meth:`inject` — what resilience layers fall back to when
        #: the wrapped runner exposes no worker count
        self._nodes: set = set(str(n) for n in nodes) if nodes else set()
        self._lock = threading.Lock()
        self.stats = defaultdict(int)

    # -- decisions ----------------------------------------------------------

    def decision(self, task_index: int, attempt: int,
                 node: str = "node0") -> FaultDecision:
        """Deterministic fault verdict; no state is mutated."""
        seq = np.random.SeedSequence(entropy=self.profile.seed,
                                     spawn_key=(int(task_index),
                                                int(attempt)))
        u = np.random.default_rng(seq).random(4)
        p = self.profile
        kill = bool(u[0] < p.node_death_prob)
        permanent = kill and bool(u[1] < p.permanent_death_fraction)
        fail = bool(u[2] < p.task_failure_prob)
        straggle = bool(u[3] < p.straggler_prob)
        return FaultDecision(
            task_index=task_index, attempt=attempt, node=node,
            fail_task=fail, kill_node=kill, permanent=permanent,
            straggle=straggle,
            delay_s=p.straggler_delay_s if straggle else 0.0)

    def inject(self, task_index: int, attempt: int,
               node: str = "node0") -> float:
        """Apply the decision for this attempt.

        Raises :class:`NodeFailureError` (node death, or the node is
        already quarantined) or :class:`InjectedFaultError` (transient
        task fault); otherwise returns the straggler delay in seconds
        (0.0 for a healthy attempt).
        """
        with self._lock:
            self._nodes.add(str(node))
            if node in self._dead_permanent:
                self.stats["quarantine_hits"] += 1
                raise NodeFailureError(
                    f"{node} is quarantined (permanent failure)",
                    task_index=task_index, node=node, permanent=True)
        d = self.decision(task_index, attempt, node)
        if d.kill_node:
            with self._lock:
                if d.permanent:
                    self._dead_permanent.add(node)
                self.stats["node_deaths"] += 1
            raise NodeFailureError(
                f"{node} died under task {task_index} "
                f"(attempt {attempt}, "
                f"{'permanent' if d.permanent else 'transient'})",
                task_index=task_index, node=node, permanent=d.permanent)
        if d.fail_task:
            with self._lock:
                self.stats["task_faults"] += 1
            raise InjectedFaultError(
                f"injected transient fault under task {task_index} "
                f"(attempt {attempt}) on {node}",
                task_index=task_index, node=node)
        if d.straggle:
            with self._lock:
                self.stats["stragglers"] += 1
            if self.profile.real_sleep and d.delay_s > 0:
                time.sleep(d.delay_s)
        return d.delay_s

    # -- node bookkeeping ---------------------------------------------------

    def kill_node(self, node: str) -> None:
        """Manually quarantine a node (as if it died permanently)."""
        with self._lock:
            self._dead_permanent.add(str(node))
            self.stats["node_deaths"] += 1

    def node_alive(self, node: str) -> bool:
        with self._lock:
            return node not in self._dead_permanent

    def quarantined_nodes(self) -> list:
        with self._lock:
            return sorted(self._dead_permanent)

    def node_universe(self) -> list:
        """Every node this injector knows about: the declared ``nodes``
        plus every node an :meth:`inject` call ever named (quarantined
        ones included — they are still machines in the room)."""
        with self._lock:
            return sorted(self._nodes | self._dead_permanent)

    # -- performance-model hooks --------------------------------------------

    def expected_attempts(self) -> float:
        """Mean attempts per completed task (geometric retry model)."""
        p = self.profile.attempt_failure_prob
        if p >= 1.0:
            return math.inf
        return 1.0 / (1.0 - p)
