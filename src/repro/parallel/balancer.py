"""Dynamic load balancing across self-consistent iterations [45].

"To avoid any work imbalance between sub-communicators corresponding to
different k points, a dynamical allocation of the number of nodes per
momentum has been developed" — after each Schroedinger-Poisson iteration
the measured per-k runtimes update the node allocation of the next one.
"""

from __future__ import annotations

import numpy as np

from repro.observability.spans import current_tracer
from repro.parallel.topology import (allocate_nodes_to_momentum,
                                     build_distribution, distribute_items)
from repro.utils.errors import ConfigurationError


class DynamicLoadBalancer:
    """Re-allocates nodes to momenta from measured iteration timings."""

    def __init__(self, num_nodes: int, energies_per_k,
                 nodes_per_solver: int = 1, smoothing: float = 0.5):
        if not 0.0 <= smoothing < 1.0:
            raise ConfigurationError("smoothing must be in [0, 1)")
        self.num_nodes = num_nodes
        self.energies_per_k = [int(n) for n in energies_per_k]
        self.nodes_per_solver = nodes_per_solver
        self.smoothing = smoothing
        # initial work estimate: energy-point counts
        self._work = np.asarray([max(n, 1) for n in self.energies_per_k],
                                dtype=float)
        #: smoothed work model after each recorded iteration (the vector
        #: the next allocation is actually built from)
        self.history = []
        self._dist = None

    def _invalidate(self):
        self._dist = None

    def current_distribution(self):
        """The allocation for the learned work model (cached until the
        model changes — one build per iteration, not one per query)."""
        if self._dist is None:
            dist = build_distribution(self.num_nodes, self.energies_per_k,
                                      self.nodes_per_solver)
            # override the proportional target with the learned work vector
            dist.nodes_per_k = allocate_nodes_to_momentum(
                self.num_nodes, self._work, self.nodes_per_solver)
            dist.energy_assignment = [
                distribute_items(n_e, max(int(dist.nodes_per_k[ik]
                                              // self.nodes_per_solver), 1))
                for ik, n_e in enumerate(self.energies_per_k)]
            self._dist = dist
        return self._dist

    def record_iteration(self, measured_time_per_k):
        """Feed back measured per-k total times; updates the work model."""
        t = np.asarray(measured_time_per_k, dtype=float)
        if t.shape != self._work.shape:
            raise ConfigurationError("one timing per momentum required")
        if np.any(~np.isfinite(t)) or np.any(t <= 0):
            raise ConfigurationError("timings must be positive and finite")
        # Per-k work = time * nodes currently assigned (time shrinks when
        # more nodes work on the same k).
        dist = self.current_distribution()
        work = t * dist.nodes_per_k
        self._work = (self.smoothing * self._work
                      + (1.0 - self.smoothing) * work)
        self.history.append(self._work.copy())
        self._invalidate()
        dist = self.current_distribution()
        tracer = current_tracer()
        if tracer is not None:
            tracer.metrics.counter("rebalances").inc()
            tracer.instant(
                "rebalance", category="balancer",
                attrs={"iteration": len(self.history),
                       "nodes_per_k": [int(n) for n in dist.nodes_per_k],
                       "predicted_time_s":
                           self.predicted_iteration_time()})
        return dist

    def predicted_iteration_time(self, work=None) -> float:
        """Max over k of (work_k / nodes_k): the slowest group's time.

        Momenta with no nodes assigned are priced at one node instead of
        dividing by zero — an inf here would poison the next
        allocation's work model.
        """
        dist = self.current_distribution()
        nodes = np.maximum(dist.nodes_per_k, 1)
        w = self._work if work is None else np.asarray(work, dtype=float)
        return float(np.max(w / nodes))
