"""Dynamic load balancing across self-consistent iterations [45].

"To avoid any work imbalance between sub-communicators corresponding to
different k points, a dynamical allocation of the number of nodes per
momentum has been developed" — after each Schroedinger-Poisson iteration
the measured per-k runtimes update the node allocation of the next one.
Nodes quarantined by the fault-tolerance layer are removed from the pool
and their work is re-spread over the survivors.
"""

from __future__ import annotations

import numpy as np

from repro.observability.spans import current_tracer
from repro.parallel.topology import (allocate_nodes_to_momentum,
                                     build_distribution, distribute_items,
                                     weighted_shares)
from repro.utils.errors import ConfigurationError


class DynamicLoadBalancer:
    """Re-allocates nodes to momenta from measured iteration timings.

    Beyond the per-k node allocation, the balancer also carries a
    *worker-level* speed model (:meth:`record_worker_times` /
    :meth:`node_weight`) so elastic runners can hand measured-slow
    workers fewer (k, E) units, and an optional spare-node reserve
    (``spare_nodes``) so :meth:`quarantine_node` replaces a dead node
    from the bench instead of shrinking the pool.
    """

    def __init__(self, num_nodes: int, energies_per_k,
                 nodes_per_solver: int = 1, smoothing: float = 0.5,
                 spare_nodes: int = 0):
        if not 0.0 <= smoothing < 1.0:
            raise ConfigurationError("smoothing must be in [0, 1)")
        if spare_nodes < 0:
            raise ConfigurationError("spare_nodes must be >= 0")
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
        #: nodes removed from the pool by the fault-tolerance layer
        self.quarantined = []
        #: reserve node names promoted on quarantine (FIFO)
        self.spare_pool = [f"spare{i}" for i in range(spare_nodes)]
        #: spares promoted into service, in promotion order
        self.promoted = []
        #: EMA units/second per worker node (elastic weighting input)
        self.node_speed: dict = {}
        #: node -> (peak flop/s, bandwidth byte/s) hardware profile;
        #: lets :meth:`worker_shares` weigh workers by their roofline-
        #: attainable rate for the workload's arithmetic intensity
        self.node_profile: dict = {}
        #: measured kernel traffic per momentum (summed from task traces)
        self.bytes_per_k = np.zeros(len(self.energies_per_k))
        #: measured flops per momentum (summed from task traces)
        self.flops_per_k = np.zeros(len(self.energies_per_k))
        self._dist = None

    def _invalidate(self):
        self._dist = None

    def current_distribution(self):
        """The allocation for the learned work model (cached until the
        model or the node pool changes — one build per iteration, not
        one per query)."""
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

    def record_task_traces(self, traces):
        """Feed back *measured* per-task times from pipeline traces.

        ``traces`` are :class:`repro.pipeline.TaskTrace` objects (``None``
        entries are skipped).  Their wall times are summed per momentum —
        the total serial work of each k — and divided by the nodes
        currently assigned to that k, which is the per-group time
        :meth:`record_iteration` expects.  Returns the new distribution,
        or ``None`` when no trace carried a usable k-point index.
        """
        per_k = np.zeros(self._work.shape, dtype=float)
        hits = 0
        for tr in traces:
            if tr is None:
                continue
            ik = getattr(tr, "kpoint_index", -1)
            if 0 <= ik < per_k.size:
                per_k[ik] += tr.total_seconds
                self.flops_per_k[ik] += tr.total_flops
                self.bytes_per_k[ik] += tr.total_bytes
                hits += 1
        if hits == 0:
            return None
        dist = self.current_distribution()
        # floor: a momentum whose points all hit the trace-less path (or
        # ran in no measurable time) must still be positive for the EMA
        per_k = np.maximum(per_k, 1e-9)
        return self.record_iteration(per_k / dist.nodes_per_k)

    def quarantine_node(self, node) -> str | None:
        """Remove one (permanently failed) node from the allocation pool.

        When the reserve has a spare, it is promoted in the dead node's
        place and the pool size is unchanged; the promoted name is
        returned so runners can start scheduling onto it.  With an empty
        reserve the pool shrinks (returns ``None``) and the next
        :meth:`current_distribution` re-spreads the work over the
        survivors — raising if they could no longer host one solver
        group per momentum.
        """
        node = str(node)
        if node in self.quarantined:
            return None
        tracer = current_tracer()
        if self.spare_pool:
            promoted = self.spare_pool.pop(0)
            self.quarantined.append(node)
            self.promoted.append(promoted)
            self.node_speed.pop(node, None)
            self._invalidate()
            if tracer is not None:
                tracer.metrics.labeled("balancer_quarantined").inc(node)
                tracer.metrics.labeled("spares_promoted").inc(promoted)
                tracer.instant("spare-promoted", category="balancer",
                               attrs={"quarantined": node,
                                      "promoted": promoted,
                                      "pool_size": self.num_nodes})
            return promoted
        survivors = self.num_nodes - 1
        if survivors // self.nodes_per_solver < len(self.energies_per_k):
            raise ConfigurationError(
                f"cannot quarantine {node}: {survivors} nodes left for "
                f"{len(self.energies_per_k)} momentum groups of "
                f"{self.nodes_per_solver} node(s)")
        self.quarantined.append(node)
        self.num_nodes = survivors
        self.node_speed.pop(node, None)
        self._invalidate()
        if tracer is not None:
            tracer.metrics.labeled("balancer_quarantined").inc(node)
            tracer.instant("quarantine", category="balancer",
                           attrs={"node": node,
                                  "survivors": survivors})
        return None

    # -- worker-level elasticity ---------------------------------------------

    def record_worker_times(self, times_by_node) -> None:
        """Fold measured per-unit wall times into the worker speed model.

        ``times_by_node`` maps node name -> list of per-task seconds (a
        scalar is accepted too).  Speeds are EMA-smoothed with the same
        ``smoothing`` as the k-level work model, so one noisy batch does
        not whipsaw the shares.
        """
        for node, seconds in times_by_node.items():
            vals = np.atleast_1d(np.asarray(seconds, dtype=float))
            vals = vals[np.isfinite(vals) & (vals > 0)]
            if vals.size == 0:
                continue
            speed = 1.0 / float(vals.mean())
            prev = self.node_speed.get(str(node))
            self.node_speed[str(node)] = speed if prev is None else \
                self.smoothing * prev + (1.0 - self.smoothing) * speed

    def node_weight(self, node) -> float:
        """Relative share weight of one worker (1.0 until measured)."""
        return float(self.node_speed.get(str(node), 1.0))

    def set_node_profile(self, node, peak_flops: float,
                         bandwidth_bytes_s: float) -> None:
        """Register one worker's hardware roofline (flop/s, byte/s)."""
        if peak_flops <= 0 or bandwidth_bytes_s <= 0:
            raise ConfigurationError(
                "node profile needs positive peak_flops and bandwidth")
        self.node_profile[str(node)] = (float(peak_flops),
                                        float(bandwidth_bytes_s))

    def node_capability(self, node, intensity: float | None = None):
        """Roofline-attainable flop rate of one worker for a workload.

        ``intensity`` is the workload's arithmetic intensity in flop per
        byte; the attainable rate is ``min(peak, intensity *
        bandwidth)``.  Returns ``None`` when the node has no profile or
        no intensity is given (the caller falls back to speed-only
        weighting).
        """
        prof = self.node_profile.get(str(node))
        if prof is None or intensity is None or intensity <= 0:
            return None
        peak, bw = prof
        return min(peak, float(intensity) * bw)

    def measured_intensity(self) -> float | None:
        """Arithmetic intensity of the traced work so far (flop/byte)."""
        b = float(self.bytes_per_k.sum())
        if b <= 0:
            return None
        return float(self.flops_per_k.sum()) / b

    def worker_shares(self, total: int, nodes, flops: float | None = None,
                      bytes_moved: float | None = None) -> dict:
        """Units per worker for ``total`` tasks, movement-aware.

        Speed-proportional by default (the straggler-aware half of
        elastic scheduling: a node measured at half speed gets about
        half the units).  When the workload's ``flops`` and
        ``bytes_moved`` are given — or traces have been recorded — and
        workers carry :meth:`set_node_profile` rooflines, each speed
        weight is additionally scaled by the node's attainable rate at
        that arithmetic intensity: a memory-bound bucket shifts units
        toward high-bandwidth nodes even when measured speeds are equal.
        Exact by largest-remainder rounding.
        """
        nodes = [str(n) for n in nodes]
        intensity = None
        if flops is not None and bytes_moved is not None \
                and float(bytes_moved) > 0:
            intensity = float(flops) / float(bytes_moved)
        elif flops is None and bytes_moved is None:
            intensity = self.measured_intensity()
        weights = [self.node_weight(n) for n in nodes]
        caps = [self.node_capability(n, intensity) for n in nodes]
        known = [c for c in caps if c is not None]
        if known:
            # unprofiled nodes are priced at the mean profiled
            # capability so a partial profile set never starves them
            mean_cap = float(np.mean(known))
            weights = [w * ((c if c is not None else mean_cap) / mean_cap)
                       for w, c in zip(weights, caps)]
        shares = weighted_shares(total, weights)
        return dict(zip(nodes, shares))

    def apply_alerts(self, alerts) -> list:
        """Consume live anomaly alerts (the streaming counterpart of
        :meth:`record_worker_times`).

        Straggler alerts re-price the named node *immediately* — its
        speed becomes ``suggested_speed`` (the detector's fleet-relative
        estimate) times the mean speed of the other nodes — instead of
        waiting for the next batch of post-task traces, so the very next
        :meth:`worker_shares` call hands the straggler fewer units.
        Non-straggler alert kinds are ignored here.  Returns the nodes
        that were re-priced.
        """
        repriced = []
        for alert in alerts:
            data = alert.as_dict() if hasattr(alert, "as_dict") \
                else dict(alert)
            if data.get("kind") != "straggler":
                continue
            node = str(data.get("node", ""))
            if not node:
                continue
            evidence = data.get("evidence", {})
            factor = float(evidence.get(
                "suggested_speed",
                1.0 / max(float(evidence.get("latency_ratio", 1.0)),
                          1e-9)))
            others = [s for n, s in self.node_speed.items() if n != node]
            baseline = float(np.mean(others)) if others else 1.0
            self.node_speed[node] = baseline * factor
            repriced.append(node)
            tracer = current_tracer()
            if tracer is not None:
                tracer.metrics.counter("live_straggler_penalties").inc()
                tracer.instant(
                    "live-straggler-penalty", category="balancer",
                    attrs={"node": node, "speed": self.node_speed[node],
                           "suggested_speed": factor})
        return repriced

    def apply_telemetry(self, telemetry) -> list:
        """Quarantine every node a runner's telemetry reports dead.

        Returns the newly quarantined node names (idempotent across
        repeated calls with the same telemetry).
        """
        fresh = sorted(set(telemetry.quarantined_nodes)
                       - set(self.quarantined))
        for node in fresh:
            self.quarantine_node(node)
        return fresh

    def predicted_iteration_time(self, work=None) -> float:
        """Max over k of (work_k / nodes_k): the slowest group's time.

        Momenta with no nodes assigned (a transiently inconsistent
        allocation during quarantining) are priced at one node instead
        of dividing by zero — an inf here would poison the next
        allocation's work model.
        """
        dist = self.current_distribution()
        nodes = np.maximum(dist.nodes_per_k, 1)
        w = self._work if work is None else np.asarray(work, dtype=float)
        return float(np.max(w / nodes))
