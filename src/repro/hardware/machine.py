"""Execution-time estimation on a simulated machine.

Given (i) a workload distribution from :mod:`repro.parallel.topology` and
(ii) per-energy-point flop counts from :mod:`repro.perfmodel.costmodel`,
compute what the paper's Tables II/III report: wall time, parallel
efficiency, and sustained PFlop/s.  Efficiency losses emerge from the
*granularity of the task distribution* (a node cannot compute a fraction
of an energy point), not from a fudge factor — the same mechanism that
caps the paper's strong scaling at 97.3%.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.specs import MachineSpec
from repro.parallel.topology import build_distribution
from repro.utils.errors import ConfigurationError


@dataclass
class RunEstimate:
    """Timing estimate of one Schroedinger-Poisson iteration."""

    machine: str
    num_nodes: int
    wall_time_s: float
    total_flops: float
    energy_points: int
    #: energy points each node deals with — i.e. the share of its 4-node
    #: solver group, the convention of the paper's Table II (12.9-14.1).
    avg_points_per_node: float
    setup_time_s: float

    @property
    def sustained_pflops(self) -> float:
        return self.total_flops / self.wall_time_s / 1e15


class SimulatedMachine:
    """A machine allocation executing the OMEN workload model."""

    def __init__(self, spec: MachineSpec):
        self.spec = spec

    # -- per-task timing ------------------------------------------------------

    def gpu_rate(self) -> float:
        """Sustained GPU flop rate per node (flop/s)."""
        g = self.spec.node.gpu
        return g.peak_dp_gflops * 1e9 * g.sustained_fraction

    def cpu_rate(self) -> float:
        c = self.spec.node.cpu
        return (c.peak_dp_gflops * 1e9 * c.sustained_fraction
                * self.spec.node.usable_core_fraction)

    def time_energy_point(self, gpu_flops: float, cpu_flops: float,
                          nodes_per_solver: int,
                          spike_overhead_s: float = 0.0) -> float:
        """Wall time of one (k, E) point on a solver group.

        FEAST (CPU) and SplitSolve (GPU) run interleaved; the OBC work is
        hidden unless it exceeds the GPU work ("the calculation of the
        OBCs with FEAST is completely hidden by the solution of Eq. 5").
        ``spike_overhead_s`` adds the recursive-merge cost, which grows
        with log2 of the partition count (Fig. 7a).
        """
        t_gpu = gpu_flops / (self.gpu_rate() * nodes_per_solver)
        t_cpu = cpu_flops / (self.cpu_rate() * nodes_per_solver)
        return max(t_gpu, t_cpu) + spike_overhead_s

    def broadcast_time(self, matrix_bytes: float) -> float:
        """MPI_Bcast of H/S to all nodes (tree broadcast model)."""
        hops = np.log2(max(self.spec.num_nodes, 2))
        return hops * (matrix_bytes / (self.spec.interconnect_gb_s * 1e9)
                       + self.spec.interconnect_latency_us * 1e-6)

    # -- full-iteration estimate ----------------------------------------------

    def run_iteration(self, energies_per_k, gpu_flops_per_point: float,
                      cpu_flops_per_point: float,
                      nodes_per_solver: int = 4,
                      spike_overhead_s: float = 0.0,
                      matrix_bytes: float = 0.0) -> RunEstimate:
        """Estimate one self-consistent iteration (the Fig. 11 unit).

        The wall time is the *maximum over solver groups* of their
        assigned work — load imbalance from integer task counts is
        modelled exactly.
        """
        num_nodes = self.spec.num_nodes
        dist = build_distribution(num_nodes, energies_per_k,
                                  nodes_per_solver)
        t_point = self.time_energy_point(gpu_flops_per_point,
                                         cpu_flops_per_point,
                                         nodes_per_solver,
                                         spike_overhead_s)
        wall = float(dist.group_times(t_point).max())
        setup = self.broadcast_time(matrix_bytes)
        total_points = dist.total_energy_points
        flops = total_points * (gpu_flops_per_point + cpu_flops_per_point)
        num_groups = max(num_nodes // nodes_per_solver, 1)
        return RunEstimate(
            machine=self.spec.name,
            num_nodes=num_nodes,
            wall_time_s=wall + setup,
            total_flops=flops,
            energy_points=total_points,
            avg_points_per_node=total_points / num_groups,
            setup_time_s=setup)

    def strong_scaling(self, node_counts, energies_per_k,
                       gpu_flops_per_point: float,
                       cpu_flops_per_point: float,
                       nodes_per_solver: int = 4,
                       **kwargs) -> list:
        """Fixed total workload, growing allocation (Table III)."""
        out = []
        for n in node_counts:
            machine = SimulatedMachine(self.spec.subset(int(n)))
            out.append(machine.run_iteration(
                energies_per_k, gpu_flops_per_point, cpu_flops_per_point,
                nodes_per_solver=nodes_per_solver, **kwargs))
        return out

    @staticmethod
    def parallel_efficiency(estimates) -> np.ndarray:
        """Efficiency relative to the smallest allocation (Table III)."""
        if not estimates:
            raise ConfigurationError("no estimates given")
        n0 = estimates[0].num_nodes
        t0 = estimates[0].wall_time_s
        return np.array([
            (t0 * n0) / (e.wall_time_s * e.num_nodes) for e in estimates])
