"""Machine specifications — Table I of the paper, plus rate constants.

Peak numbers are the official ones the paper quotes; sustained-efficiency
constants are calibrated once against the paper's measured 15.01 PFlop/s
run (Section 5E) and then held fixed for every experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.errors import ConfigurationError


@dataclass(frozen=True)
class GpuSpec:
    """One accelerator."""

    model: str
    peak_dp_gflops: float       # double-precision peak
    memory_gb: float
    bandwidth_gb_s: float       # device memory bandwidth
    pcie_gb_s: float            # host <-> device link
    tdp_w: float                # board power limit
    idle_w: float
    #: fraction of peak sustained by SplitSolve's kernel mix (zgemm +
    #: zgesv_nopiv); calibrated against the paper's 15 PFlop/s on 18688
    #: K20X ( ~690 GF/s per GPU out of 1311 peak).
    sustained_fraction: float = 0.53


@dataclass(frozen=True)
class CpuSpec:
    model: str
    cores: int
    peak_dp_gflops: float
    sustained_fraction: float = 0.60


@dataclass(frozen=True)
class NodeSpec:
    cpu: CpuSpec
    gpu: GpuSpec
    #: fraction of host cores usable next to MAGMA's hybrid factorization
    #: (the paper: "at least half of them remain idle on Titan" because
    #: zgesv_nopiv_gpu needs a dedicated core).
    usable_core_fraction: float = 1.0

    @property
    def peak_gflops(self) -> float:
        return self.cpu.peak_dp_gflops + self.gpu.peak_dp_gflops


@dataclass(frozen=True)
class MachineSpec:
    name: str
    num_nodes: int
    node: NodeSpec
    interconnect_gb_s: float
    interconnect_latency_us: float
    #: machine power overhead (XDP pumps, blowers, line losses) as a
    #: fraction of the IT power (Fig. 12a discussion).
    facility_overhead: float = 0.25

    def subset(self, num_nodes: int) -> "MachineSpec":
        """The same machine restricted to an allocation of fewer nodes."""
        if not 1 <= num_nodes <= self.num_nodes:
            raise ConfigurationError(
                f"{self.name} has {self.num_nodes} nodes, "
                f"requested {num_nodes}")
        return MachineSpec(name=self.name, num_nodes=num_nodes,
                           node=self.node,
                           interconnect_gb_s=self.interconnect_gb_s,
                           interconnect_latency_us=self.interconnect_latency_us,
                           facility_overhead=self.facility_overhead)

    @property
    def peak_pflops(self) -> float:
        return self.num_nodes * self.node.peak_gflops / 1e6

    def table_row(self) -> str:
        n = self.node
        return (f"{self.name:>10s}  nodes={self.num_nodes:<6d} "
                f"GPU={n.gpu.model:<10s} CPU={n.cpu.model:<16s} "
                f"cores={self.num_nodes * n.cpu.cores:<7d} "
                f"node perf={n.cpu.peak_dp_gflops:.1f}+"
                f"{n.gpu.peak_dp_gflops:.0f} GFlop/s")


#: NVIDIA Tesla K20X: 1311 DP GFlop/s, 6 GB GDDR5, 250 GB/s.
K20X = GpuSpec(model="Tesla K20X", peak_dp_gflops=1311.0, memory_gb=6.0,
               bandwidth_gb_s=250.0, pcie_gb_s=6.0, tdp_w=235.0,
               idle_w=20.0)

_XEON_E5_2670 = CpuSpec(model="Xeon E5-2670", cores=8,
                        peak_dp_gflops=166.4)
_OPTERON_6274 = CpuSpec(model="Opteron 6274", cores=16,
                        peak_dp_gflops=134.4)

#: Cray-XC30 Piz Daint (CSCS): all host cores usable alongside the GPU.
PIZ_DAINT = MachineSpec(
    name="Piz Daint", num_nodes=5272,
    node=NodeSpec(cpu=_XEON_E5_2670, gpu=K20X, usable_core_fraction=1.0),
    interconnect_gb_s=10.0, interconnect_latency_us=1.5)

#: Cray-XK7 Titan (ORNL): half the Opteron cores idle (MAGMA contention,
#: Section 5A) and SplitSolve runs ~10% slower per node than Piz Daint.
#: Facility overhead (XDP pumps, blowers, line losses, Fig. 12a) is
#: higher than on the XC30.
TITAN = MachineSpec(
    name="Titan", num_nodes=18688,
    node=NodeSpec(cpu=_OPTERON_6274, gpu=K20X, usable_core_fraction=0.5),
    interconnect_gb_s=8.0, interconnect_latency_us=2.5,
    facility_overhead=0.35)
