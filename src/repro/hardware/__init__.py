"""Simulated hybrid supercomputers (Cray-XK7 Titan, Cray-XC30 Piz Daint).

The paper's headline numbers (Tables I-III, Figs. 7, 11, 12) are
properties of (i) the algorithms' deterministic flop counts, (ii) the
workload distribution, and (iii) a handful of hardware rate constants.
(i) and (ii) come from the instrumented algorithms and the parallel
substrate; this package supplies (iii): machine specifications, a
roofline-style timing model per device, a power model, and an
nvprof-style activity trace built from real kernel events.
"""

from repro.hardware.specs import (
    GpuSpec,
    CpuSpec,
    NodeSpec,
    MachineSpec,
    TITAN,
    PIZ_DAINT,
    K20X,
)
from repro.hardware.machine import SimulatedMachine, RunEstimate
from repro.hardware.power import PowerModel, power_profile
from repro.hardware.trace import activity_table

__all__ = [
    "GpuSpec",
    "CpuSpec",
    "NodeSpec",
    "MachineSpec",
    "TITAN",
    "PIZ_DAINT",
    "K20X",
    "SimulatedMachine",
    "RunEstimate",
    "PowerModel",
    "power_profile",
    "activity_table",
]
