"""Simulated hybrid supercomputers (Cray-XK7 Titan, Cray-XC30 Piz Daint).

The paper's headline numbers (Tables I-III, Figs. 7, 11, 12) are
properties of (i) the algorithms' deterministic flop counts, (ii) the
workload distribution, and (iii) a handful of hardware rate constants.
(i) and (ii) come from the instrumented algorithms and the parallel
substrate; this package supplies (iii): machine specifications, a
roofline-style timing model per device, a power model, and an
nvprof-style activity trace built from real kernel events.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "specs": ("GpuSpec", "CpuSpec", "NodeSpec", "MachineSpec", "TITAN",
              "PIZ_DAINT", "K20X"),
    "machine": ("SimulatedMachine", "RunEstimate"),
    "power": ("PowerModel", "power_profile"),
    "trace": ("activity_table",),
})
