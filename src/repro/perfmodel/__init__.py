"""Performance accounting: flop models, measurement, and extrapolation.

Bridges the instrumented algorithms (exact measured flop counts at
laptop scale) and the simulated machine (paper-scale timings): analytic
per-energy-point flop models validated against the ledger, plus the
scaling laws used to extrapolate to the paper's structure sizes.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "costmodel": ("splitsolve_kernels", "splitsolve_flop_model",
                  "splitsolve_byte_model", "rgf_kernels", "mixed_kernels",
                  "interface_reduction_kernels", "feast_kernels",
                  "dense_obc_kernels", "decimation_kernels", "kernel_flops",
                  "kernel_bytes", "measure_flops", "extrapolate_flops"),
    "roofline": ("byte_drift",),
    "scaling": ("WeakScalingRow", "weak_scaling_table", "strong_scaling_table",
                "weak_scaling_efficiency"),
})
