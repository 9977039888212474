"""Performance accounting: flop models, measurement, and extrapolation.

Bridges the instrumented algorithms (exact measured flop counts at
laptop scale) and the simulated machine (paper-scale timings): analytic
per-energy-point flop models validated against the ledger, plus the
scaling laws used to extrapolate to the paper's structure sizes.
"""

from repro.perfmodel.costmodel import (
    splitsolve_kernels,
    splitsolve_flop_model,
    rgf_flop_model,
    interface_reduction_kernels,
    feast_kernels,
    dense_obc_kernels,
    kernel_flops,
    mixed_refinement_flop_model,
    measure_flops,
    extrapolate_flops,
)
from repro.perfmodel.bytemodel import (
    gemm_bytes,
    lu_factor_bytes,
    lu_solve_bytes,
    solve_bytes,
    rgf_byte_model,
    sancho_rubio_byte_model,
    geig_bytes,
    kernel_bytes,
    mixed_lu_factor_bytes,
    mixed_lu_solve_bytes,
    splitsolve_byte_model,
    byte_drift,
)
from repro.perfmodel.scaling import (
    WeakScalingRow,
    weak_scaling_table,
    strong_scaling_table,
    weak_scaling_efficiency,
)

__all__ = [
    "splitsolve_kernels",
    "splitsolve_flop_model",
    "rgf_flop_model",
    "interface_reduction_kernels",
    "feast_kernels",
    "dense_obc_kernels",
    "kernel_flops",
    "mixed_refinement_flop_model",
    "measure_flops",
    "extrapolate_flops",
    "gemm_bytes",
    "lu_factor_bytes",
    "lu_solve_bytes",
    "solve_bytes",
    "rgf_byte_model",
    "sancho_rubio_byte_model",
    "geig_bytes",
    "kernel_bytes",
    "mixed_lu_factor_bytes",
    "mixed_lu_solve_bytes",
    "splitsolve_byte_model",
    "byte_drift",
    "WeakScalingRow",
    "weak_scaling_table",
    "strong_scaling_table",
    "weak_scaling_efficiency",
]
