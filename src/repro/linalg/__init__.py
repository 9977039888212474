"""Instrumented dense/block linear algebra.

This package is the equivalent of the BLAS/LAPACK + cuBLAS/MAGMA layer of
the paper, with the PAPI/CUPTI measurement infrastructure built in: every
kernel records its floating-point operation count and the bytes it touched
into a :class:`~repro.linalg.flops.FlopLedger`, attributed to the currently
active (simulated) device.  The scaling and PFlop/s experiments are driven
by these ledgers.
"""

from repro.linalg.arena import (
    Workspace,
    arena_scope,
    current_arena,
    scratch,
    scratch_release,
)
from repro.linalg.flops import (
    FlopLedger,
    KernelEvent,
    current_ledger,
    ledger_scope,
    global_ledger,
    gemm_flops,
    lu_flops,
    trsm_flops,
    solve_flops,
    eig_flops,
)
from repro.linalg.kernels import (
    gemm,
    solve,
    solve_many,
    lu_factor,
    lu_solve,
    inv,
    eig,
    eigh,
    geig,
    qr_orth,
)
from repro.linalg.blocktridiag import (
    BlockStructure,
    BlockTridiagonalMatrix,
    CouplingSupport,
    as_complex,
    block_support,
    energy_scalars,
    identity_block,
    stored_nbytes,
    working_dtype,
    zero_block,
)
from repro.linalg.batched import (
    BatchedBlockTridiag,
    bucket_by_width,
    gemm_batched,
    lu_factor_batched,
    lu_solve_batched,
)
from repro.linalg.assembly import EnergyOperator, build_a_batch
from repro.linalg.backend import (
    KernelBackend,
    NumpyBackend,
    backend_scope,
    current_backend,
    get_backend,
)

__all__ = [
    "Workspace",
    "arena_scope",
    "current_arena",
    "scratch",
    "scratch_release",
    "FlopLedger",
    "KernelEvent",
    "current_ledger",
    "ledger_scope",
    "global_ledger",
    "gemm_flops",
    "lu_flops",
    "trsm_flops",
    "solve_flops",
    "eig_flops",
    "gemm",
    "solve",
    "solve_many",
    "lu_factor",
    "lu_solve",
    "inv",
    "eig",
    "eigh",
    "geig",
    "qr_orth",
    "BlockStructure",
    "BlockTridiagonalMatrix",
    "CouplingSupport",
    "as_complex",
    "block_support",
    "energy_scalars",
    "identity_block",
    "stored_nbytes",
    "working_dtype",
    "zero_block",
    "EnergyOperator",
    "BatchedBlockTridiag",
    "build_a_batch",
    "bucket_by_width",
    "gemm_batched",
    "lu_factor_batched",
    "lu_solve_batched",
    "KernelBackend",
    "NumpyBackend",
    "backend_scope",
    "current_backend",
    "get_backend",
]
