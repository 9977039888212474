"""SplitSolve — the paper's multi-accelerator transport solver (Section 3B).

The algorithm rests on three ideas:

1. **Low-rank decoupling** (Sherman-Morrison-Woodbury): write
   T = A - B C with A = E S - H block tridiagonal and B C the boundary
   self-energy confined to the two corner blocks.  The expensive part —
   Q = A^{-1} B, the first and last block columns of A^{-1} at the rows
   the boundary can touch (the *boundary support*, read off the lead's
   coupling block; every row by default) — does not depend on the
   values of Sigma^RB, so it runs on the GPUs *while* FEAST computes
   the OBCs on the CPUs.

2. **Algorithm 1**: block-column inversion of each partition.  The
   paper runs the first and the last column as two mirror-image sweeps
   on a pair of accelerators; here one block-Thomas sweep gives both,
   factoring each Schur block once.

3. **SPIKE merging**: for p > 2 accelerators the matrix is split into
   horizontal partitions, each inverted locally, then merged pairwise and
   recursively (log2 p steps of constant cost).

Postprocessing (steps 2-4 of the paper) is a small solve, as large as
the boundary support (2s x 2s when that is every row), plus one gemm per
block.
"""

from repro.solvers.splitsolve.driver import SplitSolve
from repro.solvers.splitsolve.algorithm1 import boundary_columns
from repro.solvers.splitsolve.spike import PartitionColumns, merge_partitions

__all__ = [
    "SplitSolve",
    "boundary_columns",
    "PartitionColumns",
    "merge_partitions",
]
