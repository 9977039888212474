"""Assembly of the transport system T = E S - H - Sigma^RB."""

from __future__ import annotations

import numpy as np

from repro.linalg import BlockTridiagonalMatrix, as_complex
from repro.linalg.arena import scratch
from repro.linalg.batched import BatchedBlockTridiag
from repro.utils.errors import ShapeError


def assemble_t(a: BlockTridiagonalMatrix, sigma_l: np.ndarray,
               sigma_r: np.ndarray) -> BlockTridiagonalMatrix:
    """Fold the boundary self-energies into the corner diagonal blocks.

    Returns a new matrix; ``a`` is untouched (SplitSolve relies on the
    Sigma-free A staying available).
    """
    s1 = a.block_sizes[0]
    s2 = a.block_sizes[-1]
    if sigma_l.shape != (s1, s1):
        raise ShapeError(
            f"sigma_l is {sigma_l.shape}, first block is {s1}x{s1}")
    if sigma_r.shape != (s2, s2):
        raise ShapeError(
            f"sigma_r is {sigma_r.shape}, last block is {s2}x{s2}")

    # Only the two corner diagonal blocks are modified; every other block
    # can be shared with ``a`` (no solver writes into its input blocks),
    # which keeps assembly O(s1^2 + s2^2) instead of O(total).  ``astype``
    # already copies, so the corners are always private; interior blocks
    # are converted only when they are not complex128 yet.
    diag = [as_complex(b) for b in a.diag]
    diag[0] = a.diag[0].astype(complex)
    if len(diag) > 1:
        diag[-1] = a.diag[-1].astype(complex)
    t = BlockTridiagonalMatrix(
        diag,
        [as_complex(b) for b in a.upper],
        [as_complex(b) for b in a.lower])
    t.diag[0] -= sigma_l
    t.diag[-1] -= sigma_r
    return t


def assemble_t_batched(a: BatchedBlockTridiag, sigma_l: np.ndarray,
                       sigma_r: np.ndarray) -> BatchedBlockTridiag:
    """Batched :func:`assemble_t`: fold per-energy self-energy stacks.

    ``sigma_l`` is ``(nE, s1, s1)`` and ``sigma_r`` is ``(nE, s2, s2)``
    — one boundary pair per energy of the batch.  Only the two corner
    diagonal stacks are copied; every interior stack is shared with
    ``a`` (same contract as the per-point assembly).
    """
    s1 = a.block_sizes[0]
    s2 = a.block_sizes[-1]
    ne = a.batch_size
    if sigma_l.shape != (ne, s1, s1):
        raise ShapeError(
            f"sigma_l stack is {sigma_l.shape}, expected {(ne, s1, s1)}")
    if sigma_r.shape != (ne, s2, s2):
        raise ShapeError(
            f"sigma_r stack is {sigma_r.shape}, expected {(ne, s2, s2)}")
    diag = [as_complex(b) for b in a.diag]
    diag[0] = a.diag[0].astype(complex)
    if len(diag) > 1:
        diag[-1] = a.diag[-1].astype(complex)
    t = BatchedBlockTridiag(
        diag,
        [as_complex(b) for b in a.upper],
        [as_complex(b) for b in a.lower],
        energies=a.energies)
    t.diag[0] -= sigma_l
    t.diag[-1] -= sigma_r
    return t


def boundary_rhs(block_sizes, b_top: np.ndarray,
                 b_bottom: np.ndarray) -> np.ndarray:
    """Assemble the sparse-top/bottom right-hand side Inj as a dense array.

    ``b_top`` is (s1, m), ``b_bottom`` is (s2, m) — either may have zero
    columns.  The result has one column per injected mode, non-zero only
    in the first and last block rows (Fig. 4).
    """
    s1, s2 = block_sizes[0], block_sizes[-1]
    n = int(np.sum(block_sizes))
    if b_top.shape[0] != s1:
        raise ShapeError(f"b_top has {b_top.shape[0]} rows, expected {s1}")
    if b_bottom.shape[0] != s2:
        raise ShapeError(
            f"b_bottom has {b_bottom.shape[0]} rows, expected {s2}")
    m = b_top.shape[1] + b_bottom.shape[1]
    # The rhs escapes into cached boundaries and solver results, so it
    # is an escape checkout: counted by the workspace, never pooled.
    rhs = scratch((n, m), complex, zero=True, escape=True,
                  tag="assemble.rhs")
    rhs[:s1, :b_top.shape[1]] = b_top
    rhs[n - s2:, b_top.shape[1]:] = b_bottom
    return rhs
