"""Assembly of the transport system T = E S - H - Sigma^RB."""

from __future__ import annotations

import numpy as np

from repro.linalg import BlockTridiagonalMatrix, as_complex
from repro.linalg.arena import scratch
from repro.linalg.batched import BatchedBlockTridiag
from repro.utils.errors import ShapeError


def _on_support(sigma, size: int, name: str) -> tuple:
    """``(index, block)``: one side's Sigma is ``block`` at the ``index x
    index`` entries of its ``size x size`` corner and zero elsewhere; a
    dense corner-sized Sigma is the case of every index."""
    index, block = sigma if isinstance(sigma, tuple) \
        else (np.arange(size), sigma)
    if block.shape != (index.size, index.size) or np.any(index >= size):
        raise ShapeError(f"{name} is {block.shape} at {index.size} of the "
                         f"{size} rows of its corner block")
    return np.ix_(index, index), block


def _private_corners(a, cls, **kwargs):
    """``a`` as a complex ``cls`` whose two corner diagonal blocks are
    private copies, the only blocks assembly modifies.

    Every other block can be shared with ``a`` (no solver writes into its
    input blocks), which keeps assembly O(s1^2 + s2^2) instead of
    O(total).  ``astype`` already copies, so the corners are always
    private; interior blocks are converted only when they are not
    complex128 yet.
    """
    diag = [as_complex(b) for b in a.diag]
    diag[0] = a.diag[0].astype(complex)
    if len(diag) > 1:
        diag[-1] = a.diag[-1].astype(complex)
    return cls(diag, [as_complex(b) for b in a.upper],
               [as_complex(b) for b in a.lower], **kwargs)


def assemble_t(a: BlockTridiagonalMatrix, sigma_l,
               sigma_r) -> BlockTridiagonalMatrix:
    """Fold the boundary self-energies into the corner diagonal blocks.

    Each Sigma is a corner-sized dense array or an ``(index, block)``
    pair, the form an :class:`~repro.obc.selfenergy.OpenBoundary` stores:
    ``block`` is subtracted at the ``index x index`` entries alone.
    Returns a new matrix; ``a`` is untouched (SplitSolve relies on the
    Sigma-free A staying available).
    """
    corners = [_on_support(sigma_l, a.block_sizes[0], "sigma_l"),
               _on_support(sigma_r, a.block_sizes[-1], "sigma_r")]
    t = _private_corners(a, BlockTridiagonalMatrix)
    for i, (at, block) in zip((0, -1), corners):
        t.diag[i][at] -= block
    return t


def assemble_t_batched(a: BatchedBlockTridiag, sigma_l: np.ndarray,
                       sigma_r: np.ndarray) -> BatchedBlockTridiag:
    """Batched :func:`assemble_t`: fold per-energy self-energy stacks.

    ``sigma_l`` is ``(nE, s1, s1)`` and ``sigma_r`` is ``(nE, s2, s2)``
    — one boundary pair per energy of the batch.  Only the two corner
    diagonal stacks are copied; every interior stack is shared with
    ``a`` (same contract as the per-point assembly).
    """
    for name, sigma, s in (("sigma_l", sigma_l, a.block_sizes[0]),
                           ("sigma_r", sigma_r, a.block_sizes[-1])):
        if sigma.shape != (a.batch_size, s, s):
            raise ShapeError(f"{name} stack is {sigma.shape}, expected "
                             f"{(a.batch_size, s, s)}")
    t = _private_corners(a, BatchedBlockTridiag, energies=a.energies)
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
