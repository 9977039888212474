"""Algorithm 1 of the paper: block-column inversion on one partition.

Computes the first and last block columns of A^{-1} for a block
tridiagonal A by two sweeps.  Each step is "two matrix-matrix
multiplications, one LU factorization, and one backward substitution" on
dense blocks — the cuBLAS zgemm / MAGMA zgesv_nopiv_gpu kernel mix whose
GPU execution the paper profiles in Fig. 12(b).

The coupling blocks are dense storage around the few interface orbitals
that couple two slabs; the sweeps read their exact support
(:class:`~repro.linalg.CouplingSupport`) and skip the zeros: X_i is solved
for the non-zero columns of its right-hand side only, the Schur update
touches the ``rows x cols`` sub-block of D_i it can change, and the Q
recursion contracts over X_i's non-zero columns.  The kernel mix per
block is the paper's; with full support so are the operand shapes.

The same holds at the boundary: of the block column only the
``columns`` a caller will read are computed - the closing solve takes
those columns of the identity as its right-hand side and the Q
recursion carries that width (the rows Sigma^RB and Inj can touch for
the device's outer columns, the row support of the coupling block a
SPIKE merge crosses for a partition's inner ones).

When A is Hermitian (real energy, 1-D/2-D structures) the Schur blocks
D_i = A_ii - A_{i,i+1} D_{i+1}^{-1} A_{i+1,i} are Hermitian too, enabling
the zhesv_nopiv_gpu variant that lifted the paper's sustained performance
from 12.8 to 15 PFlop/s (Section 5E).

Everything runs in the dtype of A: the sweeps never see a self-energy, so
a real A (real H, S and energy) gives real Schur blocks and a real Q
through ``dsytrf``/``dgetrf`` and ``dgemm``.
"""

from __future__ import annotations

import numpy as np

from repro.linalg import BlockTridiagonalMatrix, gemm, solve, working_dtype
from repro.utils.errors import ShapeError


def block_column_inverse(a: BlockTridiagonalMatrix, which: str = "first",
                         hermitian: bool = False, tag: str = "P1",
                         columns=None) -> list:
    """Return the blocks of one boundary block-column of A^{-1}.

    Parameters
    ----------
    which : "first" | "last"
        Which block column of the inverse to compute.
    hermitian : bool
        Use the Hermitian factorization path for the Schur blocks.
    columns : index array, optional
        The columns of that block column to compute (indices into the
        boundary block); default: all of them.

    Returns
    -------
    list of blocks ``q[i] = (A^{-1})_{i, 0}[:, columns]`` (or
    ``_{i, nB-1}``), i.e. the paper's Q_i with Q_{i,1:s} = A^{-1}_{i,1},
    cut to the columns something will read.
    """
    if which not in ("first", "last"):
        raise ShapeError(f"which must be 'first' or 'last', not {which!r}")
    nb = a.num_blocks
    assume = "her" if hermitian else "gen"
    sup = a.coupling_support()
    dtype = working_dtype(a.dtype)

    # The two sweeps are mirror images.  ``chain`` runs from the far end
    # to the boundary block whose inverse column is wanted; ``ahead[i]``
    # is block i's coupling to the next block of the chain and
    # ``behind[i]`` its coupling to the previous one, each as
    # ``(block, (rows, cols))``.
    below = dict(enumerate(zip(a.upper, sup.upper)))              # A[i, i+1]
    above = dict(enumerate(zip(a.lower, sup.lower), start=1))     # A[i, i-1]
    if which == "first":
        # downward sweep, phases P1/P3 of Fig. 6
        chain, ahead, behind = range(nb - 1, -1, -1), above, below
    else:
        chain, ahead, behind = range(nb), below, above

    # (A_ii - A[i, prev] X_prev) X_i = A[i, next]: X_i is kept as its
    # non-zero columns, the column support ``xcols`` of A[i, next].
    xs = [None] * nb
    x_prev = xcols = None
    for i in chain:
        # private: updated, then factored, in place (LAPACK's order)
        d = np.array(a.diag[i], dtype=dtype, order="F")
        if x_prev is not None:
            blk, (rows, cols) = behind[i]
            d[np.ix_(rows, xcols)] -= gemm(
                blk[np.ix_(rows, cols)].astype(dtype, copy=False),
                x_prev[cols], tag=tag)
        if i in ahead:
            blk, (_, xcols) = ahead[i]
            x_prev = xs[i] = solve(d, blk[:, xcols].astype(dtype, copy=False),
                                   assume_a=assume, tag=tag,
                                   overwrite_a=True)

    # Q_end = the wanted columns of D_end^{-1}, then Q_i = -X_i Q_next
    # back along the chain, contracting over the rows of Q_next that
    # X_i's columns meet.
    q = [None] * nb
    nxt = chain[-1]
    size = a.block_sizes[nxt]
    columns = np.arange(size) if columns is None else columns
    q[nxt] = solve(d, np.eye(size, dtype=dtype)[:, columns],
                   assume_a=assume, tag=tag, overwrite_a=True)
    for i in reversed(chain[:-1]):
        _, (_, xcols) = ahead[i]
        q[i] = -gemm(xs[i], q[nxt][xcols], tag=tag)
        nxt = i
    return q
