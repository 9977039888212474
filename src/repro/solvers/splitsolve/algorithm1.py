"""Algorithm 1 of the paper: block-column inversion on one partition.

Computes the first and last block columns of A^{-1} for a block
tridiagonal A by one top-down block-Thomas sweep: each Schur block
D_i = A_ii - A_{i,i-1} X_{i-1} is factored once, for X_i = D_i^{-1}
A_{i,i+1} and the forward-substituted first column z_i together, and
the back-substitution gives Q^l_i = -X_i Q^l_{i+1} and Q^f_i = z_i -
X_i Q^f_{i+1} with one gemm per block - the cuBLAS zgemm / MAGMA
zgesv_nopiv_gpu kernel mix the paper profiles in Fig. 12(b).  The paper
runs the two columns as mirror-image sweeps on a pair of GPUs, which
serially would factor every D_i twice.

The coupling blocks are dense storage around the few interface orbitals
that couple two slabs; the sweep reads their exact support
(:class:`~repro.linalg.CouplingSupport`) and skips the zeros: X_i is
solved for the non-zero columns of A_{i,i+1} only, the Schur update and
the forward right-hand side are one gemm on the ``rows x cols``
sub-block of A_{i,i-1}, and the back-substitution contracts over X_i's
non-zero columns.  At the boundary only the columns a caller will read
are computed: the rows Sigma^RB and Inj can touch for the device's
outer columns, the row support of the coupling block a SPIKE merge
crosses for a partition's inner ones.

When A is Hermitian (real energy, 1-D/2-D structures) the Schur blocks
are Hermitian too, enabling the zhesv_nopiv_gpu variant that lifted the
paper's sustained performance from 12.8 to 15 PFlop/s (Section 5E).
Everything runs in the dtype of A: the sweep never sees a self-energy,
so a real A (real H, S and energy) gives real Schur blocks and a real Q
through ``dsytrf``/``dgetrf`` and ``dgemm``.
"""

from __future__ import annotations

import numpy as np

from repro.linalg import BlockTridiagonalMatrix, gemm, solve, working_dtype
from repro.linalg.flops import current_device, device_scope


def boundary_columns(a: BlockTridiagonalMatrix, first_cols=None,
                     last_cols=None, hermitian: bool = False,
                     tag: str = "P1", devices=None) -> tuple:
    """Return the first and last block columns of A^{-1}, one sweep.

    Parameters
    ----------
    first_cols, last_cols : index array, optional
        The columns of the first / last block column to compute
        (indices into the first / last block); default: all of them.
    hermitian : bool
        Use the Hermitian factorization path for the Schur blocks.
    devices : list of str, optional
        The simulated accelerator recording block i's step; default: the
        caller's device for every block.

    Returns
    -------
    ``(first, last)``, lists of blocks ``first[i] = (A^{-1})_{i, 0}
    [:, first_cols]`` and ``last[i] = (A^{-1})_{i, nB-1}[:, last_cols]``,
    the paper's Q_i cut to the columns something will read.
    """
    nb = a.num_blocks
    sizes = a.block_sizes
    assume = "her" if hermitian else "gen"
    sup = a.coupling_support()
    dtype = working_dtype(a.dtype)
    first_cols = np.arange(sizes[0]) if first_cols is None else first_cols
    last_cols = np.arange(sizes[-1]) if last_cols is None else last_cols
    devices = devices or [current_device()] * nb
    wf, wl = len(first_cols), len(last_cols)

    # Forward: D_i [X_i | z_i] = [A[i, i+1][:, xcols] | -A[i, i-1] z_{i-1}],
    # with eye[:, last_cols] for X at the last block, eye[:, first_cols]
    # for z at the first.
    xz = []
    for i in range(nb):
        with device_scope(devices[i]):
            # private: updated, then factored, in place (LAPACK's order)
            d = np.array(a.diag[i], dtype=dtype, order="F")
            last = i == nb - 1
            xcols = last_cols if last else sup.upper[i][1]
            nx = len(xcols)
            rhs = np.zeros((sizes[i], nx + wf), dtype=dtype, order="F")
            if last:
                rhs[last_cols, np.arange(wl)] = 1
            else:
                rhs[:, :nx] = a.upper[i][:, xcols]
            if i == 0:
                rhs[first_cols, nx + np.arange(wf)] = 1
            else:
                # one gemm: the Schur update and the forward rhs
                rows, cols = sup.lower[i - 1]
                prev = xz[-1]
                npx = prev.shape[1] - wf
                upd = gemm(a.lower[i - 1][np.ix_(rows, cols)].astype(
                    dtype, copy=False), prev[cols], tag=tag)
                d[np.ix_(rows, sup.upper[i - 1][1])] -= upd[:, :npx]
                rhs[rows, nx:] = -upd[:, npx:]
            xz.append(solve(d, rhs, assume_a=assume, tag=tag,
                            overwrite_a=True))

    # Back: [Q^l | Q^f]_i = [0 | z_i] - X_i [Q^l | Q^f]_{i+1}[xcols],
    # starting from the last block's solve, which is [Q^l | Q^f] there.
    q = [None] * nb
    q[-1] = xz[-1]
    for i in range(nb - 2, -1, -1):
        with device_scope(devices[i]):
            xcols = sup.upper[i][1]
            nx = len(xcols)
            p = gemm(xz[i][:, :nx], q[i + 1][xcols], tag=tag)
            np.negative(p[:, :wl], out=p[:, :wl])
            np.subtract(xz[i][:, nx:], p[:, wl:], out=p[:, wl:])
            q[i] = p
    return [b[:, wl:] for b in q], [b[:, :wl] for b in q]
