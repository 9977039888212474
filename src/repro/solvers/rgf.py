"""Recursive Green's function (block Thomas) solver [47].

The workhorse of NEGF codes: a backward sweep builds the right-connected
inverses, a forward substitution recovers the solution.  Also provides the
Green's-function blocks (diagonal + boundary columns) needed for charge
and current densities in the NEGF route (Eq. 4).  There is one sweep:
:func:`solve_rgf_batched` runs it once per energy of a stack.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from repro.linalg import (BlockTridiagonalMatrix, as_complex, gemm,
                          lu_factor, lu_solve)
from repro.linalg.arena import scratch
from repro.linalg.batched import BatchedBlockTridiag
from repro.solvers.assemble import _on_support
from repro.utils.errors import ShapeError


def solve_rgf(t: BlockTridiagonalMatrix, b: np.ndarray, sigma_l=None,
              sigma_r=None, tag: str = "rgf") -> np.ndarray:
    """Solve (T - Sigma^RB) x = b by block backward/forward recursion.

    ``sigma_l`` / ``sigma_r`` (optional, in a form
    :func:`~repro.solvers.assemble_t` takes) are folded into the first /
    last Schur block, so ``t`` may be the Sigma-free A(E).  The sweep
    runs on ``t.coupling_support()``: block ``i + 1`` is solved only for
    the non-zero columns ``lc`` of ``T[i+1, i]`` next to the carried
    rhs, one gemm of ``T[i, i+1]``'s non-zero ``ru x uc`` sub-block
    gives the Schur update and the rhs carry, and the forward
    substitution is contracted over ``lc``.  Only the LU of each dense
    Schur block is cubic in s - O(nB * s^3), the linear-in-device-length
    scaling tight-binding OMEN was built on - and only the Schur blocks
    and the support sub-blocks are made complex.
    """
    offs = list(accumulate(t.block_sizes, initial=0))
    nb = t.num_blocks
    if b.shape[0] != offs[-1]:
        raise ShapeError(f"rhs has {b.shape[0]} rows, matrix {offs[-1]}")
    squeeze = b.ndim == 1
    if squeeze:
        b = b[:, None]
    b = as_complex(b)       # only read: the carries are fresh copies
    sup = t.coupling_support()
    folds = [(i, _on_support(sigma, t.block_sizes[i], name))
             for i, sigma, name in ((0, sigma_l, "sigma_l"),
                                    (nb - 1, sigma_r, "sigma_r"))
             if sigma is not None]

    # Backward sweep, bottom up: schur_i = T_ii - T_{i,i+1} X_{i+1}, with
    # [X_{i+1} | y_{i+1}] = inv(schur_{i+1}) [T_{i+1,i}[:, lc] | carry].
    facs, xs, ys = [None] * nb, [None] * nb, [None] * nb
    for i in range(nb - 1, -1, -1):
        schur = t.diag[i].astype(complex)       # private, complex
        for j, (at, sigma) in folds:
            if j == i:
                schur[at] -= sigma
        rhs = b[offs[i]:offs[i + 1]].copy()
        if i < nb - 1:
            (ru, uc), lc = sup.upper[i], sup.lower[i][1]
            sol = lu_solve(facs[i + 1],
                           np.hstack([t.lower[i][:, lc], carry]), tag=tag)
            xs[i + 1], ys[i + 1] = sol[:, :lc.size], sol[:, lc.size:]
            update = gemm(as_complex(t.upper[i][ru[:, None], uc]), sol[uc],
                          tag=tag)
            schur[ru[:, None], lc] -= update[:, :lc.size]
            rhs[ru] -= update[:, lc.size:]
        carry = rhs
        facs[i] = lu_factor(schur, tag=tag)

    # Forward substitution, x_i = y_i - X_i x_{i-1}[lc].  The result
    # outlives the call (it becomes psi), so it is an *escape* checkout:
    # accounted in the workspace telemetry, never pooled for reuse.
    x = scratch(b.shape, complex, escape=True, tag="rgf.x")
    x[offs[0]:offs[1]] = lu_solve(facs[0], carry, tag=tag)
    for i in range(1, nb):
        lc = sup.lower[i - 1][1]
        x[offs[i]:offs[i + 1]] = ys[i] - gemm(
            xs[i], x[offs[i - 1]:offs[i]][lc], tag=tag)
    return x[:, 0] if squeeze else x


def solve_rgf_batched(t: BatchedBlockTridiag, b: np.ndarray,
                      tag: str = "rgf") -> np.ndarray:
    """Solve T[e] x[e] = b[e] for an energy stack, energy by energy.

    ``b`` is ``(nE, n, m)``; slice ``e`` of the result is
    :func:`solve_rgf` on ``t.point(e)`` and ``b[e]``, bit for bit, with
    its kernels on the ledger as that call records them.
    """
    b = np.asarray(b)
    if b.ndim != 3:
        raise ShapeError(f"batched rhs must be (nE, n, m), got {b.shape}")
    if b.shape[0] != t.batch_size:
        raise ShapeError(f"rhs batch {b.shape[0]} != matrix batch "
                         f"{t.batch_size}")
    n = t.block_offsets()[-1]
    if b.shape[1] != n:
        raise ShapeError(f"rhs has {b.shape[1]} rows, matrix {n}")
    return np.stack([solve_rgf(t.point(j), b[j], tag=tag)
                     for j in range(t.batch_size)])


def rgf_greens_blocks(t: BlockTridiagonalMatrix, tag: str = "rgf-g"):
    """Diagonal blocks and boundary block-columns of G = T^{-1}.

    Returns ``(g_diag, g_first_col, g_last_col)`` where ``g_diag[i]`` is
    G_{ii}, ``g_first_col[i]`` is G_{i,0} and ``g_last_col[i]`` is
    G_{i,nB-1} — everything NEGF needs for density (diagonal), injection
    (first/last columns), and transmission (corner blocks).
    """
    nb = t.num_blocks
    # Convert every block once; the three recursions below reuse them.
    diag = [as_complex(d) for d in t.diag]
    upper = [as_complex(u) for u in t.upper]
    lower = [as_complex(l) for l in t.lower]
    # Right-connected Green's functions gR_i (standard RGF).
    g_right = [None] * nb
    fac = lu_factor(diag[nb - 1], tag=tag)
    g_right[nb - 1] = lu_solve(fac, np.eye(t.block_sizes[-1],
                                           dtype=complex), tag=tag)
    for i in range(nb - 2, -1, -1):
        tmp = gemm(upper[i], gemm(g_right[i + 1], lower[i], tag=tag),
                   tag=tag)
        fac = lu_factor(diag[i] - tmp, tag=tag)
        g_right[i] = lu_solve(fac, np.eye(t.block_sizes[i], dtype=complex),
                              tag=tag)

    # Full diagonal blocks, and the first column via downward recursion:
    # G_{i,0} = -gR_i T_{i,i-1} G_{i-1,0};  G_{00} = gR_0.
    g_diag = [None] * nb
    g_first = [None] * nb
    g_diag[0] = g_right[0]
    g_first[0] = g_right[0]
    for i in range(1, nb):
        g_first[i] = -gemm(g_right[i],
                           gemm(lower[i - 1], g_first[i - 1], tag=tag),
                           tag=tag)
        # Dyson: G_ii = gR_i + gR_i T_{i,i-1} G_{i-1,i-1} T_{i-1,i} gR_i
        left = gemm(g_right[i], lower[i - 1], tag=tag)
        right = gemm(upper[i - 1], g_right[i], tag=tag)
        g_diag[i] = g_right[i] + gemm(left, gemm(g_diag[i - 1], right,
                                                 tag=tag), tag=tag)

    # Last column by the mirrored recursion using left-connected GFs.
    g_left = [None] * nb
    fac = lu_factor(diag[0], tag=tag)
    g_left[0] = lu_solve(fac, np.eye(t.block_sizes[0], dtype=complex),
                         tag=tag)
    for i in range(1, nb):
        tmp = gemm(lower[i - 1], gemm(g_left[i - 1], upper[i - 1], tag=tag),
                   tag=tag)
        fac = lu_factor(diag[i] - tmp, tag=tag)
        g_left[i] = lu_solve(fac, np.eye(t.block_sizes[i], dtype=complex),
                             tag=tag)
    g_last = [None] * nb
    g_last[nb - 1] = g_diag[nb - 1]
    for i in range(nb - 2, -1, -1):
        g_last[i] = -gemm(g_left[i],
                          gemm(upper[i], g_last[i + 1], tag=tag), tag=tag)
    return g_diag, g_first, g_last
