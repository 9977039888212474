"""Built-in solver registrations for the transport pipeline.

Each adapter solves ``(A - Sigma^RB) psi = Inj`` — the SOLVE stage
contract ``fn(a, ob, inj, *, num_partitions=1, info=None) -> psi`` —
and is registered in
:data:`repro.pipeline.registry.SOLVERS` under the names of the paper's
Fig. 8 comparison.  ``info`` (when a dict is passed) receives solver
diagnostics that end up as attributes of the SOLVE stage span.
"""

from __future__ import annotations

import numpy as np

from repro.pipeline.registry import register_solver
from repro.solvers.assemble import assemble_t
from repro.solvers.bcr import solve_bcr
from repro.solvers.direct import solve_direct
from repro.solvers.rgf import solve_rgf
from repro.solvers.splitsolve import SplitSolve


@register_solver("splitsolve", accelerated=True)
def _solve_splitsolve(a, ob, inj, *, num_partitions=1, info=None):
    """The paper's multi-accelerator algorithm (SMW + Algorithm 1 + SPIKE).

    Works on the Sigma-free A directly; the boundary self-energies enter
    through the low-rank Sherman-Morrison-Woodbury correction.

    SplitSolve takes the top-row and bottom-row right-hand sides as two
    separate column sets, so the mixed-side ``inj`` is split by injection
    side (left-injected columns live in the first block row, right-injected
    in the last) and the solution columns are scattered back into injected
    order.

    Sigma_L and the left injection are ``T10 @ ...``, Sigma_R and the
    right one ``T01 @ ...``: they vanish outside the column / row support
    of the lead's coupling block, known before any mode is and stored
    with the boundary, so Q is computed on those rows only and SplitSolve
    is handed the support's rows of Sigma and Inj.  A generic rhs
    promises nothing about its rows and gets every one.
    """
    s1 = a.block_sizes[0]
    s2 = a.block_sizes[-1]
    ntot = sum(a.block_sizes)
    from_left = ob.from_left
    per_mode = from_left.size == inj.shape[1]
    rows, cols = ob.support
    # partitions run one after the other: threads inside one point are
    # measured slower than the (k, E) parallelism around it
    ss = SplitSolve(a, num_partitions=num_partitions, parallel=False,
                    boundary_support=(cols, rows) if per_mode else None)
    if not per_mode:
        # generic rhs (not one column per injected mode): solve all
        # columns against both block rows
        psi = ss.solve(ob.sigma_l, ob.sigma_r, inj[:s1], inj[ntot - s2:, :0])
    else:
        c_l = np.zeros((cols.size, s1), dtype=complex)
        c_l[:, cols] = ob.sigma_l_block
        c_r = np.zeros((rows.size, s2), dtype=complex)
        c_r[:, rows] = ob.sigma_r_block
        b_top = inj[cols][:, from_left]
        b_bottom = inj[ntot - s2 + rows][:, ~from_left]
        x = ss.solve_support(c_l, c_r, b_top, b_bottom)
        psi = np.empty((ntot, inj.shape[1]), dtype=complex)
        psi[:, from_left] = x[:, :b_top.shape[1]]
        psi[:, ~from_left] = x[:, b_top.shape[1]:]
    if info is not None:
        info["phase_times"] = dict(ss.timer.stages)
        info["num_devices"] = ss.num_devices
    return psi


def _sigma(ob):
    """Sigma_L and Sigma_R as ``(index, block)`` pairs at the boundary's
    support."""
    rows, cols = ob.support
    return (cols, ob.sigma_l_block), (rows, ob.sigma_r_block)


@register_solver("rgf")
def _solve_rgf(a, ob, inj, *, num_partitions=1, info=None):
    """Recursive Green's function (block Thomas) [47] on the Sigma-free
    A(E), Sigma folded into its corner Schur blocks."""
    return solve_rgf(a, inj, *_sigma(ob))


@register_solver("bcr")
def _solve_bcr(a, ob, inj, *, num_partitions=1, info=None):
    """Block cyclic reduction (OMEN's legacy CPU solver) [33]."""
    return solve_bcr(assemble_t(a, *_sigma(ob)), inj)


@register_solver("direct")
def _solve_direct(a, ob, inj, *, num_partitions=1, info=None):
    """Sparse-direct LU (the MUMPS baseline)."""
    return solve_direct(assemble_t(a, *_sigma(ob)), inj)
