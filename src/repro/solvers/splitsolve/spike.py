"""Recursive SPIKE merging of partition inverses (paper Fig. 6, [48]).

Each partition p of the block-tridiagonal A owns its local inverse
boundary columns V^f = A_p^{-1} e_first and V^l = A_p^{-1} e_last
(computed by Algorithm 1).  Merging two adjacent partitions into one uses
only the coupling blocks between them and small corner solves, followed by
thin per-row updates — the "spikes" whose generation the paper times at
~10 s per recursive step.  log2(p) merge steps produce the global first
and last block columns of A^{-1} - at the columns the boundary support
names; every intermediate V holds only the columns a later step reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.linalg import block_support, gemm, solve, working_dtype
from repro.linalg.flops import current_ledger, device_scope, ledger_scope
from repro.observability.spans import current_tracer
from repro.utils.errors import ShapeError


@dataclass
class PartitionColumns:
    """Boundary columns of one (possibly merged) partition's inverse.

    ``first[i]``/``last[i]`` are the block-row i pieces of
    A_p^{-1} e_first / A_p^{-1} e_last, stored at the columns
    ``first_cols``/``last_cols`` only (sorted indices into the
    partition's first/last block): the rows the boundary can touch on
    the device's outer sides, the row support of the coupling block the
    next merge crosses on the inner ones.  ``devices[i]`` names the
    simulated accelerator holding row i (flop attribution + memory
    model).
    """

    first: list
    last: list
    devices: list
    first_cols: np.ndarray
    last_cols: np.ndarray

    @property
    def num_block_rows(self) -> int:
        return len(self.first)

    def validate(self):
        if not (len(self.first) == len(self.last) == len(self.devices)):
            raise ShapeError("PartitionColumns lists must align")
        for side, blocks, cols in (("first", self.first, self.first_cols),
                                   ("last", self.last, self.last_cols)):
            if any(b.shape[1] != len(cols) for b in blocks):
                raise ShapeError(
                    f"PartitionColumns.{side} blocks are not "
                    f"{len(cols)} columns wide")
        return self


def merge_partitions(top: PartitionColumns, bottom: PartitionColumns,
                     coupling_upper: np.ndarray,
                     coupling_lower: np.ndarray,
                     executor=None, tag: str = "spike",
                     support=None) -> PartitionColumns:
    """Merge two adjacent partitions' inverse boundary columns.

    Parameters
    ----------
    coupling_upper : A_{last(top), first(bottom)} (the global upper block)
    coupling_lower : A_{first(bottom), last(top)}
    support : ``((rows, cols) of coupling_upper, (rows, cols) of
        coupling_lower)`` when the caller holds it (the driver passes the
        matrix's, the same at every energy); default: the blocks' own
        ``!= 0`` support.

    Notes
    -----
    Derivation (Sherman-Morrison on the 2x2 partition structure): with
    P = top, S = bottom, xi = (x_P)_last of the merged first column solves

        (1 - V^l_P[-1] Bc V^f_S[0] Cc) xi = V^f_P[-1],

    then x_P = V^f_P + V^l_P (Bc V^f_S[0] Cc xi) and
    x_S = -V^f_S (Cc xi); the merged last column is the mirror image.
    The corner solves are tiny; the V-updates are one thin gemm per block
    row and constitute the spike cost.  Only xi's rows cols(Cc) are ever
    read, and the corner matrix differs from 1 only in those columns, so
    with them ordered first it is block-triangular: xi[cols(Cc)] solves
    the |cols(Cc)|-square system cut to those rows and columns, which is
    the one solved (the last column's zeta likewise on cols(Bc)).

    Bc and Cc enter as their non-zero sub-blocks: a product with a
    coupling block on the left has its row support, one with it on the
    right its column support, so every operand below is cut to the index
    sets that can contribute - the update weights ``coupling @ something``
    in particular have the coupling's few rows, and the per-row updates
    contract over those.  The columns a merge reads of ``top.last`` and
    ``bottom.first`` are therefore rows(Bc) and rows(Cc), and those are
    the columns the two must hold (:class:`ShapeError` otherwise);
    ``top.first`` and ``bottom.last`` keep whatever column sets they
    came with and pass them on to the merged partition.
    """
    coupling_upper = np.asarray(coupling_upper)
    coupling_lower = np.asarray(coupling_lower)
    if support is None:
        support = (block_support(coupling_upper),
                   block_support(coupling_lower))
    (rb, cb), (rc, cl) = support
    if not (np.array_equal(top.last_cols, rb)
            and np.array_equal(bottom.first_cols, rc)):
        raise ShapeError(
            "merge_partitions: the partitions' inner columns are not the "
            "row supports of the coupling blocks between them")
    vpf_last = top.first[-1]
    vpl_last = top.last[-1]         # columns rows(Bc)
    vsf_first = bottom.first[0]     # columns rows(Cc)
    vsl_first = bottom.last[0]
    # the dtype of the matrix the columns came from: real for a real A
    dtype = working_dtype(coupling_upper, coupling_lower, vpl_last, vsf_first)
    bc = coupling_upper[np.ix_(rb, cb)].astype(dtype, copy=False)
    cc = coupling_lower[np.ix_(rc, cl)].astype(dtype, copy=False)

    with device_scope(top.devices[-1]):
        # --- merged FIRST column ---
        # Bc V^f_S[0] Cc on rows(Bc) x cols(Cc)
        bvc = gemm(bc, gemm(vsf_first[cb], cc, tag=tag), tag=tag)
        lhs = np.eye(cl.size, dtype=dtype, order="F")
        lhs -= gemm(vpl_last[cl], bvc, tag=tag)
        xi = solve(lhs, vpf_last[cl], tag=tag,
                   overwrite_a=True)                # the rows Cc meets
        w_first = gemm(bvc, xi, tag=tag)            # update weight for top
        cc_xi = gemm(cc, xi, tag=tag)               # weight for bottom

        # --- merged LAST column ---
        # Cc V^l_P[-1] Bc on rows(Cc) x cols(Bc)
        cvb = gemm(cc, gemm(vpl_last[cl], bc, tag=tag), tag=tag)
        lhs2 = np.eye(cb.size, dtype=dtype, order="F")
        lhs2 -= gemm(vsf_first[cb], cvb, tag=tag)
        zeta = solve(lhs2, vsl_first[cb], tag=tag,
                     overwrite_a=True)              # the rows Bc meets
        w_last = gemm(cvb, zeta, tag=tag)           # update weight, bottom
        bc_zeta = gemm(bc, zeta, tag=tag)           # weight for top

    # Merge communication accounting: every array that crosses the
    # partition boundary (coupling blocks in, corner columns in, update
    # weights broadcast back out to both partitions' rows).  On the real
    # machine these are the MPI/NVLink transfers of the recursive SPIKE
    # step; here a metrics counter makes them visible to the reports.
    tracer = current_tracer()
    if tracer is not None:
        moved = sum(arr.nbytes for arr in (
            bc, cc, vpf_last, vpl_last, vsf_first, vsl_first,
            w_first, cc_xi, w_last, bc_zeta))
        tracer.metrics.counter("splitsolve_merge_bytes").inc(int(moved))
        tracer.metrics.counter("splitsolve_merges").inc()

    # Both update weights for a side are broadcast together, and each
    # block row applies them with ONE fused gemm, as wide as the merged
    # first and last column sets together, instead of one gemm per
    # column: identical flop count, but top.last[i] / bottom.first[i]
    # stream through memory once instead of twice — the spike traffic
    # is the merge's dominant byte mover.  The weights for the top live
    # on rows(Bc), those for the bottom on rows(Cc).
    w_top = np.hstack([w_first, bc_zeta])
    w_bot = np.hstack([cc_xi, w_last])
    nf = w_first.shape[1]
    ledger = current_ledger()   # the executor's threads record into it too

    def _update_top(i):
        with ledger_scope(ledger), device_scope(top.devices[i]):
            upd = gemm(top.last[i], w_top, tag=tag)
            newf = top.first[i] + upd[:, :nf]
            newl = -upd[:, nf:]
        return newf, newl

    def _update_bottom(i):
        with ledger_scope(ledger), device_scope(bottom.devices[i]):
            upd = gemm(bottom.first[i], w_bot, tag=tag)
            newf = -upd[:, :nf]
            newl = bottom.last[i] + upd[:, nf:]
        return newf, newl

    if executor is not None:
        top_res = list(executor.map(_update_top, range(top.num_block_rows)))
        bot_res = list(executor.map(_update_bottom,
                                    range(bottom.num_block_rows)))
    else:
        top_res = [_update_top(i) for i in range(top.num_block_rows)]
        bot_res = [_update_bottom(i) for i in range(bottom.num_block_rows)]

    first = [f for f, _ in top_res] + [f for f, _ in bot_res]
    last = [l for _, l in top_res] + [l for _, l in bot_res]
    return PartitionColumns(first=first, last=last,
                            devices=top.devices + bottom.devices,
                            first_cols=top.first_cols,
                            last_cols=bottom.last_cols).validate()
