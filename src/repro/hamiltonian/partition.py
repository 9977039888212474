"""Block partitioning of assembled matrices.

Maps the atom-level slab decomposition (:mod:`repro.structure.slabs`) to
orbital-level block sizes and cuts sparse H/S into the
:class:`~repro.linalg.BlockTridiagonalMatrix` layout of Fig. 4.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.linalg import BlockTridiagonalMatrix
from repro.utils.errors import ConfigurationError, ShapeError


def block_sizes_from_slabs(offsets, slab_index,
                           num_slabs: int) -> np.ndarray:
    """Orbital count per slab (block sizes of the transport matrix).

    ``offsets`` are the atoms' orbital offsets
    (:attr:`~repro.hamiltonian.builder.RealSpaceMatrices.offsets`).
    Requires the structure to already be slab-ordered (atoms of slab i
    contiguous and before slab i+1) — enforce with
    :func:`repro.structure.slabs.order_by_slab` first.
    """
    slab_index = np.asarray(slab_index)
    if np.any(np.diff(slab_index) < 0):
        raise ConfigurationError(
            "structure must be slab-ordered before block partitioning")
    sizes = np.zeros(num_slabs, dtype=int)
    np.add.at(sizes, slab_index, np.diff(offsets))
    if np.any(sizes == 0):
        raise ConfigurationError(
            f"empty slab(s) {np.nonzero(sizes == 0)[0].tolist()}: "
            "reduce num_slabs or use a denser structure")
    return sizes


def block_bandwidth(mat, block_sizes) -> int:
    """Largest |block_i - block_j| over the non-zeros of ``mat``.

    This is NBW: the inter-cell interaction range of Eq. (6).  1 means
    block tridiagonal; the DFT-surrogate basis typically yields 2.
    """
    coo = sp.coo_matrix(mat)
    offsets = np.concatenate([[0], np.cumsum(block_sizes)])
    if offsets[-1] != mat.shape[0]:
        raise ShapeError("block sizes do not cover the matrix")
    bi = np.searchsorted(offsets, coo.row, side="right") - 1
    bj = np.searchsorted(offsets, coo.col, side="right") - 1
    if len(bi) == 0:
        return 0
    return int(np.max(np.abs(bi - bj)))


def to_block_tridiagonal(mat, block_sizes,
                         strict: bool = True) -> BlockTridiagonalMatrix:
    """Cut ``mat`` into block-tridiagonal form.

    With ``strict=True`` (default) a :class:`ShapeError` is raised if any
    non-zero falls outside the band — silently dropping interactions would
    corrupt the physics.  Fold blocks first
    (:func:`repro.hamiltonian.folding.fold_block_sizes`) if NBW > 1.
    """
    if strict:
        nbw = block_bandwidth(mat, block_sizes)
        if nbw > 1:
            raise ShapeError(
                f"matrix has block bandwidth {nbw} > 1; fold "
                f"{nbw} blocks per super-block before cutting")
    return BlockTridiagonalMatrix.from_sparse(sp.csr_matrix(mat), block_sizes)
