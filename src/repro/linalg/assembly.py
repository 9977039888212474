"""``A(E) = E*S - H``: per energy, only the blocks S touches.

The energy enters Eq. (5)'s operator through ``E*S`` alone.  OMEN builds
H and S once per k-point and runs the energy loop under them (Fig. 9);
here the same holds one level down, per block.  Where S's block is zero
the block of ``A(E)`` is ``E*0 - H``: ``E*0`` is a signed zero (real
E) or a complex of signed zeros, and which ones depends on E only
through the sign bits of Re E and Im E, whenever E is finite.  So that
block is built once per *sign class* and shared by every energy of the
class - in an orthogonal basis every coupling block of ``A(E)`` is, and
only the diagonal is paid per energy.  A potential adds ``V*S`` entries
to H on S's pattern only (``DeviceMatrices.with_potential``), so the
energy-free blocks are shared by every potential too.

:class:`EnergyOperator` is the one implementation of the rule;
``DeviceMatrices.a_matrix``, ``DeviceCache.a_matrix(_batch)`` and
:func:`build_a_batch` all go through it, and every block it returns has
the bits of ``scaled_sum(E, S_blk, -1, H_blk)`` in the dtype of
:func:`~repro.linalg.energy_scalars` - the parent assembly, signed zeros
included.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.linalg.batched import BatchedBlockTridiag
from repro.linalg.blocktridiag import (BlockTridiagonalMatrix,
                                       energy_scalars, is_zero_block,
                                       scaled_sum, sparse_blocks,
                                       stored_nbytes)
from repro.utils.errors import ShapeError


def sign_class(e) -> tuple | None:
    """The sign class of an energy scalar in the dtype of ``A(E)``:
    ``(kind, sign bit of Re E[, sign bit of Im E])``; ``None`` when E is
    not finite (``E*0`` is then a NaN of E's own making)."""
    if not np.isfinite(e):
        return None
    if np.iscomplexobj(e):
        return ("c", bool(np.signbit(e.real)), bool(np.signbit(e.imag)))
    return ("f", bool(np.signbit(e)))


def _representative(key: tuple):
    """An energy of sign class ``key``."""
    parts = [-1.0 if bit else 1.0 for bit in key[1:]]
    if key[0] == "c":
        return np.complex128(complex(*parts))
    return np.float64(parts[0])


def freeze(arrays) -> list:
    """Mark ``arrays`` read-only and return them as a list."""
    arrays = list(arrays)
    for b in arrays:
        b.flags.writeable = False
    return arrays


class EnergyOperator:
    """``A(E) = E*S - H`` of one S and one potential-free H.

    Parameters
    ----------
    s : BlockTridiagonalMatrix
        S's blocks; its :func:`~repro.linalg.blocktridiag.zero_block`
        positions are where ``A(E)`` does not depend on E.
    h : BlockTridiagonalMatrix or sparse matrix
        The H those energy-free blocks are built from (blocks picked, or
        cut from the sparse matrix by S's block sizes when first needed).

    Which blocks are per-energy (:attr:`touched`) and which energy-free
    (:attr:`free`) is decided here, once.  The energy-free blocks of a
    sign class are built on its first energy, read-only, under a lock.
    """

    def __init__(self, s: BlockTridiagonalMatrix, h):
        self.s = s
        self._h = h
        zero = [is_zero_block(b) for b in s.blocks()]
        #: flat positions where S is non-zero: one axpy per energy
        self.touched = tuple(p for p, z in enumerate(zero) if not z)
        #: flat positions where S is zero: one block per sign class
        self.free = tuple(p for p, z in enumerate(zero) if z)
        self._lock = threading.Lock()
        self._classes: dict = {}

    def h_blocks(self, h, positions) -> list:
        """The blocks of ``h`` (a block-tridiagonal or a sparse H) at
        flat ``positions``."""
        if isinstance(h, BlockTridiagonalMatrix):
            flat = h.blocks()
            return [flat[p] for p in positions]
        return sparse_blocks(h, self.s.block_sizes, positions)

    def scalars(self, energies) -> np.ndarray:
        """The energies in the dtype of ``A(E)``
        (:func:`~repro.linalg.energy_scalars`)."""
        return energy_scalars(energies, self._h, self.s)

    def free_blocks(self, e) -> list:
        """``A(e)``'s blocks at :attr:`free`, ``e`` an energy scalar in
        the dtype of ``A(E)``: the sign class's shared read-only blocks,
        or fresh ones for a non-finite ``e``."""
        key = sign_class(e)
        if key is None:
            return self._build_free(e)
        with self._lock:
            blocks = self._classes.get(key)
        if blocks is None:
            blocks = freeze(self._build_free(_representative(key)))
            with self._lock:
                blocks = self._classes.setdefault(key, blocks)
        return blocks

    def _build_free(self, e) -> list:
        """``E*S_blk - H_blk`` at :attr:`free`, H cut one block at a time."""
        flat = self.s.blocks()
        return [scaled_sum(e, flat[p], -1.0, self.h_blocks(self._h, [p])[0])
                for p in self.free]

    def stored_free_nbytes(self) -> int:
        """Bytes of the energy-free blocks of every class met so far."""
        with self._lock:
            return stored_nbytes(b for blocks in self._classes.values()
                                 for b in blocks)

    def assemble(self, energies, kept, structure=None) -> BatchedBlockTridiag:
        """Stacked ``A(E)`` for an energy vector.

        ``kept`` are H's blocks at :attr:`touched` (the potential's H):
        one broadcast axpy each.  Every energy-free block is the sign
        class's shared block, broadcast over the energies with a zero
        stride (stacked only when the energies span several classes).
        Slice ``j`` is bitwise the per-point assembly at
        ``energies[j]``.
        """
        e = self.scalars(list(energies)).reshape(-1, 1, 1)
        if e.size == 0:
            raise ShapeError("A(E) needs at least one energy")
        flat = self.s.blocks()
        out = [None] * len(flat)
        for p, h in zip(self.touched, kept, strict=True):
            out[p] = scaled_sum(e, flat[p][None], -1.0, h[None])
        if self.free:
            per_energy = [self.free_blocks(x) for x in e.ravel()]
            shared = all(f is per_energy[0] for f in per_energy)
            for k, p in enumerate(self.free):
                block = per_energy[0][k]
                if not shared:
                    out[p] = np.stack([f[k] for f in per_energy])
                elif e.size == 1:
                    out[p] = block[None]      # a view, cheaper to make
                else:
                    out[p] = np.broadcast_to(block, (e.size,) + block.shape)
        nb = self.s.num_blocks
        return BatchedBlockTridiag(out[:nb], out[nb:2 * nb - 1],
                                   out[2 * nb - 1:],
                                   energies=np.real(e).reshape(-1),
                                   structure=structure)


def build_a_batch(h: BlockTridiagonalMatrix, s: BlockTridiagonalMatrix,
                  energies, structure=None) -> BatchedBlockTridiag:
    """Stacked ``A(E) = E*S - H`` for a whole energy vector
    (:meth:`EnergyOperator.assemble`): slice ``j`` is bitwise the
    per-point ``s.scale_add(E_j, h, -1)`` in the dtype
    :func:`~repro.linalg.energy_scalars` gives the whole batch.
    ``structure`` is the one spanned by ``(h, s)``."""
    if h.block_sizes != s.block_sizes:
        raise ShapeError("build_a_batch: H and S block structure differs")
    op = EnergyOperator(s, h)
    return op.assemble(energies, op.h_blocks(h, op.touched), structure)
