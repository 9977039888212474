"""Device-level matrix preparation: the OMEN input stage.

Combines structure ordering, matrix assembly, k-space folding, NBW
detection, lead-block extraction, and supercell folding into the single
object the transport solvers consume — the equivalent of OMEN's setup
phase after loading the CP2K binary files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from repro.hamiltonian.builder import RealSpaceMatrices, build_matrices
from repro.hamiltonian.folding import fold_block_sizes, fold_lead_blocks
from repro.hamiltonian.kspace import assemble_k
from repro.hamiltonian.partition import (
    block_bandwidth,
    block_sizes_from_slabs,
    to_block_tridiagonal,
)
from repro.linalg import BlockTridiagonalMatrix, EnergyOperator
from repro.structure.slabs import assign_slabs, order_by_slab
from repro.utils.errors import ConfigurationError


@dataclass
class LeadBlocks:
    """Contact-cell blocks of one lead.

    ``h_cells[l]``/``s_cells[l]`` are the per-unit-cell blocks H_{q,q+l}
    (Eq. 6) for l = 0..NBW; ``h00/h01/s00/s01`` the supercell-folded
    nearest-neighbour form used to build the boundary self-energy.
    """

    h_cells: list
    s_cells: list
    h00: np.ndarray
    h01: np.ndarray
    s00: np.ndarray
    s01: np.ndarray

    @property
    def nbw(self) -> int:
        return len(self.h_cells) - 1

    @property
    def folded_size(self) -> int:
        return self.h00.shape[0]


@dataclass
class DeviceMatrices:
    """Everything the transport solvers need for one (structure, k) pair."""

    structure: object
    basis: object
    kpoint: tuple
    hmat: sp.csr_matrix
    smat: sp.csr_matrix
    cell_sizes: np.ndarray      # orbitals per unit-cell slab (unfolded)
    block_sizes: list           # folded (block-tridiagonal) sizes
    lead: LeadBlocks            # identical left/right leads (flat-band)
    atom_slab: np.ndarray       # slab index per (ordered) atom
    orbital_offsets: np.ndarray

    @property
    def num_orbitals(self) -> int:
        return self.hmat.shape[0]

    @property
    def num_cells(self) -> int:
        return len(self.cell_sizes)

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    def h_blocks(self) -> BlockTridiagonalMatrix:
        return to_block_tridiagonal(self.hmat, self.block_sizes)

    def s_blocks(self) -> BlockTridiagonalMatrix:
        return to_block_tridiagonal(self.smat, self.block_sizes)

    def a_matrix(self, energy: float) -> BlockTridiagonalMatrix:
        """A(E) = E*S - H as block-tridiagonal, Eq. (5) LHS before the
        boundary self-energy is subtracted: float64 for real H, S and
        energy (:func:`repro.linalg.energy_scalars`), else complex128.
        Built by :class:`~repro.linalg.EnergyOperator`, as a
        :class:`~repro.pipeline.DeviceCache` builds it, with nothing
        kept."""
        op = EnergyOperator(self.s_blocks(), self.hmat)
        return op.assemble([energy], op.h_blocks(self.hmat, op.touched)) \
            .point(0)

    def with_potential(self, v_atom: np.ndarray) -> "DeviceMatrices":
        """Return a copy with an electrostatic potential applied.

        ``v_atom[i]`` is the potential energy shift (eV) at atom i.  In a
        non-orthogonal basis a local potential enters as
        H'_{mu nu} = H_{mu nu} + (V_i + V_j)/2 * S_{mu nu}, which keeps H'
        Hermitian and reduces to a diagonal shift for S = 1.  H changes
        only where S has a stored entry, so every block of A(E) where S
        has none is the same at any potential.

        The caller must keep the potential flat over the contact cells —
        otherwise the lead blocks stored here would no longer describe the
        actual boundary (the same requirement OMEN's Poisson solver
        enforces with Neumann conditions at the contacts).
        """
        v_atom = np.asarray(v_atom, dtype=float)
        if v_atom.shape != (self.structure.num_atoms,):
            raise ConfigurationError(
                "v_atom must have one entry per (ordered) atom")
        offs = self.orbital_offsets
        v_orb = np.repeat(v_atom, np.diff(offs))
        coo = sp.coo_matrix(self.smat)
        vmean = 0.5 * (v_orb[coo.row] + v_orb[coo.col])
        shift = sp.csr_matrix((coo.data * vmean, (coo.row, coo.col)),
                              shape=self.smat.shape)
        new_h = (self.hmat + shift).tocsr()
        return DeviceMatrices(
            structure=self.structure, basis=self.basis, kpoint=self.kpoint,
            hmat=new_h, smat=self.smat, cell_sizes=self.cell_sizes,
            block_sizes=self.block_sizes, lead=self.lead,
            atom_slab=self.atom_slab, orbital_offsets=self.orbital_offsets)


def extract_lead_blocks(mat, cell_sizes, nbw: int, q: int = 0) -> list:
    """Cut the per-cell lead blocks M_{q,q+l}, l = 0..NBW, of H or S."""
    offs = np.concatenate([[0], np.cumsum(cell_sizes)])
    if q + nbw >= len(cell_sizes):
        raise ConfigurationError(
            f"need at least {q + nbw + 1} cells to extract NBW={nbw} blocks")
    rows = sp.csr_matrix(mat)[offs[q]:offs[q + 1]]
    return [np.asarray(rows[:, offs[q + l]:offs[q + l + 1]].todense())
            for l in range(nbw + 1)]


class RealSpaceDevice(NamedTuple):
    """The k-independent half of a device, built once per family."""

    matrices: RealSpaceMatrices
    atom_slab: np.ndarray
    cell_sizes: np.ndarray


def real_space_device(structure, basis, num_cells: int) -> RealSpaceDevice:
    """Order ``structure`` by unit cell along x and build its H_R / S_R."""
    if num_cells < 2:
        raise ConfigurationError("need at least 2 unit cells")
    slab = assign_slabs(structure, num_cells)
    ordered, _, slab = order_by_slab(structure, slab)
    rsm = build_matrices(ordered, basis)
    return RealSpaceDevice(rsm, slab, block_sizes_from_slabs(
        rsm.offsets, slab, num_cells))


def build_device(structure, basis, num_cells: int,
                 kpoint=(0.0, 0.0)) -> DeviceMatrices:
    """Assemble a transport-ready device from a lead-periodic structure.

    The structure must consist of ``num_cells`` translationally identical
    unit cells along x (as produced by the generators in
    :mod:`repro.structure`); the leads are taken to be semi-infinite
    continuations of the end cells, the standard flat-band setup of the
    paper's benchmarks.  One k-point of :func:`device_at_k`.
    """
    return device_at_k(real_space_device(structure, basis, num_cells),
                       kpoint)


def device_at_k(real: RealSpaceDevice, kpoint=(0.0, 0.0)) -> DeviceMatrices:
    """The device at transverse momentum ``kpoint``: H(k), S(k), NBW and
    the lead blocks, from the k-independent half."""
    rsm, slab, cell_sizes = real
    hk, sk = assemble_k(rsm, kpoint)
    num_cells = len(cell_sizes)
    nbw = max(block_bandwidth(hk, cell_sizes),
              block_bandwidth(sk, cell_sizes))
    if nbw == 0:
        nbw = 1  # decoupled cells: treat as trivially tridiagonal
    if num_cells < 2 * nbw:
        raise ConfigurationError(
            f"{num_cells} cells cannot hold 2 supercells at NBW={nbw}")

    h_cells = extract_lead_blocks(hk, cell_sizes, nbw)
    s_cells = extract_lead_blocks(sk, cell_sizes, nbw)
    _check_lead_periodicity(hk, h_cells, cell_sizes, nbw)
    h00, h01 = fold_lead_blocks(h_cells, nbw)
    s00, s01 = fold_lead_blocks(s_cells, nbw)
    lead = LeadBlocks(h_cells=h_cells, s_cells=s_cells,
                      h00=h00, h01=h01, s00=s00, s01=s01)

    block_sizes = fold_block_sizes(list(cell_sizes), nbw)
    return DeviceMatrices(
        structure=rsm.structure, basis=rsm.basis, kpoint=tuple(kpoint),
        hmat=hk, smat=sk, cell_sizes=cell_sizes,
        block_sizes=block_sizes, lead=lead, atom_slab=slab,
        orbital_offsets=rsm.offsets)


def synthetic_device_from_lead(lead: LeadBlocks,
                               num_blocks: int) -> DeviceMatrices:
    """A pristine device made of ``num_blocks`` repeated lead supercells.

    Used for perfect-wire validation (T(E) = mode count) and for
    transport on scissor-corrected leads (Fig. 1b), where no atomistic
    structure backs the corrected blocks.  ``structure``-dependent
    methods (``with_potential``) are unavailable on the result.
    """
    if num_blocks < 2:
        raise ConfigurationError("need at least 2 blocks")
    n = lead.folded_size
    diag = [np.asarray(lead.h00)] * num_blocks
    upper = [np.asarray(lead.h01)] * (num_blocks - 1)
    lower = [np.asarray(lead.h01).conj().T] * (num_blocks - 1)
    hmat = BlockTridiagonalMatrix(diag, upper, lower).to_sparse()
    sdiag = [np.asarray(lead.s00)] * num_blocks
    supper = [np.asarray(lead.s01)] * (num_blocks - 1)
    slower = [np.asarray(lead.s01).conj().T] * (num_blocks - 1)
    smat = BlockTridiagonalMatrix(sdiag, supper, slower).to_sparse()
    return DeviceMatrices(
        structure=None, basis=None, kpoint=(0.0, 0.0),
        hmat=hmat, smat=smat,
        cell_sizes=np.full(num_blocks, n),
        block_sizes=[n] * num_blocks, lead=lead,
        atom_slab=np.arange(num_blocks),
        orbital_offsets=np.arange(0, n * num_blocks + 1, n))


def _check_lead_periodicity(hk, h_cells, cell_sizes, nbw: int, atol=1e-9):
    """Verify the contact cells are translationally identical.

    The device interior may be arbitrary (disorder, Li insertion, ...) —
    only the cells feeding the lead-block extraction must repeat: cell 0
    (``h_cells``) must equal cell 1 block-for-block up to range NBW.
    Structures must therefore provide at least NBW + 2 crystalline cells
    per contact (see e.g. the ``contact_cells`` parameter of the anode
    generator).
    """
    if len(cell_sizes) < nbw + 2:
        return
    second_cells = extract_lead_blocks(hk, cell_sizes, nbw, q=1)
    for l, (first, second) in enumerate(zip(h_cells, second_cells)):
        if first.shape != second.shape:
            raise ConfigurationError(
                f"contact cells 0 and 1 differ in size "
                f"({first.shape} vs {second.shape}); the lead region "
                f"must be translationally periodic")
        err = np.max(np.abs(first - second)) if first.size else 0.0
        if err > atol:
            raise ConfigurationError(
                f"lead cells are not translationally identical "
                f"(block l={l} differs by {err:.2e}); transport "
                f"requires periodic contact cells")
