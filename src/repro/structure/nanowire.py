"""Gate-all-around silicon nanowire generator (Fig. 1a of the paper).

A cylinder of diameter ``d`` is carved out of bulk diamond-lattice silicon,
with the wire axis along the <100> transport direction (x).  Surface atoms
with fewer than two bulk neighbours are pruned, mimicking the removal of
singly-coordinated atoms before hydrogen passivation in the paper's CP2K
structure preparation.
"""

from __future__ import annotations

import numpy as np

from repro.structure.lattice import (
    SI_LATTICE_CONSTANT,
    Structure,
    diamond_conventional_cell,
    replicate,
)
from repro.utils.errors import ConfigurationError


def silicon_nanowire(diameter_nm: float, length_cells: int,
                     a0: float = SI_LATTICE_CONSTANT,
                     prune_undercoordinated: bool = True) -> Structure:
    """Build a <100> Si nanowire.

    Parameters
    ----------
    diameter_nm : float
        Wire diameter (confinement in y and z).  The paper's large run uses
        d = 3.2 nm; tests use ~1 nm.
    length_cells : int
        Number of conventional cells (each ``a0`` long) along transport x.
        The lead unit cell of the transport problem is one such cell.
    prune_undercoordinated : bool
        Remove surface atoms with < 2 covalent neighbours (they would form
        unphysical dangling chains and spoil the bandgap).

    Returns
    -------
    Structure with ``periodic = [True, False, False]`` — the x periodicity
    refers to the lead continuation, matching the device setup of Eq. (5).
    """
    if diameter_nm <= 0:
        raise ConfigurationError("diameter_nm must be positive")
    if length_cells < 1:
        raise ConfigurationError("length_cells must be >= 1")

    ncross = int(np.ceil(diameter_nm / a0)) + 1
    bulk = replicate(diamond_conventional_cell(a0), length_cells,
                     ncross, ncross)

    # Center the cross-section and carve the cylinder.
    pos = bulk.positions
    yz = pos[:, 1:]
    center = (yz.max(axis=0) + yz.min(axis=0)) / 2.0
    r2 = ((yz - center) ** 2).sum(axis=1)
    keep = r2 <= (diameter_nm / 2.0) ** 2
    wire = bulk.select(keep)

    if prune_undercoordinated and wire.num_atoms:
        wire = _prune(wire, a0, length_cells)

    wire.periodic = np.array([True, False, False])
    wire.cell = np.diag([length_cells * a0, diameter_nm, diameter_nm])
    # Shift so the wire starts at x=0 exactly (lead alignment).
    wire.positions[:, 0] -= wire.positions[:, 0].min()
    return wire


def _prune(wire: Structure, a0: float, length_cells: int) -> Structure:
    """Iteratively remove atoms with < 2 bonded neighbours.

    Coordination is counted with x-periodic images so lead unit cells stay
    translationally identical (critical: OMEN requires every lead cell to
    produce the same H blocks).
    """
    # Nearest-neighbour bond length in diamond is sqrt(3)/4 * a0.
    bond_cutoff = np.sqrt(3.0) / 4.0 * a0 * 1.15
    lx = length_cells * a0
    while True:
        # Append periodic x-images of boundary atoms for coordination count.
        pos = wire.positions
        left = pos[:, 0] < bond_cutoff
        right = pos[:, 0] > pos[:, 0].max() - bond_cutoff
        ghost = np.vstack([pos[right] - [lx, 0, 0], pos[left] + [lx, 0, 0]])
        all_pos = np.vstack([pos, ghost])
        tmp = Structure(all_pos, np.array(["Si"] * len(all_pos)),
                        wire.cell, wire.periodic)
        pairs, _ = tmp.neighbor_pairs(bond_cutoff)
        coord = np.bincount(pairs.ravel(), minlength=len(all_pos))
        keep = coord[: wire.num_atoms] >= 2
        if keep.all() or not keep.any():
            return wire
        wire = wire.select(keep)


def nanowire_atom_count_estimate(diameter_nm: float, length_nm: float,
                                 a0: float = SI_LATTICE_CONSTANT) -> int:
    """Analytic estimate of the atom count of a <100> Si nanowire.

    Used by the paper-scale performance model where building the real
    55 488-atom structure would be wasteful: density 8/a0^3 times the
    cylinder volume.
    """
    density = 8.0 / a0 ** 3
    volume = np.pi / 4.0 * diameter_nm ** 2 * length_nm
    return int(round(density * volume))
