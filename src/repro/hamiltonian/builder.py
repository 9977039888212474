"""Assembly of real-space H and S matrices from a structure and basis.

The builder produces *image-resolved* matrices: for every transverse
periodic image shift R = (n_y, n_z) within the interaction cutoff it
returns sparse H_R, S_R with

    H(k) = sum_R exp(2 pi i k . R) H_R                      (Hermitian)

assembled later by :mod:`repro.hamiltonian.kspace`.  The transport axis x
is never wrapped: the device region is finite and its contact continuation
is handled by the open boundary conditions (Eq. 5), exactly as in OMEN.

No loop runs over atoms or bonds: an image's bonds are index arrays, and
each (species, species) group of them is one stacked block build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.basis.shells import BasisSet
from repro.hamiltonian.slater_koster import (
    ETA_HAMILTONIAN,
    ETA_OVERLAP,
    atom_pair_blocks,
    onsite_energies,
)
from repro.structure.lattice import neighbor_search
from repro.utils.errors import ConfigurationError


@dataclass
class RealSpaceMatrices:
    """Image-resolved H/S of one structure in one basis.

    Attributes
    ----------
    images : dict
        ``(ny, nz) -> (H_R, S_R)`` as CSR matrices of size norb x norb.
        Contains every image with any interaction, including (0, 0);
        ``H_{-R} = H_R^T`` is stored explicitly.
    offsets : (N+1,) int array
        Orbital offset of each atom (``offsets[-1] == norb``).
    """

    structure: object
    basis: BasisSet
    images: dict
    offsets: np.ndarray

    @property
    def norb(self) -> int:
        return int(self.offsets[-1])

    @property
    def home(self):
        """The R = (0, 0) pair (H_0, S_0)."""
        return self.images[(0, 0)]


def _transverse_image_shifts(structure, cutoff: float):
    """Periodic image shifts (ny, nz) that can host interactions."""
    shifts = [(0, 0)]
    ny_max = nz_max = 0
    if structure.periodic[1]:
        ny_max = int(np.ceil(cutoff / structure.cell[1, 1]))
    if structure.periodic[2]:
        nz_max = int(np.ceil(cutoff / structure.cell[2, 2]))
    for ny in range(-ny_max, ny_max + 1):
        for nz in range(-nz_max, nz_max + 1):
            if (ny, nz) != (0, 0):
                shifts.append((ny, nz))
    return shifts


def _bond_triplets(i, j, delta, code, shells, offsets, basis):
    """COO ``(rows, cols, h, s)`` of the bonds ``i -> j``, one stacked
    block build per (species_i, species_j) group; entries with
    ``|h| + |s| = 0`` dropped (``s`` is zero on an orthogonal basis)."""
    nsp = len(shells)
    key = code[i] * nsp + code[j]
    # an empty first part: an image without bonds still concatenates
    parts = [(np.zeros(0, dtype=int),) * 2 + (np.zeros(0),) * 2]
    for g in np.unique(key):
        sel = key == g
        sh_i, sh_j = shells[g // nsp], shells[g % nsp]
        h = atom_pair_blocks(sh_i, sh_j, delta[sel], basis.energy_scale,
                             ETA_HAMILTONIAN)
        s = np.zeros_like(h) if basis.is_orthogonal else atom_pair_blocks(
            sh_i, sh_j, delta[sel], basis.overlap_scale, ETA_OVERLAP,
            basis.overlap_decay_factor)
        mask = np.abs(h) + np.abs(s) > 0
        p, rr, cc = np.nonzero(mask)
        parts.append((offsets[i[sel]][p] + rr, offsets[j[sel]][p] + cc,
                      h[mask], s[mask]))
    return [np.concatenate(col) for col in zip(*parts)]


def build_matrices(structure, basis: BasisSet) -> RealSpaceMatrices:
    """Build image-resolved H and S.

    Notes
    -----
    * Only axes 1 (y) and 2 (z) are treated as periodic here even if the
      structure is lead-periodic along x — the x repetition belongs to the
      transport problem, not the device matrix.
    * H and S are real; Hermiticity of H(k) follows from H_{-R} = H_R^T,
      which this routine enforces by construction.
    * Two atoms at one point, in any image, are a ``ConfigurationError``.
    """
    if structure.num_atoms == 0:
        raise ConfigurationError("cannot build matrices for empty structure")
    names, code = np.unique(structure.species, return_inverse=True)
    shells = [basis.for_species(sym).shells for sym in names]
    onsite = [onsite_energies(s) for s in shells]
    norb_species = np.array([len(e) for e in onsite])
    offsets = np.concatenate([[0], np.cumsum(norb_species[code])])
    norb = int(offsets[-1])
    # onsite diagonal in atom order: each atom's row of a padded table
    valid = np.arange(norb_species.max()) < norb_species[:, None]
    table = np.zeros(valid.shape)
    table[valid] = np.concatenate(onsite)
    diag = table[code][valid[code]]
    on = np.flatnonzero(diag)
    cutoff = basis.cutoff

    images = {}
    for (ny, nz) in _transverse_image_shifts(structure, cutoff):
        if (ny, nz) in images:
            continue
        home = (ny, nz) == (0, 0)
        shift_vec = ny * structure.cell[1] + nz * structure.cell[2]
        i, j, delta, r = neighbor_search(structure.positions, cutoff,
                                         shift_vec)
        if np.any(r < 1e-9):
            k = int(np.argmax(r < 1e-9))
            raise ConfigurationError(
                f"atoms {int(i[k])} and {int(j[k])} coincide in image "
                f"{(ny, nz)} (r < 1e-9 nm): a structure cannot hold two "
                f"atoms at one point")
        rows, cols, hvals, svals = _bond_triplets(
            i, j, delta, code, shells, offsets, basis)
        if home:
            # onsite energies, then the symmetric counterpart of each bond
            rows, cols = (np.concatenate([on, rows, cols]),
                          np.concatenate([on, cols, rows]))
            hvals = np.concatenate([diag[on], hvals, hvals])
            svals = np.concatenate([np.zeros(len(on)), svals, svals])
        h = sp.csr_matrix((hvals, (rows, cols)), shape=(norb, norb))
        # The onsite overlap (identity) belongs to the home image only;
        # orthogonal bases have no inter-atomic overlap at all.
        if basis.is_orthogonal:
            s = sp.identity(norb, format="csr") if home \
                else sp.csr_matrix((norb, norb))
        else:
            s = sp.csr_matrix((svals, (rows, cols)), shape=(norb, norb))
            if home:
                s = s + sp.identity(norb, format="csr")
        images[(ny, nz)] = (h, s)
        if not home:
            images[(-ny, -nz)] = (h.T.tocsr(), s.T.tocsr())

    return RealSpaceMatrices(structure=structure, basis=basis,
                             images=images, offsets=offsets)
