"""Current densities and spectral current maps (Fig. 10b,c / Fig. 1f).

The probability current from slab i to slab i+1 carried by a state psi is

    J_{i -> i+1} = -2 Im[ psi_i^H (H_{i,i+1} - E S_{i,i+1}) psi_{i+1} ],

the lattice continuity-equation current for a non-orthogonal basis.  In a
ballistic device it is block-independent (current conservation) — a
property the tests verify and OMEN uses as a sanity check.
"""

from __future__ import annotations

import numpy as np

from repro.obc.modes import bond_current
from repro.utils.errors import ShapeError


def state_block_current(psi: np.ndarray, h_blocks, s_blocks, energy: float,
                        offsets) -> np.ndarray:
    """Per-interface current of the states in the columns of ``psi``,
    shape (nB-1, m)."""
    nb = h_blocks.num_blocks
    out = np.zeros((nb - 1, psi.shape[1]))
    for i in range(nb - 1):
        out[i] = bond_current(
            psi[offsets[i]:offsets[i + 1]],
            h_blocks.upper[i] - energy * s_blocks.upper[i],
            psi[offsets[i + 1]:offsets[i + 2]])
    return out


def bond_current_profile(result, device, occupations=None) -> np.ndarray:
    """Occupation-weighted interface current profile of one energy point.

    ``occupations``: per-injected-mode weights (default: left modes 1,
    right modes 0 — the pure forward-bias limit).  Each state's current
    is taken over the flux ``result.velocities`` of the unit-amplitude
    mode it grew from, i.e. it is that state's transmission: the default
    occupations give T_LR(E) at every interface, no mode decomposition.
    """
    psi = result.psi
    if psi.shape[1] == 0:
        return np.zeros(device.num_blocks - 1)
    offs = np.concatenate([[0], np.cumsum(device.block_sizes)])
    j = state_block_current(psi, device.h_blocks(), device.s_blocks(),
                            result.energy, offs)
    if occupations is None:
        occupations = result.from_left.astype(float)
    occupations = np.asarray(occupations, dtype=float)
    if occupations.shape != (psi.shape[1],):
        raise ShapeError("occupations must have one entry per state")
    v = np.maximum(result.velocities, 1e-300)
    return j @ (occupations / v)


def spectral_current_map(results, device, mu_l: float, mu_r: float,
                         temperature_k: float = 300.0) -> np.ndarray:
    """I(E, x) map over many energy points (Fig. 10c).

    Rows = energies (in input order), columns = block interfaces; each row
    is the net (f_L - f_R)-weighted current profile of that energy.
    """
    from repro.negf.density import fermi

    rows = []
    for res in results:
        f_l = fermi(res.energy, mu_l, temperature_k)
        f_r = fermi(res.energy, mu_r, temperature_k)
        # Right-injected states already carry negative (leftward) current,
        # so plain Fermi occupations yield the net f_L - f_R balance.
        occ = np.where(res.from_left, f_l, f_r)
        rows.append(bond_current_profile(res, device, occupations=occ))
    return np.asarray(rows)
