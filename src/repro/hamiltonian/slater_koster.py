"""Two-center matrix-element construction (Slater-Koster tables for s, p).

Couplings between shells are built from sigma/pi bond integrals with
Gaussian radial decay; the angular structure follows Slater & Koster
(1954), which guarantees a real-symmetric H for any geometry.

Blocks are built for a stack of bonds sharing their shells (a single bond
is a stack of one), element by element in the per-bond formula's order.
"""

from __future__ import annotations

import numpy as np

from repro.basis.shells import Shell
from repro.structure.lattice import bond_lengths

#: Bond-integral anisotropies for the Hamiltonian (Harrison's ratios).
ETA_HAMILTONIAN = {
    ("ss", "sigma"): -1.40,
    ("sp", "sigma"): +1.84,
    ("pp", "sigma"): +3.24,
    ("pp", "pi"): -0.81,
}

#: Bond-integral anisotropies for the overlap matrix.
ETA_OVERLAP = {
    ("ss", "sigma"): +1.00,
    ("sp", "sigma"): +0.80,
    ("pp", "sigma"): -0.90,
    ("pp", "pi"): +0.45,
}


def radial(r, sh_i: Shell, sh_j: Shell, decay_factor: float = 1.0):
    """Gaussian-product radial decay of a two-center integral.

    Two Gaussians of widths ``decay_i``/``decay_j`` separated by r overlap
    like exp(-r^2 / (2 (d_i^2 + d_j^2))); contraction weights multiply.
    ``r`` may be a scalar or an array of bond lengths.
    """
    d2 = (sh_i.decay ** 2 + sh_j.decay ** 2) * decay_factor ** 2
    return sh_i.weight * sh_j.weight * np.exp(-r * r / (2.0 * d2))


def atom_pair_blocks(shells_i, shells_j, delta: np.ndarray, scale: float,
                     eta: dict, decay_factor: float = 1.0) -> np.ndarray:
    """Inter-atomic blocks of a stack of bonds: all shells of A against
    all shells of B.

    Parameters
    ----------
    delta : (P, 3) array
        r_B - r_A (nm) of every bond; must be non-zero (onsite handled
        separately).
    scale : float
        Global energy scale (eV) or overlap scale (dimensionless).
    eta : dict
        Bond-integral table, :data:`ETA_HAMILTONIAN` or :data:`ETA_OVERLAP`.

    Returns
    -------
    (P, n_A, n_B) blocks, shells in order, orbitals (s,) or (px, py, pz).
    """
    r = bond_lengths(delta)
    d = delta / r[:, None]  # direction cosines (l, m, n), pointing A -> B
    ddt = d[:, :, None] * d[:, None, :]
    ni = sum(sh.num_orbitals for sh in shells_i)
    nj = sum(sh.num_orbitals for sh in shells_j)
    out = np.empty((len(delta), ni, nj))
    ro = 0
    for sh_i in shells_i:
        co = 0
        for sh_j in shells_j:
            rad = scale * radial(r, sh_i, sh_j, decay_factor)
            blk = out[:, ro:ro + sh_i.num_orbitals, co:co + sh_j.num_orbitals]
            if sh_i.l == 0 and sh_j.l == 0:
                blk[:, 0, 0] = eta[("ss", "sigma")] * rad
            elif sh_i.l == 0:
                blk[:, 0, :] = (eta[("sp", "sigma")] * rad)[:, None] * d
            elif sh_j.l == 0:
                # <p_a(A) | O | s(B)> = -l_a V_sp(sigma): odd parity of p.
                blk[:, :, 0] = (-eta[("sp", "sigma")] * rad)[:, None] * d
            else:
                # p-p: sigma along the bond, pi transverse.
                blk[:] = rad[:, None, None] * (
                    eta[("pp", "sigma")] * ddt
                    + eta[("pp", "pi")] * (np.eye(3) - ddt))
            co += sh_j.num_orbitals
        ro += sh_i.num_orbitals
    return out


def onsite_energies(shells) -> np.ndarray:
    """Onsite diagonal of one atom: each shell's energy per orbital."""
    return np.repeat([sh.energy for sh in shells],
                     [sh.num_orbitals for sh in shells])
