"""Charge density from solved scattering states (Fig. 10a).

In the ballistic limit each scattering state injected from contact alpha
is occupied according to that contact's Fermi function.  The density is
accumulated over energies, momenta, and injected modes; in a
non-orthogonal basis the Mulliken population n_mu = Re[psi_mu^* (S psi)_mu]
is used so the per-atom charges sum to the total norm.
"""

from __future__ import annotations

import numpy as np

from repro.constants import KB_EV
from repro.utils.errors import ShapeError


def fermi(energy, mu: float, temperature_k: float) -> np.ndarray:
    """Fermi-Dirac occupation with safe exponent clipping."""
    if temperature_k <= 0:
        return (np.asarray(energy) <= mu).astype(float)
    x = (np.asarray(energy) - mu) / (KB_EV * temperature_k)
    return 1.0 / (1.0 + np.exp(np.clip(x, -120, 120)))


def orbital_density(result, smat, mu_l: float, mu_r: float,
                    temperature_k: float = 300.0,
                    weight: float = 1.0) -> np.ndarray:
    """Mulliken density contribution of one energy point's states.

    Parameters
    ----------
    result : EnergyPointResult
    smat : overlap matrix (sparse or dense)
    mu_l, mu_r : chemical potentials of the two contacts (eV)
    weight : integration weight (energy window x k-point weight x spin).

    Returns
    -------
    (norb,) real array; contributions from left-injected states weighted
    by f(E - mu_l), right-injected by f(E - mu_r), each over the flux
    of its incoming mode.
    """
    psi = result.psi
    if psi.shape[1] == 0:
        return np.zeros(smat.shape[0])
    s_psi = smat @ psi
    dens = np.real(np.conj(psi) * s_psi)  # (norb, nmodes)
    f_l = fermi(result.energy, mu_l, temperature_k)
    f_r = fermi(result.energy, mu_r, temperature_k)
    occ = np.where(result.from_left, f_l, f_r)
    # A state grown from a unit-amplitude mode of flux j carries |psi|^2 / j
    # per unit energy whatever the norm or overlap of the mode vector: per
    # lead cell U^H S(Lambda) U / j = 1 / |dE/dk|, its channel's 1-D DOS.
    v = np.maximum(result.velocities, 1e-300)
    return weight * dens @ (occ / v)


def atom_density(orb_density: np.ndarray,
                 orbital_offsets: np.ndarray) -> np.ndarray:
    """Sum orbital densities onto atoms (for Fig. 10a style maps)."""
    orb_density = np.asarray(orb_density)
    offs = np.asarray(orbital_offsets)
    if orb_density.shape[0] != offs[-1]:
        raise ShapeError("orbital density length does not match offsets")
    out = np.empty(len(offs) - 1)
    for i in range(len(offs) - 1):
        out[i] = orb_density[offs[i]:offs[i + 1]].sum()
    return out
