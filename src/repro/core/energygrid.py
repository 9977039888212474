"""Automatic energy-grid generation.

OMEN does not take the energy grid as an input: "the energy grid is ...
automatically generated by OMEN based on the minimum and maximum allowed
distance between two consecutive energy points" (caption of Fig. 11).
The grid must be dense near lead band edges — where the transmission
staircase steps and the density of states diverges — and may be coarse in
featureless regions.  This module reproduces that behaviour, which is
also what makes the per-node energy count of the weak-scaling experiment
(Table II) fluctuate between 12.9 and 14.1.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from repro.utils.errors import ConfigurationError

#: the spacings (eV) of a sweep's two :func:`adaptive_energy_grid` s:
#: every SCF iteration's spectrum, and each bias point's final spectrum
#: (its current); both 5 meV at a band edge
SCF_GRID = dict(min_spacing=5e-3, max_spacing=0.05)
FINAL_GRID = dict(min_spacing=5e-3, max_spacing=0.04)


def lead_band_structure(lead, num_k: int = 51):
    """E_n(k) of the folded lead over k in [0, pi] (time-reversal half).

    Returns ``(ks, bands)`` with bands shape (num_k, n_folded).  The scan
    is memoised on the lead per ``num_k`` (``lead.band_scans``), so every
    later grid on that lead reads it; both arrays are read-only.
    """
    scans = vars(lead).setdefault("band_scans", {})
    if num_k not in scans:
        ks = np.linspace(0.0, np.pi, num_k)
        bands = []
        for k in ks:
            hk = (lead.h00 + np.exp(1j * k) * lead.h01
                  + np.exp(-1j * k) * lead.h01.conj().T)
            sk = (lead.s00 + np.exp(1j * k) * lead.s01
                  + np.exp(-1j * k) * lead.s01.conj().T)
            bands.append(sla.eigvalsh(hk, sk, check_finite=False))
        bands = np.asarray(bands)
        ks.setflags(write=False)
        bands.setflags(write=False)
        scans[num_k] = ks, bands
    return scans[num_k]


def band_edges(bands: np.ndarray, window=None) -> np.ndarray:
    """Band-edge energies: extrema of each band over k within a window.

    These are the energies where propagating-mode counts change — the
    features the adaptive grid refines around.
    """
    edges = []
    for n in range(bands.shape[1]):
        band = bands[:, n]
        edges.append(band.min())
        edges.append(band.max())
        # interior extrema
        d = np.diff(band)
        sign_change = np.nonzero(d[:-1] * d[1:] < 0)[0]
        edges.extend(band[sign_change + 1])
    edges = np.unique(np.asarray(edges))
    if window is not None:
        lo, hi = window
        edges = edges[(edges >= lo) & (edges <= hi)]
    return edges


def adaptive_energy_grid(lead, e_min: float, e_max: float,
                         min_spacing: float = 1e-3,
                         max_spacing: float = 0.05,
                         edge_halo: float = 0.02,
                         num_k_scan: int = 31) -> np.ndarray:
    """Generate the OMEN-style adaptive energy grid on [e_min, e_max].

    Spacing is ``min_spacing`` within ``edge_halo`` of any band edge and
    relaxes geometrically to ``max_spacing`` away from them.  The total
    point count is therefore an *output*, not an input — exactly the
    property the paper's weak-scaling caption describes.  The band scan
    is the lead's memo: the SCF grid of every bias point and the final
    grid of a run share one.
    """
    if e_max <= e_min:
        raise ConfigurationError("e_max must exceed e_min")
    if not 0 < min_spacing <= max_spacing:
        raise ConfigurationError("need 0 < min_spacing <= max_spacing")
    _, bands = lead_band_structure(lead, num_k_scan)
    edges = band_edges(bands, window=(e_min - 0.5, e_max + 0.5))
    grid = [e_min]
    while grid[-1] < e_max:
        e = grid[-1]
        if edges.size:
            dist = np.min(np.abs(edges - e))
        else:
            dist = np.inf
        if dist < edge_halo:
            step = min_spacing
        else:
            # geometric relaxation away from the nearest edge
            step = min(max_spacing,
                       min_spacing * 2.0 ** ((dist - edge_halo) / edge_halo))
        grid.append(e + step)
    grid[-1] = e_max
    return np.unique(np.asarray(grid))
