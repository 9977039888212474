"""High-level convenience API.

Wraps the full pipeline (structure -> H/S -> OBCs -> solver ->
observables) in a few calls for interactive use; production-style code
should use the subpackages directly (see ``examples/``).
"""

from __future__ import annotations

import numpy as np

from repro.basis import gaussian_3sp_set, tight_binding_set
from repro.core.energygrid import adaptive_energy_grid, lead_band_structure
from repro.core.runner import TransportSpectrum, compute_spectrum
from repro.hamiltonian import build_device
from repro.structure import silicon_nanowire, silicon_utb_film
from repro.utils.errors import ConfigurationError


def _basis(name: str, functional: str = "lda"):
    if name == "tb":
        return tight_binding_set(functional)
    if name == "3sp":
        return gaussian_3sp_set(functional)
    raise ConfigurationError(f"unknown basis {name!r}: use 'tb' or '3sp'")


def silicon_nanowire_device(diameter_nm: float = 1.0,
                            length_cells: int = 4, basis: str = "tb",
                            functional: str = "lda"):
    """Build a transport-ready gate-all-around Si nanowire device."""
    wire = silicon_nanowire(diameter_nm, length_cells)
    return build_device(wire, _basis(basis, functional),
                        num_cells=length_cells)


def silicon_utb_device(tbody_nm: float = 0.8, length_cells: int = 4,
                       basis: str = "tb", functional: str = "lda",
                       kpoint: float = 0.0):
    """Build a transport-ready double-gate UTB film device."""
    film = silicon_utb_film(tbody_nm, length_cells)
    return build_device(film, _basis(basis, functional),
                        num_cells=length_cells, kpoint=(0.0, kpoint))


def transmission(device, energies, obc_method: str = "feast",
                 solver: str = "splitsolve", num_partitions: int = 1,
                 energy_batch_size: int = 1,
                 **kwargs) -> np.ndarray:
    """T(E) of a prepared device; one row per energy: (E, modes, T).

    The grid is solved in chunks of ``energy_batch_size`` energies
    through :meth:`repro.pipeline.TransportPipeline.solve_batch`; the
    rows do not depend on the chunk size.
    """
    from repro.pipeline import TransportPipeline
    energies = [float(e) for e in energies]
    obc_kwargs = kwargs.pop("obc_kwargs", None)
    if obc_kwargs is None and obc_method == "feast":
        obc_kwargs = dict(r_outer=3.0, num_points=8, seed=0)
    pipe = TransportPipeline(obc_method=obc_method, solver=solver,
                             num_partitions=num_partitions,
                             obc_kwargs=obc_kwargs, **kwargs)
    cache = pipe.cache(device)
    b = int(energy_batch_size)
    if b < 1:
        raise ConfigurationError("energy_batch_size must be >= 1")
    rows = []
    for lo in range(0, len(energies), b):
        chunk = energies[lo:lo + b]
        for e, res in zip(chunk, pipe.solve_batch(
                cache, chunk, energy_indices=range(lo, lo + len(chunk)))):
            rows.append((e, res.num_prop_left, res.transmission_lr))
    return np.asarray(rows)


def band_window(device, halo: float = 0.5):
    """(e_min, e_max) covering the lead bands (plus halo) — a sane
    default transport window."""
    _, bands = lead_band_structure(device.lead, 21)
    return float(bands.min() - halo), float(bands.max() + halo)


def energy_grid(device, e_min: float, e_max: float, **kwargs):
    """OMEN-style adaptive energy grid for a device's leads."""
    return adaptive_energy_grid(device.lead, e_min, e_max, **kwargs)


def spectrum(structure, energies, basis: str = "tb", num_cells: int = 4,
             **kwargs) -> TransportSpectrum:
    """Full (k, E) transport run on a structure.

    Extra keywords reach :func:`repro.core.compute_spectrum` — notably
    ``backend="serial"|"thread"|"process"`` with ``num_workers=N`` to
    pick the execution backend (all backends are bit-identical; the
    process backend runs the (k, E) units on worker OS processes and
    merges their telemetry).
    """
    return compute_spectrum(structure, _basis(basis), num_cells,
                            energies, **kwargs)
