"""Transistor characteristics: gate sweeps and I-V curves (Fig. 1d).

The simple (non-self-consistent) gate model applies a smooth barrier
potential under the gate, flat in the contact regions as the OBCs
require; the self-consistent route couples this to the Poisson solver
(:mod:`repro.poisson.scf`), which replaces the fixed barrier with the
solution of the electrostatics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.runner import compute_spectrum
from repro.pipeline.cache import DeviceFamily
from repro.utils.errors import ConfigurationError


def gate_potential_profile(structure, source_frac: float = 0.3,
                           drain_frac: float = 0.3,
                           gate_coupling: float = 0.8,
                           vgs: float = 0.0, v_builtin: float = 0.0,
                           transition_cells: float = 1.0) -> np.ndarray:
    """Electron potential energy (eV) per atom for a gated channel.

    A positive gate-source voltage *lowers* the electron barrier by
    ``gate_coupling * vgs`` (ideal-gate electrostatics); ``v_builtin``
    sets the zero-gate barrier height.  Error-function-like transitions
    over ``transition_cells`` keep the contacts flat.
    """
    x = structure.positions[:, 0]
    lx = structure.cell[0, 0]
    x0 = source_frac * lx
    x1 = (1.0 - drain_frac) * lx
    if x1 <= x0:
        raise ConfigurationError("source/drain fractions overlap")
    width = max(transition_cells * lx / 16.0, 1e-6)
    barrier = v_builtin - gate_coupling * vgs
    rise = 0.5 * (1.0 + np.tanh((x - x0) / width))
    fall = 0.5 * (1.0 + np.tanh((x1 - x) / width))
    return barrier * rise * fall


@dataclass
class GatePoint:
    """One bias point of a transfer characteristic."""

    vgs: float
    vds: float
    current: float            # amperes
    barrier_height: float     # eV
    spectrum: object = None


def gate_sweep(structure, basis, num_cells: int, vgs_values,
               energies, vds: float = 0.1, mu_source: float = 0.0,
               temperature_k: float = 300.0, v_builtin: float = 0.4,
               gate_coupling: float = 0.8, num_k: int = 1,
               obc_method: str = "dense", solver: str = "rgf",
               keep_spectra: bool = False, **spectrum_kwargs) -> list:
    """Compute Id(Vgs) at fixed Vds — the Fig. 1(d) experiment.

    The source Fermi level sits at ``mu_source`` (relative to the lead
    band structure's energy zero); the drain at ``mu_source - vds``.
    ``obc_method``, ``solver`` and ``spectrum_kwargs`` are forwarded to
    :func:`repro.core.runner.compute_spectrum`.  The gate moves the
    channel only, so one device family serves the sweep: each lead
    boundary is solved once per energy, not once per Vgs.
    """
    family = DeviceFamily(structure, basis, num_cells, num_k)
    spectrum = partial(compute_spectrum, structure, basis, num_cells,
                       energies, num_k=num_k, obc_method=obc_method,
                       solver=solver, family=family, **spectrum_kwargs)
    points = []
    for vgs in np.asarray(list(vgs_values), dtype=float):
        pot = gate_potential_profile(structure, vgs=vgs,
                                     v_builtin=v_builtin,
                                     gate_coupling=gate_coupling)
        spec = spectrum(potential=pot)
        current = spec.current(mu_source, mu_source - vds, temperature_k)
        points.append(GatePoint(
            vgs=float(vgs), vds=vds, current=current,
            barrier_height=float(pot.max() if pot.size else 0.0),
            spectrum=spec if keep_spectra else None))
    return points


def subthreshold_swing(points) -> float:
    """Subthreshold swing (mV/dec) from the steepest part of Id(Vgs).

    The textbook FET figure of merit; thermionic devices are bounded by
    ~60 mV/dec at room temperature, a bound the ballistic simulator must
    respect (tested).
    """
    v = np.array([p.vgs for p in points])
    i = np.array([max(abs(p.current), 1e-30) for p in points])
    logi = np.log10(i)
    slopes = np.diff(logi) / np.diff(v)
    best = slopes.max()
    if best <= 0:
        return float("inf")
    return 1000.0 / best  # mV per decade
