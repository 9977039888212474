"""Self-consistent Schroedinger-Poisson iteration (Fig. 2).

One outer iteration = (i) solve ballistic transport at the current
potential for the adaptive energy grid, (ii) accumulate the electron
density, (iii) solve Poisson with electrons + fixed donor background,
(iv) mix the new potential into the old one.  The paper's production runs
do 40-50 such iterations over 10 bias points; each iteration is what the
scaling experiments of Section 5 time.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core.energygrid import SCF_GRID, adaptive_energy_grid
from repro.core.production import sweep_record, sweep_transport
from repro.negf import atom_density, orbital_density
from repro.observability.spans import current_tracer
from repro.pipeline.cache import DeviceFamily, as_family
from repro.poisson.fd import poisson_solver
from repro.poisson.grid import PoissonGrid
from repro.utils.errors import (CheckpointError, ConfigurationError,
                                ConvergenceError)


@dataclass
class SCFResult:
    """State of the self-consistent loop after ``iterations`` iterations
    (the converged or final one when a call returns it)."""

    potential_atom: np.ndarray     # electron potential energy (eV) per atom
    density_atom: np.ndarray       # electrons per atom (arbitrary norm)
    residuals: list
    iterations: int
    converged: bool
    spectrum: object = field(default=None, repr=False)


def schroedinger_poisson(structure, basis, num_cells: int,
                         mu_l: float, mu_r: float, e_window: tuple, *,
                         num_k: int = 1, task_runner=None, checkpoint=None,
                         family: DeviceFamily | None = None,
                         **options) -> SCFResult:
    """Run the self-consistent Schroedinger-Poisson loop.

    Parameters
    ----------
    mu_l, mu_r : contact chemical potentials (eV).
    e_window : (e_min, e_max) transport energy window.
    **options : the loop's keywords, with the defaults
        ``doping_atom=None, gate_mask=None, gate_voltage=0.0, grid=None,
        eps_r=11.7, temperature_k=300.0, mixing=0.3, max_iter=12,
        tol=5e-3, density_scale=0.02, raise_on_divergence=False``
        (described below), and the transport's ``obc_method="dense",
        solver="rgf", energy_batch_size, use_arena, result_store``.
    doping_atom : fixed positive background charge per atom (e); default
        zero everywhere (charge-neutral intrinsic channel).
    gate_mask : boolean node mask of electrode nodes (see
        :mod:`repro.poisson.gates`); ``gate_voltage`` volts applied there.
    density_scale : conversion from the solver's per-mode density to
        electrons (absorbs the energy-integration normalization).
    mixing : linear mixing weight of the new potential (0 < mixing <= 1).
    task_runner, obc_method, solver, energy_batch_size, use_arena,
    result_store : forwarded to
        :func:`repro.core.runner.compute_spectrum` by every iteration's
        transport solve (:func:`repro.core.production.sweep_transport`).
        A ``result_store`` hits where an iteration's potential repeats
        one solved before (a re-run of the loop).
    checkpoint : path or :class:`repro.runtime.CheckpointStore`, optional
        Persist the loop state after every iteration and resume from it
        when the file exists, bitwise as the uninterrupted run: the
        record of a sweep of the one point ``mu_l - mu_r``
        (:func:`repro.core.production.sweep_record`).
    family : :class:`repro.pipeline.cache.DeviceFamily`, optional
        The potential-invariant state shared by every inner transport
        solve (base devices, open-boundary memo); pass the sweep's when
        a driver runs several loops on one device.  Default: one owned
        by this loop.

    Notes
    -----
    The contact cells' potential shift is frozen to zero so the lead
    blocks stay valid — the same constraint OMEN's Poisson solver applies.
    That is also why the inner energy grid (a scan of the lead bands) and
    every Sigma^RB(E) on it are the same at every iteration: the grid is
    derived once, and the family's memo solves each boundary once.  An
    iteration after the first reuses, per (k, E), the boundary and what
    it alone decides (the injection rows of Inj, the factored outgoing
    flux bases of ANALYZE); it re-solves what the potential changed:
    A(E), SOLVE and the density.
    """
    points, start, save = sweep_record(
        checkpoint, [mu_l - mu_r], mu_l, e_window, num_k,
        structure.num_atoms, options.get("temperature_k", 300.0),
        telemetry=getattr(task_runner, "telemetry", None))
    if points:
        raise CheckpointError(f"checkpoint {checkpoint} holds a finished "
                              f"bias point, not an SCF state")
    family = as_family(family, structure, basis, num_cells, num_k)
    spectrum, loop = sweep_transport(family, options,
                                     task_runner=task_runner)
    return _scf_loop(start, lambda state: save([], state), spectrum,
                     mu_l, mu_r, e_window, **loop)


def _scf_loop(start, on_iteration, spectrum, mu_l: float, mu_r: float,
              e_window: tuple, *, doping_atom: np.ndarray | None = None,
              gate_mask=None, gate_voltage: float = 0.0,
              grid: PoissonGrid | None = None, eps_r: float = 11.7,
              temperature_k: float = 300.0, mixing: float = 0.3,
              max_iter: int = 12, tol: float = 5e-3,
              density_scale: float = 0.02,
              raise_on_divergence: bool = False) -> SCFResult:
    """The one Schroedinger-Poisson iteration loop, driven by
    :func:`schroedinger_poisson` and, per bias point, by
    :func:`repro.core.production.run_production`; its signature holds
    the SCF defaults.

    ``spectrum`` is the driver's transport
    (:func:`repro.core.production.sweep_transport`), called once per
    iteration; the device is its family's.  Continues from ``start``
    (the :class:`SCFResult` a checkpoint held; ``None`` starts from a
    zero potential) and hands the state to ``on_iteration`` after every
    iteration: the caller's checkpoint.
    """
    if not 0 < mixing <= 1:
        raise ConfigurationError("mixing must be in (0, 1]")
    family = spectrum.keywords["family"]
    structure = family.structure
    natoms = structure.num_atoms
    doping = np.zeros(natoms) if doping_atom is None \
        else np.asarray(doping_atom, dtype=float)
    if doping.shape != (natoms,):
        raise ConfigurationError("doping_atom must have one entry/atom")
    if grid is None:
        grid = PoissonGrid.for_structure(structure, spacing=0.25)
    poisson = poisson_solver(grid, eps_r, gate_mask, None if gate_mask is None
                             else np.full(grid.num_nodes, float(gate_voltage)))

    # contact cells (first and last) are potential-frozen
    x = structure.positions[:, 0]
    lx = structure.cell[0, 0]
    cell_len = lx / family.num_cells
    frozen = (x < cell_len) | (x >= lx - cell_len)

    state = start if start is not None else SCFResult(
        potential_atom=np.zeros(natoms), density_atom=np.zeros(natoms),
        residuals=[], iterations=0, converged=False)
    base = family.gamma_device()
    energies = adaptive_energy_grid(base.lead, e_window[0], e_window[1],
                                    **SCF_GRID)
    weights = _trapezoid_weights(energies)
    while not state.converged and state.iterations < max_iter:
        it = state.iterations + 1
        pot = state.potential_atom
        tracer = current_tracer()
        scope = tracer.span(f"scf-iter {it}", category="scf",
                            iteration=it) if tracer is not None \
            else nullcontext()
        with scope as sp:
            # (i) transport at the current potential
            spec = spectrum(energies, potential=pot)
            # (ii) accumulate density (trapezoid over the energy grid)
            dens_orb = None
            for res, w in zip(spec.results, np.tile(weights,
                                                    len(spec.kpoints))):
                contrib = orbital_density(res, base.smat, mu_l, mu_r,
                                          temperature_k)
                dens_orb = contrib * w if dens_orb is None \
                    else dens_orb + contrib * w
            dens_atoms = density_scale * atom_density(
                dens_orb, base.orbital_offsets)

            # (iii) Poisson with net charge (donors +, electrons -)
            net_charge = doping - dens_atoms
            rho = grid.assign_charge(structure.positions, net_charge)
            phi = poisson(rho)
            new_pot = -grid.interpolate(phi, structure.positions)  # eV
            new_pot[frozen] = 0.0

            # (iv) mix and test convergence
            resid = float(np.max(np.abs(new_pot - pot)))
            if sp is not None:
                sp.attrs["residual"] = resid
                sp.attrs["converged"] = resid < tol
        state = SCFResult(
            potential_atom=(1.0 - mixing) * pot + mixing * new_pot,
            density_atom=dens_atoms, residuals=state.residuals + [resid],
            iterations=it, converged=resid < tol, spectrum=spec)
        on_iteration(state)

    if not state.converged and raise_on_divergence:
        raise ConvergenceError(
            f"Schroedinger-Poisson did not converge in {max_iter} "
            f"iterations (residual {state.residuals[-1]:.2e})",
            iterations=max_iter, residual=state.residuals[-1])
    return state


def _trapezoid_weights(energies: np.ndarray) -> np.ndarray:
    e = np.asarray(energies, dtype=float)
    if e.size == 1:
        return np.ones(1)
    w = np.zeros_like(e)
    d = np.diff(e)
    w[:-1] += d / 2
    w[1:] += d / 2
    return w
