#!/usr/bin/env python
"""Gate-all-around nanowire transistor: Id-Vgs and device observables.

The paper's flagship application (Fig. 1a / Fig. 10): a Si NWFET whose
gate modulates a barrier in the channel.  This example sweeps the gate,
prints the transfer characteristic Id(Vgs), and maps the charge/current
distributions at one bias point.

No subthreshold swing is derived: the printed Id(Vgs) is not monotonic.
On this 1.0 nm, 8-cell wire T(E) is non-zero only in narrow energy
windows, which the 5 meV / 40 meV adaptive grid samples with a handful
of points, so the curve is most likely limited by the energy grid
rather than set by the barrier.  Read it as a sampling of the grid
until the grid resolves those windows.

Run:  python examples/nanowire_transistor.py
"""

import numpy as np

from repro.basis import tight_binding_set
from repro.core import gate_sweep
from repro.core.energygrid import adaptive_energy_grid, lead_band_structure
from repro.experiments import fig10_nwfet
from repro.hamiltonian import build_device
from repro.structure import silicon_nanowire


def main():
    wire = silicon_nanowire(diameter_nm=1.0, length_cells=8)
    basis = tight_binding_set()
    device = build_device(wire, basis, num_cells=8)
    print(f"GAA NWFET: {wire.num_atoms} atoms, "
          f"NSS = {device.num_orbitals}")

    # Energy window above the conduction edge, refined near band edges
    _, bands = lead_band_structure(device.lead, 21)
    e = np.sort(bands.ravel())
    e = e[(e > -15) & (e < 15)]
    gaps = np.diff(e)
    e_cond = float(e[np.argmax(gaps) + 1])
    mu_s = e_cond + 0.05
    vds = 0.15
    energies = adaptive_energy_grid(device.lead, e_cond - 0.02,
                                    e_cond + 0.55, min_spacing=5e-3,
                                    max_spacing=0.04)
    print(f"conduction edge {e_cond:.2f} eV; "
          f"{len(energies)} adaptive energy points")

    print(f"\nId(Vgs) at Vds = {vds:.2f} V (not monotonic: limited by "
          "the energy grid, no subthreshold swing quoted):")
    print(f"  {'Vgs(V)':>7s} {'barrier(eV)':>12s} {'Id(A)':>12s}")
    # one device family for the sweep: each lead boundary solved once
    for p in gate_sweep(wire, basis, 8, np.linspace(0.0, 0.35, 6),
                        energies, vds=vds, mu_source=mu_s, v_builtin=0.3,
                        gate_coupling=1.0):
        print(f"  {p.vgs:7.2f} {p.barrier_height:12.3f} {p.current:12.3e}")

    print("\nDevice observables at Vgs = 0 (Fig. 10 maps):")
    print(fig10_nwfet.report(fig10_nwfet.run(
        diameter_nm=1.0, num_cells=8, vds=vds)))


if __name__ == "__main__":
    main()
