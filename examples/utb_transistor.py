#!/usr/bin/env python
"""Ultra-thin-body FET with transverse momentum integration.

The 2-D double-gate UTBFET (Fig. 1c) is periodic out-of-plane, so every
observable is a k-integral — the outermost parallel loop of OMEN's
Fig. 9 hierarchy (the paper's scaling runs use 21 k-points).  This
example computes T(E, k) on a reduced time-reversal grid and the
k-averaged transmission, distributing the (k, E) tasks over a thread
pool exactly as OMEN distributes them over node groups.

Run:  python examples/utb_transistor.py
"""

import numpy as np

from repro.basis import tight_binding_set
from repro.core.energygrid import lead_band_structure
from repro.core.runner import compute_spectrum
from repro.hamiltonian import build_device
from repro.parallel import ThreadTaskRunner
from repro.structure import silicon_utb_film


def main():
    film = silicon_utb_film(tbody_nm=0.8, length_cells=4)
    basis = tight_binding_set()
    device = build_device(film, basis, num_cells=4)
    print(f"DG UTBFET: {film.num_atoms} atoms, "
          f"NSS = {device.num_orbitals}, z-periodic "
          f"(k-points resolve the out-of-plane momentum)")

    _, bands = lead_band_structure(device.lead, 15)
    e_lo = float(bands.min())
    energies = np.linspace(e_lo + 0.1, e_lo + 1.6, 7)

    runner = ThreadTaskRunner(num_workers=4)
    spec = compute_spectrum(film, basis, 4, energies, num_k=5,
                            obc_method="dense", solver="rgf",
                            task_runner=runner)

    print(f"\n{len(spec.kpoints)} irreducible k-points "
          f"(weights {np.round(spec.kpoints[:, 1], 3).tolist()})")
    header = "  E(eV)   " + "".join(
        f"k={k:5.2f} " for k in spec.kpoints[:, 0]) + "  <T>_k"
    print(header)
    tavg = spec.k_averaged_transmission()
    for i, e in enumerate(energies):
        row = "".join(f"{spec.transmission[ik, i]:7.2f} "
                      for ik in range(len(spec.kpoints)))
        print(f"  {e:6.2f} {row} {tavg[i]:6.2f}")
    seconds = spec.seconds.ravel()
    print(f"\n{seconds.size} (k, E) tasks ran on "
          f"{runner.num_workers} workers; "
          f"mean task time {np.mean(seconds) * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
