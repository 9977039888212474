"""What a serial, untraced run loads, and when.

Run in a fresh interpreter::

    PYTHONPATH=src python tests/cold_start_probe.py

It imports ``repro.core.production``, builds a bias point's inputs the way
a user script does (wire, basis, lead bands, energy grid), then runs one
serial, untraced ``run_production`` call, and prints one JSON object:

* ``import_s`` - seconds of ``import repro.core.production``;
* ``never_called`` - the modules of :data:`NEVER_CALLED` loaded by then
  (an empty list: a serial run does not pay for them);
* ``call_imports`` - modules the call imported for the first time.

``tests/test_imports.py`` gates the two lists; CI prints them.
"""

import json
import sys
import time

#: packages a serial, untraced, store-less run never calls
NEVER_CALLED = ("scipy.spatial", "scipy.special", "multiprocessing",
                "repro.observability.report", "repro.observability.export",
                "repro.parallel.process", "repro.hardware")


def _under(name: str, packages) -> bool:
    return any(name == p or name.startswith(p + ".") for p in packages)


def main() -> dict:
    start = time.perf_counter()
    from repro.core.production import run_production
    import_s = time.perf_counter() - start

    from repro.basis import tight_binding_set
    from repro.core.energygrid import (FINAL_GRID, adaptive_energy_grid,
                                       lead_band_structure)
    from repro.hamiltonian import build_device
    from repro.structure import silicon_nanowire

    wire, basis = silicon_nanowire(0.7, 4), tight_binding_set()
    lead = build_device(wire, basis, 4).lead
    e_lo = float(lead_band_structure(lead, 11)[1].min())
    window = (e_lo + 0.28, e_lo + 0.36)
    adaptive_energy_grid(lead, *window, **FINAL_GRID)
    loaded = set(sys.modules)
    run_production(wire, basis, 4, [0.05], e_lo + 0.3, window,
                   scf_kwargs=dict(max_iter=1, mixing=0.5))
    return dict(import_s=round(import_s, 3),
                never_called=sorted(m for m in loaded
                                    if _under(m, NEVER_CALLED)),
                call_imports=sorted(set(sys.modules) - loaded))


if __name__ == "__main__":
    print(json.dumps(main()))
