"""Fig. 5: FEAST's annulus selection in the complex-lambda plane.

The figure shows the contour enclosing only propagating and slowly
decaying modes (red dots, 1/R < |lambda| < R) while fast modes (black
dots) are neglected.  This experiment verifies the selection on a real
lead: FEAST, run on the interface-reduced polynomial as in production,
must find exactly the eigenvalues the dense solver finds inside the
annulus on the full one, none outside, and its lifted vectors must
solve the full polynomial.
"""

from __future__ import annotations

import numpy as np

from repro.basis import tight_binding_set
from repro.hamiltonian import build_device
from repro.obc import PolynomialEVP, PolynomialFamily, feast_annulus
from repro.structure import silicon_nanowire


def run(diameter_nm: float = 1.0, lead_cells: int = 3,
        energy: float = -4.0, r_outer: float = 3.0,
        num_points: int = 12, seed: int = 5) -> dict:
    wire = silicon_nanowire(diameter_nm, lead_cells)
    lead = build_device(wire, tight_binding_set(),
                        num_cells=lead_cells).lead
    full = PolynomialEVP(lead.h_cells, lead.s_cells, energy)
    pevp = PolynomialFamily(lead.h_cells, lead.s_cells).at_energy(energy)

    lams_dense, _ = full.solve_dense()
    inside = (np.abs(lams_dense) < r_outer) \
        & (np.abs(lams_dense) > 1.0 / r_outer)
    res = feast_annulus(pevp, r_outer=r_outer, num_points=num_points,
                        seed=seed)
    residuals = full.residuals(res.lambdas, pevp.lift(res.vectors))
    n_prop = int(np.sum(np.abs(np.abs(lams_dense) - 1) < 1e-6))
    return {
        "r_outer": r_outer,
        "pencil_size": full.size,
        "reduced_pencil_size": pevp.size,
        "dense_total": len(lams_dense),
        "dense_inside": int(inside.sum()),
        "feast_found": res.num_modes,
        "feast_max_residual": float(residuals.max(initial=0.0)),
        "feast_solves": res.num_solves,
        "contour_points": 2 * num_points,
        "num_propagating": n_prop,
        "lambdas_feast": res.lambdas,
        "lambdas_dense": lams_dense,
    }


def report(results: dict) -> str:
    ok = results["feast_found"] == results["dense_inside"]
    return "\n".join([
        "Fig. 5 — FEAST annulus eigenvalue selection",
        f"  pencil size NBC = {results['pencil_size']} "
        f"({results['reduced_pencil_size']} on the interface orbitals), "
        f"dense eigenvalues = {results['dense_total']}",
        f"  annulus 1/{results['r_outer']:.1f} < |lambda| < "
        f"{results['r_outer']:.1f}: {results['dense_inside']} modes "
        f"({results['num_propagating']} propagating)",
        f"  FEAST found {results['feast_found']} modes with max residual "
        f"{results['feast_max_residual']:.1e} on the full polynomial using "
        f"{results['feast_solves']} reduced P(z) factorizations for "
        f"{results['contour_points']} contour points (one per symmetry "
        f"orbit)",
        f"  selection exact -> {'REPRODUCED' if ok else 'NOT reproduced'}",
    ])
