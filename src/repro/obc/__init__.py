"""Open boundary conditions (OBCs).

Everything needed to turn the semi-infinite contacts into the boundary
self-energy Sigma^RB and injection vectors Inj of Eq. (5):

* :mod:`polynomial` — the polynomial eigenvalue problem of Eq. (6) and its
  companion linearization (Eqs. 8-9), including the analytic block-LU
  reduction of each resolvent solve to the unit-cell size NBC/(2 NBW).
* :mod:`feast` — the paper's contour-integration eigensolver: non-Hermitian
  FEAST on an annulus around |lambda| = 1 (Fig. 5).
* :mod:`shift_invert` — the tight-binding-era baseline [38].
* :mod:`decimation` — the Sancho-Rubio surface-GF iteration [40], the
  standard NEGF baseline and our cross-validation reference.
* :mod:`modes` — classification (propagating/decaying, group velocity) and
  supercell folding of the Bloch modes.
* :mod:`selfenergy` — assembly of Sigma^RB (low-rank BC form used by
  SplitSolve) and of the injection vectors.
"""

from repro.obc.polynomial import PolynomialEVP, PolynomialFamily
from repro.obc.modes import LeadModes, classify_modes, fold_modes
from repro.obc.feast import feast_annulus, FeastResult
from repro.obc.shift_invert import shift_invert_modes
from repro.obc.decimation import sancho_rubio, sigma_from_surface_gf
from repro.obc.selfenergy import (
    OpenBoundary,
    compute_open_boundary,
    compute_open_boundary_batch,
    boundary_from_modes,
    boundary_from_decimation,
)

__all__ = [
    "PolynomialEVP",
    "PolynomialFamily",
    "LeadModes",
    "classify_modes",
    "fold_modes",
    "feast_annulus",
    "FeastResult",
    "shift_invert_modes",
    "sancho_rubio",
    "sigma_from_surface_gf",
    "OpenBoundary",
    "compute_open_boundary",
    "compute_open_boundary_batch",
    "boundary_from_modes",
    "boundary_from_decimation",
]
