"""Shift-and-invert mode solver — the tight-binding-era baseline [38].

Before FEAST, OMEN found the lead modes near |lambda| = 1 by
shift-and-invert iterations around shifts on the unit circle.  The
spectral transform (sigma B - A)^{-1} B maps an eigenvalue lambda of the
pencil to 1/(sigma - lambda), so subspace iteration with that operator
converges to the modes closest to sigma.  The paper's complaint — "the
difficulty to parallelize the shift-and-invert method" — is structural:
successive applications of one shifted resolvent are sequential, whereas
FEAST's contour points are embarrassingly parallel.

The resolvent is applied through the same analytic companion reduction as
FEAST, so the two baselines differ only in the algorithm, not the kernels.
"""

from __future__ import annotations

import numpy as np

from repro.linalg import geig, qr_orth
from repro.utils.errors import ConfigurationError
from repro.utils.rng import make_rng


def shift_invert_modes(pevp, num_shifts: int = 8, k_per_shift: int | None = None,
                       num_iter: int = 25, tol: float = 1e-10,
                       keep_radius: float = 3.0, seed=None,
                       shift_radii=(1.05,)):
    """Find eigenpairs near the unit circle by shifted subspace iteration.

    Parameters
    ----------
    num_shifts : int
        Shifts sigma = radius * exp(2 pi i j / num_shifts) for each radius
        in ``shift_radii``; the default single radius 1.05 sits slightly
        off the unit circle so propagating modes (|lambda| = 1) never
        collide with a shift.  Modes far from every shift converge slowly
        or get lost — add radii (e.g. ``(1.05, 2.0, 0.5)``) to cover a
        wide annulus.  This need for tuning is intrinsic to the baseline
        and part of why the paper replaced it.
    k_per_shift : int
        Subspace dimension per shift (default: unit-cell size).
    keep_radius : float
        Keep modes with 1/keep_radius < |lambda| < keep_radius, matching
        the FEAST annulus so the baselines are comparable.

    Returns
    -------
    (lambdas, vectors): deduplicated eigenpairs, vectors column-normalized
    top blocks of size n.
    """
    if num_shifts < 1:
        raise ConfigurationError("num_shifts must be >= 1")
    n = pevp.n
    nbc = pevp.size
    k = k_per_shift if k_per_shift is not None else min(nbc, n)
    rng = make_rng(seed)

    shifts = [radius * np.exp(2j * np.pi * j / num_shifts)
              for radius in shift_radii for j in range(num_shifts)]

    all_lam = [np.zeros(0, dtype=complex)]
    all_vec = [np.zeros((n, 0), dtype=complex)]
    a_lin, b_lin = pevp.pencil()
    for sigma in shifts:
        fac = pevp.factor_reduced(sigma)
        y = rng.standard_normal((nbc, k)) + 1j * rng.standard_normal((nbc, k))
        for _ in range(num_iter):
            y = pevp.resolvent_apply(sigma, y, factor=fac)
            y = qr_orth(y, tag="si-qr")
        # Rayleigh-Ritz on the converged subspace.
        ar = y.conj().T @ (a_lin @ y)
        br = y.conj().T @ (b_lin @ y)
        w, v = geig(ar, br, tag="si-rr")
        ritz = y @ v
        finite = np.isfinite(w)
        sel = finite & (np.abs(w) > 1.0 / keep_radius) \
            & (np.abs(w) < keep_radius)
        w_sel, u_sel = pevp.extract_unit_vectors(w[sel], ritz[:, sel])
        converged = pevp.residuals(w_sel, u_sel) <= tol
        all_lam.append(w_sel[converged])
        all_vec.append(u_sel[:, converged])

    return _dedupe(np.concatenate(all_lam), np.hstack(all_vec))


def _dedupe(lambdas, vectors, lam_tol: float = 1e-7,
            overlap_tol: float = 1.0 - 1e-7):
    """Merge duplicate eigenpairs found from different shifts.

    A pair is a duplicate when its eigenvalue agrees with a kept one to
    ``lam_tol`` *and* its (unit) eigenvector does not raise the rank of
    the vectors kept for that eigenvalue: its projection onto their span
    has norm above ``overlap_tol``.  A degenerate eigenvalue so keeps one
    vector per dimension of its eigenspace, however many shifts found it.
    """
    groups = []     # (eigenvalue, orthonormal basis of its kept span)
    keep = []
    for i, lam in enumerate(lambdas):
        u = vectors[:, i]
        for g, (lam_g, q) in enumerate(groups):
            if abs(lam - lam_g) < lam_tol * max(1.0, abs(lam)):
                proj = q.conj().T @ u
                if np.linalg.norm(proj) <= overlap_tol:
                    rest = u - q @ proj
                    groups[g] = (lam_g, np.column_stack(
                        [q, rest / np.linalg.norm(rest)]))
                    keep.append(i)
                break
        else:
            groups.append((lam, u[:, None]))
            keep.append(i)
    return lambdas[keep], vectors[:, keep]
