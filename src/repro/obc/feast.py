"""Non-Hermitian FEAST on an annulus — the paper's OBC eigensolver.

Only modes with |lambda| in (1/R, R) matter physically (propagating and
slowly decaying; Fig. 5) — fast-decaying modes contribute negligibly to
the boundary self-energy.  FEAST builds a spectral projector onto exactly
that region by contour integration:

    Q_F = sum_p (z_p / N_p) (z_p B_F - A_F)^{-1} B_F Y_F        (Eq. 10)

with trapezoid points z_p on the outer circle |z| = R (counter-clockwise)
minus points on the inner circle |z| = 1/R (clockwise), followed by a
Rayleigh-Ritz reduction to an m x m problem (Eq. 7).  Every linear solve
goes through the analytic companion reduction
(:meth:`~repro.obc.polynomial.PolynomialEVP.resolvent_apply`), so its cost
is that of one unit-cell-sized factorization — the property that lets the
paper run the OBCs on a handful of CPU cores while the GPUs handle
SplitSolve.

Every (k, E) point is its own FEAST problem, as in the paper: an energy
batch calls :func:`feast_annulus` once per energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.linalg import geig
from repro.utils.errors import ConfigurationError, ConvergenceError
from repro.utils.rng import make_rng


@dataclass
class FeastResult:
    """Eigenpairs found inside the annulus, plus solver diagnostics."""

    lambdas: np.ndarray      # (m,) eigenvalues inside the annulus
    vectors: np.ndarray      # (n, m) unit-cell eigenvectors (top block)
    residuals: np.ndarray    # (m,) relative polynomial residuals
    iterations: int
    num_solves: int          # number of reduced P(z) factorizations
    subspace_size: int
    #: rhs width of the resolvent applies, one entry per refinement
    #: iteration (accumulated across auto-expand attempts) — together with
    #: ``num_solves`` and ``rr_sizes`` this determines the exact ledger
    #: byte traffic (:func:`repro.perfmodel.costmodel.feast_kernels`)
    solve_widths: tuple = ()
    #: reduced Rayleigh-Ritz problem size, one entry per iteration
    rr_sizes: tuple = ()

    @property
    def num_modes(self) -> int:
        return len(self.lambdas)


def _contour_points(r_outer: float, num_points: int):
    """Trapezoid nodes and weights for the annulus boundary.

    Returns a list of (z_p, w_p) with w_p = +z_p/N on the outer circle and
    w_p = -z_p/N on the inner one (orientation: region kept between them).
    """
    theta = 2.0 * np.pi * (np.arange(num_points) + 0.5) / num_points
    pts = []
    for z in r_outer * np.exp(1j * theta):
        pts.append((z, z / num_points))
    for z in (1.0 / r_outer) * np.exp(1j * theta):
        pts.append((z, -z / num_points))
    return pts


def feast_annulus(pevp, r_outer: float = 3.0, subspace: int | None = None,
                  num_points: int = 8, max_iter: int = 12,
                  tol: float = 1e-10, seed=None,
                  auto_expand: bool = True) -> FeastResult:
    """Find all eigenpairs of the lead polynomial with 1/R < |lambda| < R.

    Parameters
    ----------
    pevp : PolynomialEVP
    r_outer : float
        Annulus outer radius R (inner radius is 1/R).  Larger R keeps more
        decaying modes: boundary self-energies get more accurate, solves
        get bigger.
    subspace : int
        FEAST subspace dimension m0 (must exceed the eigenvalue count in
        the annulus).  Default: unit-cell size + 8, auto-doubled if the
        annulus turns out fuller than that.
    num_points : int
        Trapezoid points per circle.
    """
    if r_outer <= 1.0:
        raise ConfigurationError("r_outer must exceed 1")
    nbc = pevp.size
    n = pevp.n
    m0 = subspace if subspace is not None else min(nbc, n + 8)
    m0 = max(2, min(m0, nbc))
    rng = make_rng(seed)

    pts = _contour_points(r_outer, num_points)
    # Reuse one factorization of P(z_p) per contour point across all FEAST
    # refinement iterations — A and B never change.
    factors = [(z, w, pevp.factor_reduced(z)) for (z, w) in pts]
    num_solves = len(factors)

    a_lin, b_lin = pevp.pencil()

    # Byte-model logs: one rhs width / RR size per refinement iteration,
    # accumulated across auto-expand attempts (the contour factorizations
    # are NOT redone on expand, so only the iteration terms grow).
    width_log: list = []
    rr_log: list = []

    while True:
        y = rng.standard_normal((nbc, m0)) \
            + 1j * rng.standard_normal((nbc, m0))
        try:
            result = _feast_iterate(pevp, a_lin, b_lin, factors, y,
                                    r_outer, max_iter, tol,
                                    width_log, rr_log)
        except ConvergenceError:
            # A stall usually means the subspace is smaller than the
            # annulus eigenvalue count; grow it before giving up.
            if auto_expand and m0 < nbc:
                m0 = min(nbc, 2 * m0)
                continue
            raise
        lambdas, vectors, residuals, iters = result
        # FEAST convention: if the subspace is nearly saturated the count
        # is untrustworthy (modes may be missing) — expand and redo.
        if auto_expand and len(lambdas) >= m0 - 1 and m0 < nbc:
            m0 = min(nbc, 2 * m0)
            continue
        return FeastResult(lambdas=lambdas, vectors=vectors,
                           residuals=residuals, iterations=iters,
                           num_solves=num_solves, subspace_size=m0,
                           solve_widths=tuple(width_log),
                           rr_sizes=tuple(rr_log))


def _orthonormal_basis(q: np.ndarray, rank_tol: float = 1e-10) -> np.ndarray:
    """SVD-based orthonormal basis of range(q), truncated at rank_tol."""
    u, s, _ = np.linalg.svd(q, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return u[:, :1]
    keep = s > rank_tol * s[0]
    return u[:, keep]


def _rr_step(pevp, a_lin, b_lin, q, r_outer):
    """One post-filter step: orthonormalize, Rayleigh-Ritz, select annulus.

    Returns ``(lam_in, us, res, ritz)``: in-annulus eigenvalues,
    unit-cell vectors and residuals, and the full Ritz block (the next
    iterate).
    """
    # Orthonormalize with rank truncation: after the contour filter the
    # subspace collapses onto the (often much smaller) invariant
    # subspace of the annulus; directions annihilated by the filter are
    # pure round-off and must not reach the Rayleigh-Ritz step, where
    # they would produce spurious in-annulus Ritz values.
    qn = _orthonormal_basis(q)
    # Rayleigh-Ritz (Eq. 7): (Q^H A Q) u = lambda (Q^H B Q) u.
    ar = qn.conj().T @ (a_lin @ qn)
    br = qn.conj().T @ (b_lin @ qn)
    w_rr, v_rr = geig(ar, br, tag="feast-rr")
    ritz = qn @ v_rr

    finite = np.isfinite(w_rr)
    inside = finite & (np.abs(w_rr) < r_outer) \
        & (np.abs(w_rr) > 1.0 / r_outer)
    # Residuals on the physical unit-cell eigenvectors.
    lam_in, us = pevp.extract_unit_vectors(w_rr[inside], ritz[:, inside])
    return lam_in, us, pevp.residuals(lam_in, us), ritz


def _feast_iterate(pevp, a_lin, b_lin, factors, y, r_outer,
                   max_iter, tol, width_log=None, rr_log=None):
    """Inner FEAST loop: filter -> Rayleigh-Ritz -> check residuals."""
    best = None
    for it in range(1, max_iter + 1):
        if width_log is not None:
            width_log.append(int(y.shape[1]))
        # Contour filter: Q = sum_p w_p (z_p B - A)^{-1} B Y.
        q = np.zeros_like(y)
        for z, w, fac in factors:
            q += w * pevp.resolvent_apply(z, y, factor=fac)

        lam_in, us, res, ritz = _rr_step(pevp, a_lin, b_lin, q, r_outer)
        if rr_log is not None:
            rr_log.append(int(ritz.shape[1]))
        best = (lam_in, us, res, it)
        if len(lam_in) == 0 or (len(res) and res.max() < tol):
            return best
        # Refine: next subspace = the full set of Ritz vectors.
        y = ritz
    lam_in, us, res, it = best
    if len(res) and res.max() > 1e3 * tol:
        raise ConvergenceError(
            f"FEAST stalled: max residual {res.max():.2e} after "
            f"{max_iter} refinements", iterations=max_iter,
            residual=float(res.max()))
    return best
