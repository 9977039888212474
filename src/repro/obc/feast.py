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

from repro.linalg import geig, lu_solve
from repro.utils.errors import ConfigurationError, ConvergenceError
from repro.utils.rng import make_rng

#: width of the first random block, doubled by appending freshly filtered
#: columns while the filtered block keeps full numerical rank
START_WIDTH = 16


@dataclass
class FeastResult:
    """Eigenpairs found inside the annulus, plus solver diagnostics."""

    lambdas: np.ndarray      # (m,) eigenvalues inside the annulus
    vectors: np.ndarray      # (n, m) unit-cell eigenvectors (top block)
    residuals: np.ndarray    # (m,) relative polynomial residuals
    iterations: int
    num_solves: int          # P(z) factorizations: one per contour orbit
    subspace_size: int       # width the first filtered block grew to
    #: rhs width of every contour ``lu_solve`` call, in order — together
    #: with ``num_solves`` and ``rr_sizes`` this determines the exact
    #: ledger counts (:func:`repro.perfmodel.costmodel.feast_kernels`)
    solve_widths: tuple = ()
    #: reduced Rayleigh-Ritz problem size, one entry per iteration
    rr_sizes: tuple = ()

    @property
    def num_modes(self) -> int:
        return len(self.lambdas)


def _contour(r_outer: float, num_points: int):
    """Trapezoid nodes ``z`` and weights ``w`` of the annulus boundary:
    w = +z/N on the outer circle, w = -z/N on the inner one.  Mirrored by
    construction, so :func:`_orbits` finds its symmetries bit for bit: the
    lower outer half is the conjugate of the upper one, and every inner
    point is 1/conj of an outer one."""
    theta = 2.0 * np.pi * (np.arange(num_points // 2) + 0.5) / num_points
    upper = r_outer * np.exp(1j * theta)
    outer = np.concatenate([upper, upper.conj(),
                            [-r_outer] * (num_points % 2)])
    inner = 1.0 / outer.conj()
    return (np.concatenate([outer, inner]),
            np.concatenate([outer, -inner]) / num_points)


def _orbits(pevp, zs) -> list:
    """One factorization point per symmetry orbit of the contour ``zs``,
    and how each point of the orbit is solved with it.

    With F = LU of P(z0): at real coefficients P(conj z0) = conj P(z0),
    and for a palindromic polynomial P(1/conj z0) = conj(z0)^-M P(z0)^H;
    so x = P(z)^{-1} b is, per image z of z0,

        z0          F x = b
        conj z0     F conj(x) = conj(b)                          (real)
        1/conj z0   F^H x = conj(z0)^M b                         (palindromic)
        1/z0        F^H conj(x) = conj(z0)^M conj(b)             (both)

    Images are matched to contour points by exact equality.  Returns
    ``[(z0, {trans: [(point, conjugated, scale), ...]})]``.
    """
    real, mirror = pevp.real_coefficients, pevp.palindromic
    todo = list(range(len(zs)))
    orbits = []
    while todo:
        p0 = todo.pop(0)
        z0 = zs[p0]
        scale = np.conj(z0) ** pevp.degree
        groups = {"N": [(p0, False, 1.0)]}
        images = [(np.conj(z0), "N", True, 1.0, real),
                  (1.0 / np.conj(z0), "C", False, scale, mirror),
                  (1.0 / z0, "C", True, scale, real and mirror)]
        for z, trans, conj, s, holds in images:
            hit = next((p for p in todo if holds and zs[p] == z), None)
            if hit is not None:
                todo.remove(hit)
                groups.setdefault(trans, []).append((hit, conj, s))
        orbits.append((z0, groups))
    return orbits


def _contour_filter(pevp, factors, zs, ws, y, width_log) -> np.ndarray:
    """Q = sum_p w_p (z_p B - A)^{-1} B y: one ``lu_solve`` per (factor,
    operator) on the side-by-side right-hand sides of the orbit members
    that use it."""
    rhs = pevp.contour_rhs(zs, y)
    x1 = np.empty_like(rhs)
    for fac, groups in factors:
        for trans, members in groups.items():
            x = lu_solve(fac, np.hstack([
                s * (rhs[p].conj() if conj else rhs[p])
                for p, conj, s in members]), tag="obc-P(z)-solve",
                trans=trans)
            width_log.append(x.shape[1])
            for (p, conj, _), xp in zip(members,
                                        np.hsplit(x, len(members))):
                x1[p] = xp.conj() if conj else xp
    return pevp.contour_sum(zs, ws, x1, y)


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
        Width m0 of the first random block (default :data:`START_WIDTH`).
        While the filtered block has full numerical rank, fresh filtered
        columns are appended (doubling) up to NBC; with ``auto_expand``
        False that is a :class:`ConvergenceError` instead.
    num_points : int
        Trapezoid points per circle.
    """
    if r_outer <= 1.0:
        raise ConfigurationError("r_outer must exceed 1")
    nbc = pevp.size
    width = max(2, min(subspace if subspace is not None else START_WIDTH,
                       nbc))
    rng = make_rng(seed)

    zs, ws = _contour(r_outer, num_points)
    # one factorization of P(z0) per orbit, reused by every filter
    # application - A and B never change
    factors = [(pevp.factor_reduced(z0), groups)
               for z0, groups in _orbits(pevp, zs)]
    a_lin, b_lin = pevp.pencil()
    width_log: list = []
    rr_log: list = []

    def draw(k):
        return rng.standard_normal((nbc, k)) \
            + 1j * rng.standard_normal((nbc, k))

    q = _contour_filter(pevp, factors, zs, ws, draw(width), width_log)
    basis = _orthonormal_basis(q)
    # a full-rank filtered block may be missing directions: append fresh
    # columns (the factors are reused) until the filter's rank shows
    while basis.shape[1] == q.shape[1] < nbc:
        if not auto_expand:
            raise ConvergenceError(
                f"FEAST subspace of {q.shape[1]} is saturated (full "
                f"numerical rank after filtering) and auto_expand is off")
        fresh = draw(min(q.shape[1], nbc - q.shape[1]))
        q = np.hstack([q, _contour_filter(pevp, factors, zs, ws, fresh,
                                          width_log)])
        basis = _orthonormal_basis(q)

    for it in range(1, max_iter + 1):
        lam_in, us, res, ritz = _rr_step(pevp, a_lin, b_lin, basis,
                                         r_outer)
        rr_log.append(ritz.shape[1])
        if len(lam_in) == 0 or res.max() < tol or it == max_iter:
            break
        # Refine: next subspace = the full set of Ritz vectors.
        basis = _orthonormal_basis(_contour_filter(pevp, factors, zs, ws,
                                                   ritz, width_log))
    if len(res) and res.max() > 1e3 * tol:
        raise ConvergenceError(
            f"FEAST stalled: max residual {res.max():.2e} after "
            f"{max_iter} refinements", iterations=max_iter,
            residual=float(res.max()))
    return FeastResult(lambdas=lam_in, vectors=us, residuals=res,
                       iterations=it, num_solves=len(factors),
                       subspace_size=q.shape[1],
                       solve_widths=tuple(width_log),
                       rr_sizes=tuple(rr_log))


def _orthonormal_basis(q: np.ndarray, rank_tol: float = 1e-10) -> np.ndarray:
    """SVD-based orthonormal basis of range(q), truncated at rank_tol."""
    u, s, _ = np.linalg.svd(q, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return u[:, :1]
    keep = s > rank_tol * s[0]
    return u[:, keep]


def _rr_step(pevp, a_lin, b_lin, qn, r_outer):
    """One post-filter step on the orthonormal basis ``qn``: Rayleigh-Ritz,
    select annulus.  ``qn`` is rank-truncated: directions the filter
    annihilated are round-off and would give spurious in-annulus Ritz
    values.

    Returns ``(lam_in, us, res, ritz)``: in-annulus eigenvalues,
    unit-cell vectors and residuals, and the full Ritz block (the next
    iterate).
    """
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
