"""Bloch-mode classification and supercell folding.

A solution of the lead polynomial EVP is a pair (lambda, u) describing a
wave psi_j = lambda^j u over the lead cells j.  This module sorts modes
into left-going and right-going sets (by decay or by group velocity) and
folds per-cell modes into the supercell frame the transport blocks live in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.errors import ConfigurationError

#: | |lambda| - 1 | below this is a propagating mode
PROPAGATING_TOL = 1e-6


def group_velocity(pevp, lam: complex, u: np.ndarray) -> float:
    """Group velocity dE/dk of a propagating mode (cell-length units).

    From first-order perturbation theory on P(e^{ik}) u = 0:
    v = u^H (sum_l i l lambda^l Htilde_l) u / (u^H S(lambda) u), real for
    |lambda| = 1 up to round-off.
    """
    nbw = pevp.nbw
    fk = np.zeros((pevp.n, pevp.n), dtype=complex)
    for m, c in enumerate(pevp.coeffs):
        l = m - nbw
        if l != 0:
            fk += 1j * l * lam ** l * c
    # S(lambda) from the energy derivative: Htilde_l = H_l - E S_l, so
    # dP/dE = -S(lambda); we reconstruct S(lambda) via finite energy shift
    # would be wasteful — instead the caller normalizes; here we use
    # u^H u as the (positive) normalization since only consistent relative
    # magnitudes and signs matter for flux ratios computed in one frame.
    num = complex(u.conj() @ (fk @ u))
    den = float(np.real(u.conj() @ u))
    return float(np.real(num) / den)


@dataclass
class LeadModes:
    """Classified Bloch modes of one lead at one energy.

    All arrays are column-aligned: ``lambdas[i]`` pairs with
    ``vectors[:, i]``, ``velocities[i]``, ``propagating[i]``.

    ``vectors`` hold *unfolded* (per-unit-cell) modes of size n; use
    :func:`fold_modes` to move to the supercell frame.
    """

    lambdas: np.ndarray
    vectors: np.ndarray
    velocities: np.ndarray
    propagating: np.ndarray  # bool
    right_going: np.ndarray  # bool: decays rightward or propagates with v>0

    @property
    def num_modes(self) -> int:
        return len(self.lambdas)

    def select(self, mask) -> "LeadModes":
        mask = np.asarray(mask)
        return LeadModes(self.lambdas[mask], self.vectors[:, mask],
                         self.velocities[mask], self.propagating[mask],
                         self.right_going[mask])

    @property
    def num_propagating_right(self) -> int:
        return int(np.count_nonzero(self.propagating & self.right_going))

    @property
    def num_propagating_left(self) -> int:
        return int(np.count_nonzero(self.propagating & ~self.right_going))


def classify_modes(pevp, lambdas, vectors, prop_tol: float = PROPAGATING_TOL,
                   residual_tol: float = 1e-7) -> LeadModes:
    """Classify raw eigenpairs into a :class:`LeadModes` table.

    Array code: one stacked residual for all pairs
    (:meth:`PolynomialEVP.residuals`), masks for the rest; only the few
    propagating pairs are visited one by one, for their group velocity.

    Parameters
    ----------
    prop_tol : float
        | |lambda| - 1 | below this marks a propagating mode; direction
        then comes from the group velocity.  Otherwise |lambda| < 1 is
        right-decaying, |lambda| > 1 left-decaying.
    residual_tol : float
        Eigenpairs with relative residual above this are discarded
        (contour methods can return spurious pairs outside their region),
        as are non-finite eigenvalues and zero vectors.
    """
    lambdas = np.asarray(lambdas, dtype=complex)
    vectors = np.asarray(vectors, dtype=complex)
    if vectors.shape[1] != len(lambdas):
        raise ConfigurationError("vectors/lambdas column count mismatch")

    keep = pevp.residuals(lambdas, vectors) <= residual_tol
    lambdas, vectors = lambdas[keep], vectors[:, keep]
    mags = np.abs(lambdas)
    propagating = np.abs(mags - 1.0) < prop_tol
    velocities = np.zeros(len(lambdas))
    for i in np.flatnonzero(propagating):
        velocities[i] = group_velocity(pevp, lambdas[i], vectors[:, i])
    return LeadModes(
        lambdas=lambdas, vectors=vectors, velocities=velocities,
        propagating=propagating,
        right_going=np.where(propagating, velocities > 0, mags < 1.0))


def fold_modes(modes: LeadModes, group: int) -> LeadModes:
    """Fold per-cell modes into the supercell frame.

    A per-cell mode (lambda, u) becomes the supercell mode
    (Lambda, U) = (lambda^group, [u; lambda u; ...; lambda^{group-1} u]),
    normalized.  Velocities keep their per-cell values (direction and
    flux *ratios* are preserved, which is all transport uses).
    """
    if group < 1:
        raise ConfigurationError("group must be >= 1")
    if group == 1:
        return modes
    n, m = modes.vectors.shape
    powers = modes.lambdas ** np.arange(group)[:, None, None]
    big = (modes.vectors[None] * powers).reshape(group * n, m)
    norms = np.linalg.norm(big, axis=0)
    return LeadModes(
        lambdas=modes.lambdas ** group,
        vectors=big / np.where(norms > 0, norms, 1.0),
        velocities=modes.velocities.copy(),
        propagating=modes.propagating.copy(),
        right_going=modes.right_going.copy(),
    )


def folded_velocity(lam: complex, u: np.ndarray, h01f: np.ndarray,
                    s01f: np.ndarray, s00f: np.ndarray,
                    energy: float) -> float:
    """Group velocity evaluated in the folded (NBW = 1) frame.

    v = -2 Im(Lambda u^H (H01 - E S01) u) / (u^H S(Lambda) u); used for
    flux normalization of folded-mode amplitudes (all in one consistent
    frame).
    """
    ht01 = h01f - energy * s01f
    a = complex(u.conj() @ (ht01 @ u))
    sk = s00f + lam * s01f + np.conj(lam) * s01f.conj().T
    den = float(np.real(u.conj() @ (sk @ u)))
    if abs(den) < 1e-300:
        return 0.0
    return float(-2.0 * np.imag(lam * a) / den)
