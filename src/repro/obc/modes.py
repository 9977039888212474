"""Bloch-mode classification and supercell folding.

A solution of the lead polynomial EVP is a pair (lambda, u) describing a
wave psi_j = lambda^j u over the lead cells j.  This module sorts modes
into left-going and right-going sets (by decay, or by the sign of the
current :func:`mode_flux` they carry) and folds per-cell modes into the
supercell frame the transport blocks live in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.errors import ConfigurationError

#: | |lambda| - 1 | below this is a propagating mode (direction from the
#: sign of its flux); otherwise |lambda| < 1 decays to the right
PROPAGATING_TOL = 1e-6

#: eigenpairs with a relative residual above this are discarded (contour
#: methods can return spurious pairs outside their region)
RESIDUAL_TOL = 1e-7

#: propagating modes whose lambdas agree to this are one degenerate
#: eigenspace (:func:`flux_orthogonalize`): a vector rotated inside such
#: a cluster still solves the polynomial to RESIDUAL_TOL, so no looser
DEGENERATE_TOL = RESIDUAL_TOL


def bond_current(a: np.ndarray, coupling: np.ndarray,
                 b: np.ndarray) -> np.ndarray:
    """``-2 Im(a_m^H coupling b_m)`` for every column m: the probability
    current from the orbitals of ``a`` into those of ``b`` through the
    block ``coupling = H - E S`` that joins them (the lattice continuity
    equation of a non-orthogonal basis)."""
    return -2.0 * np.imag(np.einsum("im,ij,jm->m", np.conj(a), coupling, b))


def mode_flux(lams, vectors: np.ndarray, couplings) -> np.ndarray:
    """Current carried by each Bloch mode ``(lams[i], vectors[:, i])``,
    **not divided by any norm** (DESIGN.md, "Flux").

    ``couplings[l - 1]`` is the off-centre coefficient ``H_l - E S_l``,
    l = 1..NBW, of the frame the vectors live in (per cell:
    ``pevp.coeffs[nbw + 1:]``; folded: the one block ``h01 - E s01``).
    The wave psi_q = lambda^q u sends ``-2 Im(lambda^l u^H Htilde_l u)``
    through every pair of cells l apart, and l such pairs straddle a
    face: a per-cell mode and its stacked supercell vector carry the same
    number, dE/dk times ``u^H S(lambda) u``.
    """
    lams = np.asarray(lams, dtype=complex)
    flux = np.zeros(len(lams))
    for l, coupling in enumerate(couplings, start=1):
        flux += l * bond_current(vectors, coupling, vectors * lams ** l)
    return flux


@dataclass
class LeadModes:
    """Classified Bloch modes of one lead at one energy: the one table a
    mode's lambda, vector, flux and direction live in.

    All arrays are column-aligned: ``lambdas[i]`` pairs with
    ``vectors[:, i]``, ``velocities[i]``, ``propagating[i]``.
    ``velocities[i]`` is :func:`mode_flux` of ``vectors[:, i]`` as stored
    (0 for a decaying mode); a propagating mode is right-going iff it is
    positive.  :func:`classify_modes` fills the table per unit cell,
    :func:`fold_modes` moves it to the supercell frame and
    :func:`flux_orthogonalize` finishes it for an
    :class:`~repro.obc.selfenergy.OpenBoundary`.
    """

    lambdas: np.ndarray
    vectors: np.ndarray
    velocities: np.ndarray
    propagating: np.ndarray  # bool
    right_going: np.ndarray  # bool: decays rightward or carries flux > 0

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


def classify_modes(pevp, lambdas, vectors) -> LeadModes:
    """Classify raw eigenpairs into a :class:`LeadModes` table, dropping
    those above :data:`RESIDUAL_TOL`, non-finite eigenvalues and zero
    vectors.

    Array code throughout: one stacked residual for all pairs
    (:meth:`PolynomialEVP.residuals`), one :func:`mode_flux` for the
    propagating ones (:data:`PROPAGATING_TOL`), masks for the rest.
    """
    lambdas = np.asarray(lambdas, dtype=complex)
    vectors = np.asarray(vectors, dtype=complex)
    if vectors.shape[1] != len(lambdas):
        raise ConfigurationError("vectors/lambdas column count mismatch")

    keep = pevp.residuals(lambdas, vectors) <= RESIDUAL_TOL
    lambdas, vectors = lambdas[keep], vectors[:, keep]
    mags = np.abs(lambdas)
    propagating = np.abs(mags - 1.0) < PROPAGATING_TOL
    velocities = np.zeros(len(lambdas))
    velocities[propagating] = mode_flux(
        lambdas[propagating], vectors[:, propagating],
        pevp.coeffs[pevp.nbw + 1:])
    return LeadModes(
        lambdas=lambdas, vectors=vectors, velocities=velocities,
        propagating=propagating,
        right_going=np.where(propagating, velocities > 0, mags < 1.0))


def fold_modes(modes: LeadModes, group: int) -> LeadModes:
    """Fold per-cell modes into the supercell frame.

    A per-cell mode (lambda, u) becomes the supercell mode
    (Lambda, U) = (lambda^group, [u; lambda u; ...; lambda^{group-1} u]),
    normalized: the stacked vector carries the flux of u, the stored one
    that over the same squared norm.
    """
    if group < 1:
        raise ConfigurationError("group must be >= 1")
    if group == 1:
        return modes
    n, m = modes.vectors.shape
    powers = modes.lambdas ** np.arange(group)[:, None, None]
    big = (modes.vectors[None] * powers).reshape(group * n, m)
    norms = np.linalg.norm(big, axis=0)
    norms = np.where(norms > 0, norms, 1.0)
    return LeadModes(
        lambdas=modes.lambdas ** group,
        vectors=big / norms,
        velocities=modes.velocities / norms ** 2,
        propagating=modes.propagating.copy(),
        right_going=modes.right_going.copy(),
    )


def flux_orthogonalize(modes: LeadModes, coupling: np.ndarray) -> LeadModes:
    """Give the propagating modes of a degenerate lambda independent
    currents (``coupling``: ``h01 - E s01`` of the frame of ``modes``).

    ``sum |c|^2 flux`` is a current only over flux-orthogonal modes.
    Modes of different lambda are; inside one eigenspace an eigen-solver
    may return any basis.  So each cluster of propagating modes chained
    by lambdas that agree to :data:`DEGENERATE_TOL` has its Hermitian current
    matrix ``J_ab = i U_a^H (Lambda Htilde01 - conj(Lambda) Htilde01^H)
    U_b`` diagonalised and the table gets ``U W``, unit columns: still
    eigenvectors, flux J's eigenvalue, direction its sign.
    """
    prop = np.flatnonzero(modes.propagating)
    if prop.size < 2:
        return modes
    lams = modes.lambdas[prop]
    # connected components of "within the tolerance" (a chain a ~ b ~ c
    # is one cluster): close the adjacency, label by first mode reached
    reach = np.abs(lams[:, None] - lams) < DEGENERATE_TOL
    while not np.array_equal(grown := reach @ reach, reach):
        reach = grown
    label = reach.argmax(axis=1)
    clusters = np.flatnonzero(np.bincount(label) > 1)
    if not clusters.size:
        return modes
    out = LeadModes(modes.lambdas, modes.vectors.copy(),
                    modes.velocities.copy(), modes.propagating,
                    modes.right_going.copy())
    for c in clusters:
        cols = prop[label == c]
        u = modes.vectors[:, cols]
        m = u.conj().T @ (coupling @ (u * modes.lambdas[cols]))
        u = u @ np.linalg.eigh(1j * (m - m.conj().T))[1]
        out.vectors[:, cols] = u / np.linalg.norm(u, axis=0)
        out.velocities[cols] = mode_flux(modes.lambdas[cols],
                                         out.vectors[:, cols], [coupling])
        out.right_going[cols] = out.velocities[cols] > 0
    return out
