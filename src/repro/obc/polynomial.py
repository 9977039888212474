"""The lead polynomial eigenvalue problem, Eq. (6) of the paper.

For a lead with inter-cell interaction range NBW, the Bloch phase factors
lambda = exp(i k) and eigenmodes u solve

    sum_{l=-NBW}^{+NBW} lambda^l (H_{q,q+l} - E S_{q,q+l}) u = 0.

Multiplying by lambda^NBW turns this into a matrix polynomial

    P(lambda) u = sum_{m=0}^{M} lambda^m C_m u = 0,   M = 2 NBW,
    C_m = H_{q, q+m-NBW} - E S_{q, q+m-NBW},

whose companion linearization is the generalized pencil A v = lambda B v
of size NBC = M n (the paper's Eqs. 8-9, in the equivalent ascending-power
form).  The key computational property (paper, Section 3A): a resolvent
solve (z B - A)^{-1} w — the inner kernel of both FEAST and shift-and-
invert — reduces *analytically* to one solve with the n x n matrix P(z),
"through an analytical block LU decomposition, their size can be decreased
to NBC/(2 NBW)".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.linalg import block_support, geig, gemm, lu_factor, lu_solve
from repro.obc.modes import PROPAGATING_TOL
from repro.observability.spans import current_tracer
from repro.utils.errors import (ConfigurationError, ShapeError,
                                SingularMatrixError)

#: an interface-reduced centre coefficient g times larger than the
#: unreduced one has lost log10(g) digits to cancellation (E sits next to
#: a level of the isolated interior, where K_II is singular): beyond
#: four lost digits that energy is solved unreduced
_SCHUR_GROWTH_LIMIT = 1e4


def count_interface_fallback() -> None:
    """One lead energy solved unreduced although the lead has an interior
    (metric ``obc_interface_fallbacks`` of the active tracer)."""
    tracer = current_tracer()
    if tracer is not None:
        tracer.metrics.counter("obc_interface_fallbacks").inc()


@dataclass
class InterfaceReduction:
    """What ties an interface-reduced polynomial to the full one.

    ``x = K_II^{-1} K_IB`` (``K`` the centre coefficient) turns an
    eigenvector ``u_B`` of the reduced polynomial into the eigenvector
    ``[u_B; -x u_B]`` of ``full``.
    """

    full: "PolynomialEVP"
    interface: np.ndarray
    interior: np.ndarray
    x: np.ndarray

    def lift(self, us: np.ndarray) -> np.ndarray:
        """Unit-normalized full-size eigenvectors from reduced ones."""
        us = np.asarray(us, dtype=complex)
        out = np.empty((self.full.n, us.shape[1]), dtype=complex)
        out[self.interface] = us
        out[self.interior] = -gemm(self.x, us, tag="obc-lift")
        norms = np.linalg.norm(out, axis=0)
        return out / np.where(norms > 0, norms, 1.0)


class PolynomialEVP:
    """Matrix polynomial P(lambda) = sum_m lambda^m C_m from lead blocks.

    Parameters
    ----------
    h_cells, s_cells : lists of (n, n) arrays
        Per-cell lead blocks H_{q,q+l}, S_{q,q+l} for l = 0..NBW.
        Blocks for negative l follow from Hermiticity.
    energy : float
        The (real) electron energy E at which modes are sought.
    """

    def __init__(self, h_cells, s_cells, energy: float):
        if len(h_cells) != len(s_cells):
            raise ConfigurationError("h_cells and s_cells lengths differ")
        if len(h_cells) < 2:
            raise ConfigurationError(
                "need at least onsite and first-neighbour blocks")
        n = h_cells[0].shape[0]
        for blk in (*h_cells, *s_cells):
            if blk.shape != (n, n):
                raise ShapeError("all lead blocks must be n x n")
        self.energy = float(energy)
        self.n = n
        self.nbw = len(h_cells) - 1
        self.degree = 2 * self.nbw  # M

        # Coefficients C_m = Htilde_{m - NBW}, with
        # Htilde_l = H_l - E S_l and Htilde_{-l} = Htilde_l^H.
        htl = [np.asarray(h) - self.energy * np.asarray(s)
               for h, s in zip(h_cells, s_cells)]
        coeffs = []
        for m in range(self.degree + 1):
            l = m - self.nbw
            coeffs.append(htl[l].astype(complex) if l >= 0
                          else htl[-l].conj().T.astype(complex))
        self.coeffs = coeffs
        self._coeff_norms = None
        self.reduction = None

    @classmethod
    def _from_coeffs(cls, coeffs, energy: float, n: int, nbw: int):
        """Assemble a PolynomialEVP from pre-built coefficients.

        Used by :class:`PolynomialFamily`, which has already validated the
        lead blocks and applied the Hermiticity fold; skips re-validation.
        """
        self = cls.__new__(cls)
        self.energy = float(energy)
        self.n = int(n)
        self.nbw = int(nbw)
        self.degree = 2 * self.nbw
        self.coeffs = list(coeffs)
        self._coeff_norms = None
        self.reduction = None
        return self

    # -- interface reduction (set by PolynomialFamily) -----------------------

    @property
    def full(self) -> "PolynomialEVP":
        """The polynomial on all unit-cell orbitals: ``self`` unless this
        one is interface-reduced (``reduction`` is set)."""
        return self if self.reduction is None else self.reduction.full

    def lift(self, us: np.ndarray) -> np.ndarray:
        """Eigenvectors of :attr:`full` from eigenvectors of ``self``."""
        return us if self.reduction is None else self.reduction.lift(us)

    # -- basic evaluation ---------------------------------------------------

    @property
    def size(self) -> int:
        """NBC: dimension of the linearized pencil."""
        return self.degree * self.n

    def eval(self, z: complex) -> np.ndarray:
        """P(z) = sum_m z^m C_m."""
        out = np.zeros((self.n, self.n), dtype=complex)
        zp = 1.0
        for c in self.coeffs:
            out += zp * c
            zp *= z
        return out

    def residuals(self, lams, us) -> np.ndarray:
        """Relative residuals ||P(lambda_i) u_i|| / (||u_i|| scale_i) of
        the pairs ``(lams[i], us[:, i])``, scale-free; ``inf`` for a zero
        vector or a non-finite lambda.

        All pairs at once: one product per coefficient,
        ``sum_m C_m (us * lams^m)``.
        """
        lams = np.asarray(lams, dtype=complex)
        us = np.asarray(us, dtype=complex)
        if self._coeff_norms is None:
            # energy-fixed, so once per polynomial and not per eigenpair
            self._coeff_norms = np.array(
                [np.linalg.norm(c, ord=np.inf) for c in self.coeffs])
        finite = np.isfinite(lams)
        z = np.where(finite, lams, 0.0)
        acc = np.zeros_like(us)
        zp = np.ones_like(z)
        for c in self.coeffs:
            acc += c @ (us * zp)
            zp = zp * z
        growth = np.maximum(np.abs(z), 1.0)
        scale = (self._coeff_norms[:, None]
                 * growth ** np.arange(self.degree + 1)[:, None]).max(axis=0)
        norms = np.linalg.norm(us, axis=0)
        with np.errstate(invalid="ignore"):     # 0 / 0 of a zero vector
            res = np.linalg.norm(acc, axis=0) \
                / (norms * np.maximum(scale, 1e-300))
        return np.where(finite & (norms > 0), res, np.inf)

    def residual(self, lam: complex, u: np.ndarray) -> float:
        """:meth:`residuals` of the one pair ``(lam, u)``."""
        return float(self.residuals([lam], np.asarray(u)[:, None])[0])

    # -- companion linearization (Eqs. 8-9 equivalent) -----------------------

    def pencil(self):
        """Dense companion pencil (A, B) with A v = lambda B v.

        v = [u; lambda u; ...; lambda^{M-1} u].  B is singular whenever
        the farthest coupling block C_M is — generalized eigensolvers and
        the contour integration both handle the resulting infinite
        eigenvalues naturally.
        """
        m, n = self.degree, self.n
        a = np.zeros((m * n, m * n), dtype=complex)
        b = np.zeros((m * n, m * n), dtype=complex)
        for j in range(m - 1):
            a[j * n:(j + 1) * n, (j + 1) * n:(j + 2) * n] = np.eye(n)
            b[j * n:(j + 1) * n, j * n:(j + 1) * n] = np.eye(n)
        for k in range(m):
            a[(m - 1) * n:, k * n:(k + 1) * n] = -self.coeffs[k]
        b[(m - 1) * n:, (m - 1) * n:] = self.coeffs[m]
        return a, b

    def extract_unit_vectors(self, w, v):
        """Recover unit-cell eigenvectors u from linearization vectors.

        A linearization eigenvector is v = [u; lambda u; ...;
        lambda^{M-1} u]; for |lambda| >> 1 the top block underflows after
        normalization, so u is read from the *largest* block (every block
        is proportional to u).  Columns are normalized; pairs whose best
        block is still negligible (pure infinite-eigenvalue directions)
        are dropped.

        Returns ``(w_kept, us)``.
        """
        m, n = self.degree, self.n
        # (column, block, orbital): every block norm is a contiguous sum
        blocks = v.T.reshape(v.shape[1], m, n)
        norms = np.linalg.norm(blocks, axis=2)
        best = norms.argmax(axis=1)
        keep = np.flatnonzero(norms[np.arange(len(best)), best] >= 1e-12)
        us = blocks[keep, best[keep]] / norms[keep, best[keep], None]
        return np.asarray(w)[keep], np.ascontiguousarray(us.T)

    def _face_rows(self):
        """Row support R of the far coupling C_2 when the cell has two
        disjoint faces - NBW = 1 and no orbital is both a row and a
        column of C_2 - and ``None`` otherwise."""
        if self.nbw != 1:
            return None
        rows, cols = block_support(self.coeffs[2])
        return None if np.intersect1d(rows, cols).size else rows

    def solve_dense(self, drop_infinite: bool = True, inf_cut: float = 1e12):
        """All finite eigenpairs via LAPACK ``zggev``: the exact reference
        the fast methods are validated against.

        *Two disjoint faces* (:meth:`_face_rows`; what a localized basis
        gives, on the interface orbitals too).  With P = C_0 + lambda K +
        lambda^2 C_2, rows R of C_0 and all other rows of C_2 vanish, so
        rows R of P(lambda) u = 0 divided by lambda and the other rows as
        they stand are the n-sized linear pencil

            A = [K[R]; C_0[rest]],   B = -[C_2[R]; K[rest]],

        which has P's finite non-zero spectrum and its eigenvectors.  It
        resolves |lambda| >= 1 to working precision and loses digits for
        |lambda| << 1, so the right-decaying modes come from the
        palindromic symmetry instead (C_0 = C_2^H, K = K^H at real E): a
        left eigenvector y at lambda, ``y^H (A - lambda B) = 0`` with
        ``A - lambda B = D P(lambda)``, D = diag(1/lambda on R, 1
        elsewhere), gives w = conj(D) y with P(lambda)^H w =
        conj(lambda)^2 P(1/conj(lambda)) w = 0 - the mode at
        1/conj(lambda).  Returned: the pairs on the unit circle as
        computed, ``(lambda, v)`` and ``(1/conj(lambda), w)`` for every
        |lambda| > 1; computed |lambda| < 1 pairs are dropped.

        *Otherwise* (NBW > 1, or an orbital coupling both ways): the
        ``2 NBW n`` companion pencil, O(NBC^3), every finite eigenvalue
        including the lambda ~ 0 directions.

        Returns
        -------
        (lambdas, us) with ``us`` the n-dimensional unit-cell eigenvectors,
        column-normalized.
        """
        rows = self._face_rows()
        if rows is None:
            a, b = self.pencil()
            w, v = geig(a, b, tag="obc-dense")
            if drop_infinite:
                keep = np.isfinite(w) & (np.abs(w) < inf_cut)
                w, v = w[keep], v[:, keep]
            return self.extract_unit_vectors(w, v)
        c0, k, c2 = self.coeffs
        a = c0.copy()
        a[rows] = k[rows]
        b = -k
        b[rows] = -c2[rows]
        w, vl, vr = geig(a, b, left=True, tag="obc-dense")
        mag = np.abs(w)
        outer = mag > 1.0 + PROPAGATING_TOL
        if drop_infinite:
            outer &= mag < inf_cut
        # reciprocal bounds: a decaying pair never counts twice
        circle = (mag <= 1.0 + PROPAGATING_TOL) \
            & (mag >= 1.0 / (1.0 + PROPAGATING_TOL))
        mirrored = vl[:, outer]
        mirrored[rows] /= np.conj(w[outer])
        mirrored /= np.linalg.norm(mirrored, axis=0)
        return (np.concatenate([w[circle], w[outer], 1.0 / np.conj(w[outer])]),
                np.hstack([vr[:, circle], vr[:, outer], mirrored]))

    # -- reduced resolvent solve (the "analytical block LU") -----------------

    @cached_property
    def palindromic(self) -> bool:
        """``C_{M-m} == C_m^H`` bit for bit (Hermitian lead blocks at a
        real energy), so that ``P(z)^H = conj(z)^M P(1/conj(z))``."""
        m = self.degree
        return all(np.array_equal(self.coeffs[m - j], self.coeffs[j].conj().T)
                   for j in range(m // 2 + 1))

    @cached_property
    def real_coefficients(self) -> bool:
        """No coefficient has an imaginary part (k = 0), so that
        ``P(conj(z)) = conj(P(z))``."""
        return not any(c.imag.any() for c in self.coeffs)

    def factor_reduced(self, z: complex):
        """LU-factorize P(z) once for reuse over many right-hand sides."""
        return lu_factor(self.eval(z), tag="obc-P(z)")

    @cached_property
    def _coeff_stacks(self) -> list:
        """``[C_{1+d} ... C_M]`` side by side, d = 0..M-1."""
        return [np.hstack(self.coeffs[1 + d:]) for d in range(self.degree)]

    def contour_rhs(self, zs, y: np.ndarray) -> np.ndarray:
        """The right-hand sides ``rhs(z)`` of P(z) x_1 = rhs(z) in
        :meth:`resolvent_apply`, one ``(n, ncol)`` slice per z of ``zs``.

        Eliminating x_2..x_M leaves rhs(z) = sum_d z^d R_d with
        R_d = [C_{1+d} ... C_M] y[:(M-d) n]: one product per coefficient
        stack, whatever the number of points.
        """
        r = np.stack([c @ y[:c.shape[1]] for c in self._coeff_stacks])
        powers = np.asarray(zs, dtype=complex)[:, None] \
            ** np.arange(self.degree)
        return np.tensordot(powers, r, axes=1)

    def contour_sum(self, zs, weights, x1: np.ndarray,
                    y: np.ndarray) -> np.ndarray:
        """``sum_p weights[p] x(zs[p])`` with x(z) = (z B - A)^{-1} B y
        rebuilt from its first blocks ``x1[p]``: rows 1..M-1 of
        (z B - A) x = B y read x_{j+1} = z x_j - y_j."""
        n = self.n
        zs = np.asarray(zs, dtype=complex)[:, None, None]
        weights = np.asarray(weights, dtype=complex)
        out = np.empty((self.size, x1.shape[2]), dtype=complex)
        xj = x1
        out[:n] = np.tensordot(weights, xj, axes=1)
        for j in range(1, self.degree):
            xj = zs * xj - y[(j - 1) * n:j * n]
            out[j * n:(j + 1) * n] = np.tensordot(weights, xj, axes=1)
        return out

    def resolvent_apply(self, z: complex, y: np.ndarray,
                        factor=None) -> np.ndarray:
        """Compute x = (z B - A)^{-1} B y at unit-cell cost.

        ``y`` has NBC rows (any number of columns).  Derivation: writing
        x = [x_1; ...; x_M] and w = B y, rows 1..M-1 of (zB - A)x = w give
        x_{j+1} = z x_j - w_j, and substituting into the last row leaves a
        single n x n system P(z) x_1 = rhs — the NBC/(2 NBW) reduction the
        paper exploits to make FEAST cheap (:meth:`contour_rhs`,
        :meth:`contour_sum`).
        """
        y = np.asarray(y, dtype=complex)
        squeeze = y.ndim == 1
        if squeeze:
            y = y[:, None]
        if y.shape[0] != self.size:
            raise ShapeError(f"y must have {self.size} rows, got {y.shape[0]}")
        fac = factor if factor is not None else self.factor_reduced(z)
        x1 = lu_solve(fac, self.contour_rhs([z], y)[0],
                      tag="obc-P(z)-solve")
        x = self.contour_sum([z], [1.0], x1[None], y)
        return x[:, 0] if squeeze else x


class PolynomialFamily:
    """Energy-independent setup of a lead's polynomial EVPs.

    Validating the lead blocks and applying the Hermiticity fold
    C_{-l} = C_l^H is the same at every energy; only the subtraction
    C_m(E) = H_m - E S_m changes.  A ``PolynomialFamily`` does the
    structural work once per (lead, k-point) and :meth:`at_energy` then
    builds each :class:`PolynomialEVP` with one axpy per coefficient.

    Bitwise equivalence with the direct constructor holds because the
    conjugate-transpose commutes exactly with the real-scalar multiply
    and the subtraction under IEEE-754 (negation and conjugation are
    exact), so pre-folding the blocks changes nothing in the result.

    **Interface reduction.**  In a localized basis the off-centre
    coefficients touch the orbitals next to the cell boundary only:
    outside the ``interface`` set B (union of the exact ``!= 0`` row and
    column supports of every ``h_cells[l]``/``s_cells[l]``, l >= 1) their
    rows and columns vanish for every energy.  With I the ``interior``
    and K = C_NBW the centre coefficient, P(lambda) u = 0 at finite
    lambda != 0 splits into

        K_IB u_B + K_II u_I = 0,
        [sum_{m != NBW} lambda^m C_m[B,B]
         + lambda^NBW (K_BB - K_BI K_II^{-1} K_IB)] u_B = 0,

    so the finite non-zero Bloch factors are exactly those of a
    polynomial of size |B| and the modes follow from
    u_I = -K_II^{-1} K_IB u_B.  :meth:`at_energy` hands out that reduced
    polynomial (``.full`` and ``.lift`` lead back; a Hermitian K gets the
    Hermitian part of its Schur complement, so the reduced polynomial is
    palindromic bit for bit like the full one); when B is everything
    (dense coupling) or nothing it is the full polynomial itself, and so
    it is at an energy where the Schur complement blows up
    (``obc_interface_fallbacks`` counts those).
    """

    def __init__(self, h_cells, s_cells):
        if len(h_cells) != len(s_cells):
            raise ConfigurationError("h_cells and s_cells lengths differ")
        if len(h_cells) < 2:
            raise ConfigurationError(
                "need at least onsite and first-neighbour blocks")
        h_cells = [np.asarray(b) for b in h_cells]
        s_cells = [np.asarray(b) for b in s_cells]
        n = h_cells[0].shape[0]
        for blk in (*h_cells, *s_cells):
            if blk.shape != (n, n):
                raise ShapeError("all lead blocks must be n x n")
        self.n = n
        self.nbw = len(h_cells) - 1
        self.degree = 2 * self.nbw
        pairs = []
        for m in range(self.degree + 1):
            l = m - self.nbw
            if l >= 0:
                pairs.append((h_cells[l], s_cells[l]))
            else:
                pairs.append((h_cells[-l].conj().T, s_cells[-l].conj().T))
        self._pairs = pairs

        interface = np.union1d(*block_support(*h_cells[1:], *s_cells[1:]))
        if not 0 < interface.size < n:
            interface = np.arange(n)
        #: orbitals some off-centre coefficient touches, and the rest
        self.interface = interface
        self.interior = np.setdiff1d(np.arange(n), interface)

    def at_energy(self, energy: float) -> PolynomialEVP:
        """P(lambda; E) with coefficients C_m = H_m - E S_m, on the
        interface orbitals when the lead has an interior; the full
        polynomial when K_II is singular to working precision at this
        energy."""
        e = float(energy)
        coeffs = [(h - e * s).astype(complex) for h, s in self._pairs]
        full = PolynomialEVP._from_coeffs(coeffs, e, self.n, self.nbw)
        if not self.interior.size:
            return full
        b, i = self.interface, self.interior
        k = coeffs[self.nbw]
        try:
            x = lu_solve(lu_factor(k[i[:, None], i], tag="obc-interior"),
                         k[i[:, None], b], tag="obc-interior")
        except SingularMatrixError:     # K_II has an exactly zero pivot
            count_interface_fallback()
            return full
        schur = k[b[:, None], b] - gemm(k[b[:, None], i], x,
                                        tag="obc-interior")
        if np.array_equal(k, k.conj().T):   # so is its exact complement
            schur = (schur + schur.conj().T) / 2
        k_norm = np.linalg.norm(k, ord=np.inf)
        growth = np.linalg.norm(schur, ord=np.inf)
        if not growth <= _SCHUR_GROWTH_LIMIT * k_norm:   # catches NaN too
            count_interface_fallback()
            return full
        pevp = PolynomialEVP._from_coeffs(
            [schur if m == self.nbw else c[b[:, None], b]
             for m, c in enumerate(coeffs)], e, b.size, self.nbw)
        pevp.reduction = InterfaceReduction(full, b, i, x)
        return pevp
