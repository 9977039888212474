"""Mixed-precision batched LU with iterative refinement.

The classic hybrid-supercomputer trick contemporaneous with the paper
(MAGMA's ``zcgesv``): factorize the ``(nE, n, n)`` stack in complex64 —
an O(n^3) saving, since single-precision GETRF runs ~2x faster on the
same hardware — then recover complex128 accuracy with cheap O(n^2)
iterative refinement:

.. code-block:: text

    A32 = c64(A);  LU = cgetrf(A32)          # fast low-precision factor
    x   = z(cgetrs(LU, c64(b)))              # low-precision first solve
    repeat: r = b - A @ x                    # double-precision residual
            x += z(cgetrs(LU, c64(r)))       # refine failing slices only

A per-slice residual gate (``||A_e x_e - b_e|| / ||b_e||`` against
:attr:`MixedPrecisionBackend.tol`) decides convergence independently
for every energy; slices that do not reach the gate within
:attr:`MixedPrecisionBackend.max_refine_iters` sweeps fall back to a
per-slice double-precision factorization — so ill-conditioned energies
silently get the reference answer while the well-conditioned bulk
keeps the speedup.  Slices whose complex64 cast overflows are flagged
at factor time and never touch the low-precision path.

Ledger discipline matches the reference backend: one record per
batched sweep, analytic flop counts (precision-independent — the
operation counts of ``cgetrf``/``zgetrf`` are identical), and actual
bytes of the arrays touched (complex64 traffic is half the
double-precision figure).  ``cgetrf_batched``/``cgetrs_batched``
kernel names distinguish the low-precision sweeps in activity traces;
per-slice fallbacks record ``zgetrf_batched``/``zgetrs_batched`` with
a ``|fallback`` tag.  The converging sequence is
:func:`repro.perfmodel.costmodel.mixed_kernels`, priced from the two
``*_c64`` rows of :func:`repro.linalg.flops.kernel_cost`.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack as _lap

from repro.linalg import flops as _fl
from repro.linalg.backend import KernelBackend
from repro.linalg.batched import _check_stack
from repro.linalg.kernels import _record
from repro.utils.errors import SingularMatrixError

#: Default relative-residual convergence gate of the refinement loop.
DEFAULT_RESIDUAL_TOL = 1e-10

#: Default refinement sweeps before a slice falls back to double.
DEFAULT_MAX_REFINE_ITERS = 3


class MixedLUFactor:
    """Opaque factor object of the mixed backend.

    Holds the complex64 LU factors *and* a complex128 copy of the
    input stack: residuals must be computed against the original
    matrices, and callers are free to reuse the input buffer the moment
    ``lu_factor_batched`` returns.  Per-slice double-precision fallback
    factors are computed lazily at solve time and cached here, so
    repeated solves against one factor pay each fallback factorization
    once.
    """

    def __init__(self, lu32, piv, a, bad_slices):
        self.lu32 = lu32
        self.piv = piv
        self.a = a
        #: slices whose complex64 cast was non-finite (never refined)
        self.bad_slices = frozenset(int(i) for i in bad_slices)
        self._zfacs: dict = {}

    @property
    def batch_size(self) -> int:
        return self.lu32.shape[0]

    @property
    def n(self) -> int:
        return self.lu32.shape[1]

    def z_factor(self, i: int, tag: str = ""):
        """Double-precision factor of slice ``i`` (cached, recorded)."""
        fac = self._zfacs.get(i)
        if fac is None:
            t0 = time.perf_counter()
            try:
                fac = sla.lu_factor(self.a[i], check_finite=False)
            except (sla.LinAlgError, ValueError) as exc:
                raise SingularMatrixError(
                    f"double-precision fallback factorization failed "
                    f"for slice {i}: {exc}") from exc
            _record("zgetrf_batched", _fl.lu_flops(self.n, True),
                    2 * self.a[i].nbytes, t0,
                    f"{tag}|fallback" if tag else "fallback")
            self._zfacs[i] = fac
        return fac


class MixedPrecisionBackend(KernelBackend):
    """complex64 batched LU + iterative refinement to complex128.

    GEMM runs the reference double-precision kernel — the win targets
    the factor-dominated LU pipeline, and double-precision residual
    GEMMs are what make the refinement sound.  Real (float64)
    stacks take the reference path unchanged.

    Parameters
    ----------
    tol : per-slice relative-residual gate (default ``1e-10``, or the
        ``REPRO_MIXED_TOL`` environment variable).
    max_refine_iters : refinement sweeps before the double fallback.
    """

    name = "mixed"

    def __init__(self, tol: float | None = None,
                 max_refine_iters: int = DEFAULT_MAX_REFINE_ITERS):
        if tol is None:
            tol = float(os.environ.get("REPRO_MIXED_TOL",
                                       DEFAULT_RESIDUAL_TOL))
        self.tol = float(tol)
        self.max_refine_iters = int(max_refine_iters)
        self._lock = threading.Lock()
        self.stats = {"factor_calls": 0, "solve_calls": 0,
                      "refine_iterations": 0, "fallback_slices": 0,
                      "max_residual": 0.0}

    def reset_stats(self) -> None:
        with self._lock:
            for k in self.stats:
                self.stats[k] = 0.0 if k == "max_residual" else 0

    def _bump(self, **deltas) -> None:
        with self._lock:
            for k, v in deltas.items():
                if k == "max_residual":
                    self.stats[k] = max(self.stats[k], float(v))
                else:
                    self.stats[k] += v

    # -- delegated primitives ---------------------------------------------

    def gemm_batched(self, a, b, tag: str = "", out=None):
        from repro.linalg import batched as _b
        return _b._gemm_batched_impl(a, b, tag=tag, out=out)

    # -- mixed-precision factor -------------------------------------------

    def lu_factor_batched(self, a, tag: str = ""):
        a = np.asarray(a)
        _check_stack(a, "lu_factor_batched", square=True)
        if not np.iscomplexobj(a):
            from repro.linalg import batched as _b
            return _b._lu_factor_batched_impl(a, tag=tag)
        t0 = time.perf_counter()
        a = np.array(a, dtype=np.complex128, copy=True)   # residual copy
        ne, n = a.shape[0], a.shape[1]
        # cast into a stack whose slices are Fortran-contiguous: raw
        # cgetrf/cgetrs then factor IN PLACE with zero f2py copies —
        # SciPy's stacked lu_factor costs ~1.7x this bare LAPACK loop
        # at transport batch sizes
        with np.errstate(over="ignore", invalid="ignore"):
            lu32 = a.transpose(0, 2, 1).astype(
                np.complex64, order="C").transpose(0, 2, 1)
        finite = np.isfinite(lu32).all(axis=(1, 2))
        bad = np.nonzero(~finite)[0]
        if bad.size:
            # keep cgetrf away from inf/nan slices: factor the identity
            # there, and route those slices straight to the z fallback
            lu32[bad] = np.eye(n, dtype=np.complex64)[None]
        piv = np.empty((ne, n), dtype=np.int32)
        for i in range(ne):
            _, piv_i, info = _lap.cgetrf(lu32[i], overwrite_a=True)
            if info > 0:
                raise SingularMatrixError(
                    f"batched complex64 LU factorization failed: "
                    f"slice {i} singular at pivot {info}")
            if info < 0:
                raise SingularMatrixError(
                    f"batched complex64 LU factorization failed: "
                    f"cgetrf illegal argument {-info} on slice {i}")
            piv[i] = piv_i
        _record("cgetrf_batched", ne * _fl.lu_flops(n, True),
                2 * a.nbytes + 3 * lu32.nbytes, t0, tag)
        self._bump(factor_calls=1)
        return MixedLUFactor(lu32, piv, a, bad)

    # -- refined solves ----------------------------------------------------

    def _c64_sweep(self, fac: MixedLUFactor, rhs_rows, fac_indices,
                   tag: str):
        """One low-precision triangular-solve sweep.

        ``rhs_rows`` is a ``(na, n, nrhs)`` complex128 stack whose row
        ``j`` belongs to factor slice ``fac_indices[j]``.  Casts down,
        back-substitutes through the complex64 factors (raw ``cgetrs``
        per slice — measurably faster than SciPy's stacked
        ``lu_solve`` on small batches), returns the complex128 result.
        One ``cgetrs_batched`` record for the whole sweep.
        """
        t0 = time.perf_counter()
        na, n, nrhs = rhs_rows.shape
        rhs32 = rhs_rows.astype(np.complex64)
        x32 = np.empty_like(rhs32)
        for j, i in enumerate(fac_indices):
            x32[j], info = _lap.cgetrs(fac.lu32[i], fac.piv[i], rhs32[j])
            if info != 0:
                raise SingularMatrixError(
                    f"cgetrs failed on slice {int(i)} (info={info})")
        _record("cgetrs_batched", na * 2 * _fl.trsm_flops(n, nrhs, True),
                rhs32.nbytes + x32.nbytes, t0, tag)
        return x32.astype(np.complex128)

    def _residual(self, fac: MixedLUFactor, b, x, indices, tag: str):
        """r = b - A x on ``indices``; one zgemm record (the reference
        GEMM discipline: bytes of the three stacks touched)."""
        t0 = time.perf_counter()
        if len(indices) == fac.batch_size:
            # all slices active: index with views, not fancy-index
            # copies of the full A stack (tens of MB per sweep)
            a_act, x_act, b_act = fac.a, x, b
        else:
            a_act, x_act, b_act = fac.a[indices], x[indices], b[indices]
        ax = np.matmul(a_act, x_act)
        r = b_act - ax
        na, n, nrhs = ax.shape
        _record("zgemm_batched", na * _fl.gemm_flops(n, nrhs, n, True),
                a_act.nbytes + x_act.nbytes + ax.nbytes, t0,
                f"{tag}|residual" if tag else "residual")
        return r

    def lu_solve_batched(self, fac, b, tag: str = ""):
        if not isinstance(fac, MixedLUFactor):
            from repro.linalg import batched as _b
            return _b._lu_solve_batched_impl(fac, b, tag=tag)
        b = np.asarray(b)
        _check_stack(b, "lu_solve_batched")
        b = b.astype(np.complex128, copy=False)
        ne = fac.batch_size
        bnorm = np.linalg.norm(b.reshape(ne, -1), axis=1)
        denom = np.where(bnorm > 0.0, bnorm, 1.0)

        x = np.zeros(b.shape, dtype=np.complex128)
        active = np.array(sorted(set(range(ne)) - fac.bad_slices),
                          dtype=int)
        if active.size:
            x[active] = self._c64_sweep(fac, b[active], active, tag)

        refine_iters = 0
        max_rel = 0.0
        for sweep in range(self.max_refine_iters + 1):
            if not active.size:
                break
            r = self._residual(fac, b, x, active, tag)
            rel = (np.linalg.norm(r.reshape(len(active), -1), axis=1)
                   / denom[active])
            rel = np.where(np.isfinite(rel), rel, np.inf)
            keep = rel > self.tol
            if (~keep).any():
                max_rel = max(max_rel, float(rel[~keep].max()))
            active = active[keep]
            if not active.size or sweep == self.max_refine_iters:
                break
            d = self._c64_sweep(fac, r[keep], active, tag)
            x[active] = x[active] + d
            refine_iters += 1

        failed = sorted(set(active.tolist()) | fac.bad_slices)
        for i in failed:
            zfac = fac.z_factor(int(i), tag)
            t0 = time.perf_counter()
            x[i] = sla.lu_solve(zfac, b[i], check_finite=False)
            n, nrhs = b.shape[1], b.shape[2]
            _record("zgetrs_batched", 2 * _fl.trsm_flops(n, nrhs, True),
                    2 * b[i].nbytes, t0,
                    f"{tag}|fallback" if tag else "fallback")
        self._bump(solve_calls=1, refine_iterations=refine_iters,
                   fallback_slices=len(failed), max_residual=max_rel)
        return x
