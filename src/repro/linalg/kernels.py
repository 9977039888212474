"""Instrumented dense linear-algebra kernels.

Thin wrappers around NumPy/SciPy-LAPACK that report analytic flop counts to
the active :class:`~repro.linalg.flops.FlopLedger`.  These are the Python
equivalents of the kernels the paper runs on GPUs (cuBLAS ``zgemm``, MAGMA
``zgesv_nopiv_gpu``/``zhesv_nopiv_gpu``) and CPUs (LAPACK ``zggev``,
``zgesv``) — kernel names in the ledger mirror the BLAS/LAPACK ones so the
activity traces read like the paper's nvprof output.
"""

from __future__ import annotations

import functools
import time
import warnings

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack as _lapack

from repro.linalg import flops as _fl
from repro.utils.errors import (ConvergenceError, ShapeError,
                                SingularMatrixError)


def _is_complex(*arrays) -> bool:
    return any(np.iscomplexobj(a) for a in arrays)


def _record(kernel: str, nflops: int, nbytes: int, t0: float, tag: str = ""):
    _fl.current_ledger().record(
        kernel, nflops, nbytes, device=_fl.current_device(), tag=tag,
        t_start=t0, t_stop=time.perf_counter(),
    )


def gemm(a: np.ndarray, b: np.ndarray, tag: str = "") -> np.ndarray:
    """C = A @ B with flop accounting (``dgemm``/``zgemm``)."""
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"gemm: inner dims mismatch {a.shape} @ {b.shape}")
    t0 = time.perf_counter()
    c = a @ b
    m, k = a.shape
    n = b.shape[1] if b.ndim == 2 else 1
    cx = _is_complex(a, b)
    _record("zgemm" if cx else "dgemm",
            *_fl.kernel_cost("gemm", (m, n, k), cx), t0, tag)
    return c


def lu_factor(a: np.ndarray, tag: str = ""):
    """LU factorization (``getrf``); returns an opaque factor object."""
    t0 = time.perf_counter()
    try:
        fac = sla.lu_factor(a, check_finite=False)
    except (sla.LinAlgError, ValueError) as exc:
        raise SingularMatrixError(f"LU factorization failed: {exc}") from exc
    n = a.shape[0]
    cx = _is_complex(a)
    _record("zgetrf" if cx else "dgetrf",
            *_fl.kernel_cost("lu_factor", (n,), cx), t0, tag)
    return fac


def lu_solve(fac, b: np.ndarray, tag: str = "",
             trans: str = "N") -> np.ndarray:
    """Solve with a precomputed LU factor (``getrs``): A x = b, or
    A^T x = b / A^H x = b with ``trans`` ``"T"`` / ``"C"``, the same
    record either way."""
    t0 = time.perf_counter()
    x = sla.lu_solve(fac, b, trans="NTC".index(trans), check_finite=False)
    n = x.shape[0]
    nrhs = x.shape[1] if x.ndim == 2 else 1
    cx = _is_complex(fac[0], b)
    _record("zgetrs" if cx else "dgetrs",
            *_fl.kernel_cost("lu_solve", (n, nrhs), cx), t0, tag)
    return x


#: LAPACK ``(factor, condition estimate, substitute)`` per (complex?,
#: assume_a); ``"her"`` on real operands is the symmetric family.
_SOLVE_ROUTINES = {
    (True, "gen"): (_lapack.zgetrf, _lapack.zgecon, _lapack.zgetrs),
    (False, "gen"): (_lapack.dgetrf, _lapack.dgecon, _lapack.dgetrs),
    (True, "her"): (_lapack.zhetrf, _lapack.zhecon, _lapack.zhetrs),
    (False, "her"): (_lapack.dsytrf, _lapack.dsycon, _lapack.dsytrs),
}
_LWORK_QUERIES = {True: _lapack.zhetrf_lwork, False: _lapack.dsytrf_lwork}


@functools.lru_cache(maxsize=None)
def _hetrf_lwork(is_complex: bool, n: int) -> int:
    """Optimal ``?hetrf``/``?sytrf`` workspace for order n (one query)."""
    lwork, info = _LWORK_QUERIES[is_complex](n)
    _check_lapack_info(info, "hetrf_lwork")
    return int(lwork.real)


def _check_lapack_info(info: int, routine: str) -> None:
    """``info < 0`` is an illegal argument: our bug, never the data's."""
    if info < 0:
        raise ValueError(f"LAPACK {routine}: illegal argument {-info}")


def solve(a: np.ndarray, b: np.ndarray, assume_a: str = "gen",
          tag: str = "", overwrite_a: bool = False) -> np.ndarray:
    """Solve A x = b (``gesv``/``hesv``), counting LU + substitutions.

    ``assume_a='her'`` mirrors the paper's §5E optimization of switching
    MAGMA from ``zgesv_nopiv_gpu`` to ``zhesv_nopiv_gpu`` for Hermitian
    2-D-structure matrices: an LDL^H factorization at roughly half the LU
    cost (the upper triangle is read).

    Runs the three LAPACK routines ``scipy.linalg.solve`` ends in -
    factor, condition estimate, substitute - without its argument
    handling, and keeps its verdicts: a zero pivot raises
    :class:`SingularMatrixError`, ``rcond`` below machine epsilon emits
    ``LinAlgWarning``.  A matrix holding NaN or infinity is the data's
    fault too: :class:`SingularMatrixError` before anything is factored
    (its 1-norm is computed anyway).  ``overwrite_a`` lets a caller that
    owns ``a`` have it factored in place (no copy when it is
    Fortran-ordered and of the working dtype).
    """
    if a.shape[0] != a.shape[1] or a.shape[1] != b.shape[0]:
        raise ShapeError(f"solve: incompatible shapes {a.shape}, {b.shape}")
    t0 = time.perf_counter()
    n = a.shape[0]
    nrhs = b.shape[1] if b.ndim == 2 else 1
    cx = _is_complex(a, b)
    her = assume_a == "her"
    dtype = np.complex128 if cx else np.float64
    if a.size == 0 or b.size == 0:
        x = np.empty(b.shape, dtype=dtype)
    else:
        factor, estimate, substitute = _SOLVE_ROUTINES[cx, "her" if her
                                                       else "gen"]
        a = np.asarray(a, dtype=dtype)
        anorm = np.abs(a).sum(axis=0).max()     # 1-norm, before a is lost
        if not np.isfinite(anorm):
            raise SingularMatrixError(
                "solve failed: the matrix holds non-finite entries")
        if her:
            fac, piv, info = factor(a, lwork=_hetrf_lwork(cx, n),
                                    overwrite_a=overwrite_a)
        else:
            fac, piv, info = factor(a, overwrite_a=overwrite_a)
        _check_lapack_info(info, "factorization")
        if info > 0:
            raise SingularMatrixError(
                f"solve failed: pivot {info} of the factorization is "
                "exactly zero")
        if her:
            rcond, info = estimate(fac, piv, anorm)
        else:
            rcond, info = estimate(fac, anorm)
        _check_lapack_info(info, "condition estimate")
        if rcond < np.finfo(np.float64).eps:
            warnings.warn(
                f"An ill-conditioned matrix detected: rcond = {rcond}.",
                sla.LinAlgWarning, stacklevel=2)
        b2 = np.asarray(b, dtype=dtype)
        x, info = substitute(fac, piv, b2 if b.ndim == 2 else b2[:, None])
        _check_lapack_info(info, "substitution")
        if b.ndim == 1:
            x = x[:, 0]
    if her:
        kernel, kind = "zhesv" if cx else "dsysv", "solve_her"
    else:
        kernel, kind = "zgesv" if cx else "dgesv", "solve"
    _record(kernel, *_fl.kernel_cost(kind, (n, nrhs), cx), t0, tag)
    return x


def solve_many(a: np.ndarray, bs, assume_a: str = "gen", tag: str = ""):
    """Solve A x_i = b_i for several right-hand-side blocks, one LU.

    All blocks are stacked into a single ``getrs`` call (one triangular
    solve for the combined rhs width) and the solution is split back —
    one LU *and* one substitution pass, not one substitution per block.
    """
    bs = list(bs)
    fac = lu_factor(a, tag=tag)
    if not bs:
        return []
    cols = [b[:, None] if b.ndim == 1 else b for b in bs]
    widths = [c.shape[1] for c in cols]
    x = lu_solve(fac, np.hstack(cols), tag=tag)
    splits = np.cumsum(widths)[:-1]
    return [xi[:, 0] if b.ndim == 1 else xi
            for b, xi in zip(bs, np.hsplit(x, splits))]


def inv(a: np.ndarray, tag: str = "") -> np.ndarray:
    """Matrix inverse (``getri`` after ``getrf``): 2 n^3 real flops total."""
    t0 = time.perf_counter()
    try:
        out = sla.inv(a, check_finite=False)
    except (sla.LinAlgError, ValueError) as exc:
        raise SingularMatrixError(f"inv failed: {exc}") from exc
    n = a.shape[0]
    cx = _is_complex(a)
    _record("zgetri" if cx else "dgetri",
            *_fl.kernel_cost("inv", (n,), cx), t0, tag)
    return out


def eig(a: np.ndarray, tag: str = ""):
    """Dense nonsymmetric eigendecomposition (``zgeev``)."""
    t0 = time.perf_counter()
    w, v = sla.eig(a, check_finite=False)
    n = a.shape[0]
    _record("zgeev", *_fl.kernel_cost("eig", (n,), _is_complex(a)),
            t0, tag)
    return w, v


def eigh(a: np.ndarray, b: np.ndarray | None = None, tag: str = ""):
    """Hermitian (generalized) eigendecomposition (``zheev``/``zhegv``)."""
    t0 = time.perf_counter()
    w, v = sla.eigh(a, b, check_finite=False)
    n = a.shape[0]
    cx = _is_complex(a) or (b is not None and _is_complex(b))
    _record("zhegv" if b is not None else "zheev",
            *_fl.kernel_cost("eigh", (n,), cx), t0, tag)
    return w, v


@functools.lru_cache(maxsize=None)
def _ggev_lwork(n: int) -> int:
    """Optimal ``zggev`` workspace for order n (one query per size)."""
    square = np.zeros((n, n), dtype=complex)
    *_, work, info = _lapack.zggev(square, square, lwork=-1)
    _check_lapack_info(info, "ggev_lwork")
    return max(int(work[0].real), 1)


def geig(a: np.ndarray, b: np.ndarray, tag: str = "", left: bool = False):
    """Generalized nonsymmetric eigenproblem A u = lambda B u (``zggev``).

    This is the Rayleigh-Ritz reduction step of FEAST (Eq. 7 of the paper).
    Infinite eigenvalues (singular B directions) are returned as ``inf``,
    and ``alpha = beta = 0`` as NaN (scipy's convention).
    Returns ``(w, vr)``, or ``(w, vl, vr)`` with ``left`` - the left
    eigenvectors ``vl[:, i]^H A = w[i] vl[:, i]^H B``, unit-normalized like
    the right ones.  The record is the same either way: the customary
    25 n^3 count (:func:`repro.linalg.flops.eig_flops`) has no left/right
    split.  Real operands are solved as complex ones; QZ failing to
    converge is a :class:`ConvergenceError`.
    """
    t0 = time.perf_counter()
    n = a.shape[0]
    alpha, beta, vl, vr, _work, info = _lapack.zggev(
        a, b, compute_vl=int(left), lwork=_ggev_lwork(n))
    _check_lapack_info(info, "ggev")
    if info > 0:
        raise ConvergenceError(f"zggev: the QZ iteration failed (info "
                               f"{info})")
    w = np.full_like(alpha, np.inf)
    finite = beta != 0
    w[finite] = alpha[finite] / beta[finite]
    w[~finite & (alpha == 0)] = complex(np.nan, np.nan) \
        if alpha.imag.any() else np.nan
    vr /= np.linalg.norm(vr, axis=0)
    _record("zggev", *_fl.kernel_cost("geig", (n,), _is_complex(a, b)),
            t0, tag)
    if left:
        return w, vl / np.linalg.norm(vl, axis=0), vr
    return w, vr


def qr_orth(a: np.ndarray, tag: str = "") -> np.ndarray:
    """Orthonormalize the columns of ``a`` via reduced QR (``zgeqrf``)."""
    t0 = time.perf_counter()
    q, _ = sla.qr(a, mode="economic", check_finite=False)
    m, n = a.shape
    cx = _is_complex(a)
    _record("zgeqrf" if cx else "dgeqrf",
            *_fl.kernel_cost("qr", (m, n), cx), t0, tag)
    return q
