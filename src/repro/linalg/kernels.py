"""Instrumented dense linear-algebra kernels.

Thin wrappers around NumPy/LAPACK that report analytic flop counts to
the active :class:`~repro.linalg.flops.FlopLedger`; LAPACK is called the
way ``scipy.linalg`` calls it (same bits), keeping its verdicts, without
its argument handling.  These are the Python
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


@functools.lru_cache(maxsize=None)
def _lapack_for(names: str, dtype: np.dtype) -> list:
    """The routines ``names`` scipy picks for operands of ``dtype``."""
    return sla.get_lapack_funcs(names.split(), dtype=dtype)


@functools.lru_cache(maxsize=None)
def _lwork(routine, *shapes) -> int:
    """scipy's ``lwork=-1`` query of ``routine``, once per operand shapes."""
    *_, work, info = routine(*(np.zeros(s, routine.dtype) for s in shapes),
                             lwork=-1)
    _check_lapack_info(info, "workspace query")
    return max(int(work[0].real), 1)


def lu_factor(a: np.ndarray, tag: str = ""):
    """LU factorization (``getrf``); returns ``(lu, piv)`` like scipy's,
    but a zero pivot is a :class:`SingularMatrixError` (scipy only warns,
    and every substitution with the factor then returns infinities)."""
    t0 = time.perf_counter()
    a = np.asarray(a)
    try:
        lu, piv, info = _lapack_for("getrf", a.dtype)[0](a) if a.size \
            else (np.empty_like(a), np.arange(0, dtype=np.int32), 0)
    except ValueError as exc:
        raise SingularMatrixError(f"LU factorization failed: {exc}") from exc
    if info != 0:
        raise SingularMatrixError(f"LU factorization failed: getrf info "
                                  f"{info} (a zero pivot if positive)")
    n = a.shape[0]
    cx = _is_complex(a)
    _record("zgetrf" if cx else "dgetrf",
            *_fl.kernel_cost("lu_factor", (n,), cx), t0, tag)
    return lu, piv


def lu_solve(fac, b: np.ndarray, tag: str = "",
             trans: str = "N") -> np.ndarray:
    """Solve with a precomputed LU factor (``getrs``): A x = b, or
    A^T x = b / A^H x = b with ``trans`` ``"T"`` / ``"C"``, the same
    record either way; a real factor meets a complex ``b`` promoted."""
    t0 = time.perf_counter()
    lu, piv = fac
    b = np.asarray(b)
    (getrs,) = _lapack_for("getrs", np.promote_types(lu.dtype, b.dtype))
    x, info = getrs(lu, piv, b, trans="NTC".index(trans)) if b.size \
        else (np.empty(b.shape, dtype=getrs.dtype), 0)
    _check_lapack_info(info, "getrs")
    n = x.shape[0]
    nrhs = x.shape[1] if x.ndim == 2 else 1
    cx = _is_complex(lu, b)
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


def _factor(a: np.ndarray, cx: bool, her: bool, overwrite_a: bool = False):
    """Factor ``a`` (of the working dtype) with scipy's verdicts: a zero
    pivot raises :class:`SingularMatrixError`, ``rcond`` below machine
    epsilon emits ``LinAlgWarning``.  A matrix holding NaN or infinity is
    the data's fault too: :class:`SingularMatrixError` before anything is
    factored (its 1-norm is computed anyway)."""
    factor, estimate, _ = _SOLVE_ROUTINES[cx, "her" if her else "gen"]
    anorm = np.abs(a).sum(axis=0).max()     # 1-norm, before a is lost
    if not np.isfinite(anorm):
        raise SingularMatrixError("the matrix holds non-finite entries")
    lwork = {"lwork": _hetrf_lwork(cx, a.shape[0])} if her else {}
    fac, piv, info = factor(a, overwrite_a=overwrite_a, **lwork)
    _check_lapack_info(info, "factorization")
    if info > 0:
        raise SingularMatrixError(
            f"pivot {info} of the factorization is exactly zero")
    rcond, info = estimate(fac, piv, anorm) if her else estimate(fac, anorm)
    _check_lapack_info(info, "condition estimate")
    if rcond < np.finfo(np.float64).eps:
        warnings.warn(f"An ill-conditioned matrix detected: rcond = {rcond}.",
                      sla.LinAlgWarning, stacklevel=3)
    return fac, piv


def solve(a: np.ndarray, b: np.ndarray, assume_a: str = "gen",
          tag: str = "", overwrite_a: bool = False) -> np.ndarray:
    """Solve A x = b (``gesv``/``hesv``), counting LU + substitutions.

    ``assume_a='her'`` mirrors the paper's §5E optimization of switching
    MAGMA from ``zgesv_nopiv_gpu`` to ``zhesv_nopiv_gpu`` for Hermitian
    2-D-structure matrices: an LDL^H factorization at roughly half the LU
    cost (the upper triangle is read).

    Runs the three LAPACK routines ``scipy.linalg.solve`` ends in -
    factor, condition estimate, substitute - and keeps its verdicts
    (:func:`_factor`).  ``overwrite_a`` lets a caller that owns ``a``
    have it factored in place (no copy when it is Fortran-ordered and of
    the working dtype).
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
        fac, piv = _factor(np.asarray(a, dtype=dtype), cx, her, overwrite_a)
        b2 = np.asarray(b, dtype=dtype)
        x, info = _SOLVE_ROUTINES[cx, "her" if her else "gen"][2](
            fac, piv, b2 if b.ndim == 2 else b2[:, None])
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
    """Matrix inverse (``getri`` after ``getrf``): 2 n^3 real flops total;
    the verdicts are :func:`solve`'s."""
    t0 = time.perf_counter()
    cx = _is_complex(a)
    a = np.asarray(a, dtype=np.complex128 if cx else np.float64)
    n = a.shape[0]
    getri, query = _lapack_for("getri getri_lwork", a.dtype)
    out, info = getri(*_factor(a, cx, her=False),
                      lwork=int(query(n)[0].real))
    _check_lapack_info(info, "getri")
    _record("zgetri" if cx else "dgetri",
            *_fl.kernel_cost("inv", (n,), cx), t0, tag)
    return out


def eig(a: np.ndarray, tag: str = ""):
    """Dense nonsymmetric eigendecomposition (``zgeev``); real operands
    are solved as complex ones."""
    t0 = time.perf_counter()
    n = a.shape[0]
    geev, query = _lapack_for("geev geev_lwork", np.dtype(complex))
    w, _vl, v, info = geev(a, compute_vl=0,
                           lwork=int(query(n, compute_vl=0)[0].real))
    _check_lapack_info(info, "geev")
    if info > 0:
        raise ConvergenceError(f"zgeev: the QR iteration failed (info {info})")
    _record("zgeev", *_fl.kernel_cost("eig", (n,), _is_complex(a)),
            t0, tag)
    return w, v


def eigh(a: np.ndarray, b: np.ndarray | None = None, tag: str = ""):
    """Hermitian (generalized) eigendecomposition (``zheev``/``zhegv``)
    with scipy's default drivers, ``?heevr`` / ``?hegvd`` (``?sy*`` when
    real); failing is scipy's ``LinAlgError``."""
    t0 = time.perf_counter()
    a = np.asarray(a)
    n = a.shape[0]
    cx = _is_complex(a) or (b is not None and _is_complex(b))
    pfx = "he" if cx else "sy"
    if b is None:
        drv, query = _lapack_for(f"{pfx}evr {pfx}evr_lwork", a.dtype)
        *sizes, info = query(n, lower=1)
        w, v, *_, info = drv(a, lower=1, **{k: int(x.real) for k, x in zip(
            ("lwork", "lrwork", "liwork") if cx else ("lwork", "liwork"),
            sizes)})
    else:
        (drv,) = _lapack_for(f"{pfx}gvd", np.promote_types(a.dtype, b.dtype))
        w, v, info = drv(a, b)
    if info != 0:
        raise sla.LinAlgError(f"eigh failed (info {info})")
    _record("zhegv" if b is not None else "zheev",
            *_fl.kernel_cost("eigh", (n,), cx), t0, tag)
    return w, v


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
    (ggev,) = _lapack_for("ggev", np.dtype(complex))
    alpha, beta, vl, vr, _work, info = ggev(
        a, b, compute_vl=int(left), lwork=_lwork(ggev, (n, n), (n, n)))
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


def economic_qr(a: np.ndarray, pivoting: bool = False):
    """Unrecorded ``scipy.linalg.qr(a, mode="economic",
    pivoting=pivoting)``: ``?geqrf`` (``?geqp3``), then ``?orgqr`` /
    ``?ungqr``.  Returns ``(q, r, piv)``, ``piv`` ``None`` unpivoted."""
    a = np.asarray(a)
    m, n = a.shape
    k = min(m, n)
    factor, expand = _lapack_for(
        f"{'geqp3' if pivoting else 'geqrf'} orgqr", a.dtype)
    qr, *piv, tau, _work, info = factor(a, lwork=_lwork(factor, (m, n)))
    _check_lapack_info(info, "QR factorization")
    r = np.triu(qr[:k])
    q, _work, info = expand(qr[:, :k], tau, overwrite_a=1,
                            lwork=_lwork(expand, (m, k), (k,)))
    _check_lapack_info(info, "QR expansion")
    return q, r, piv[0] - 1 if pivoting else None


def solve_upper(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unrecorded ``scipy.linalg.solve_triangular(r, b)`` (upper,
    ``?trtrs``); a C-ordered ``r`` is solved as its transpose, as scipy
    does.  A zero diagonal is a :class:`SingularMatrixError`."""
    (trtrs,) = _lapack_for("trtrs", np.promote_types(r.dtype, b.dtype))
    x, info = trtrs(r, b) if r.flags.f_contiguous \
        else trtrs(r.T, b, lower=1, trans=1)
    _check_lapack_info(info, "trtrs")
    if info > 0:
        raise SingularMatrixError(f"diagonal {info} of R is exactly zero")
    return x


def qr_orth(a: np.ndarray, tag: str = "") -> np.ndarray:
    """Orthonormalize the columns of ``a`` via reduced QR (``zgeqrf``)."""
    t0 = time.perf_counter()
    q = economic_qr(a)[0]
    m, n = a.shape
    cx = _is_complex(a)
    _record("zgeqrf" if cx else "dgeqrf",
            *_fl.kernel_cost("qr", (m, n), cx), t0, tag)
    return q
