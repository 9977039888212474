"""Energy-batched dense kernels: stacked BLAS over ``(nE, n, n)`` arrays.

The per-point kernels in :mod:`repro.linalg.kernels` pay one Python
dispatch, one LAPACK call, and one :class:`~repro.linalg.flops.FlopLedger`
record per block per energy.  On the small blocks of realistic devices
that overhead dominates the arithmetic — exactly the gap the data-centric
OMEN follow-ups close by restructuring the energy loop into batched,
movement-minimizing kernels.  This module is the Python analogue of the
cuBLAS/MAGMA ``*Batched`` interfaces (``zgemmBatched``,
``zgetrfBatched``/``zgetrsBatched``): every kernel operates on a stack of
same-shaped matrices, one per energy point, in a single NumPy/SciPy call.

Ledger semantics: each batched kernel makes **one** ledger record whose
flop count is the *exact sum* of the per-call counts the loop kernels
would have recorded — ``nE`` matrices of identical shape, so the batch
record is ``nE`` times the per-matrix analytic count.  Stage/ledger
reconciliation therefore holds unchanged; only the record (and event)
granularity coarsens from per-matrix to per-batch.  Batched kernel names
carry a ``_batched`` suffix so activity traces distinguish the two paths.

Backends: the three public kernel functions are thin dispatchers to the
kernel backend :func:`repro.linalg.backend_scope` has installed (the
reference ``numpy`` backend outside every scope).  The ``_*_impl``
functions below are the reference kernels.  No transport solve calls
any of them: SOLVE is one per-energy solver call (see
:mod:`repro.pipeline.pipeline`), so its results never depend on a
caller's scope.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg as sla

from repro.linalg import flops as _fl
from repro.linalg.backend import current_backend
from repro.linalg.blocktridiag import BlockTridiagonalMatrix
from repro.linalg.kernels import _is_complex, _record
from repro.utils.errors import ShapeError, SingularMatrixError


def _check_stack(a: np.ndarray, name: str, square: bool = False):
    if a.ndim != 3:
        raise ShapeError(f"{name}: expected a (nE, m, n) stack, got "
                         f"{a.shape}")
    if square and a.shape[1] != a.shape[2]:
        raise ShapeError(f"{name}: stack matrices not square: {a.shape}")


# --------------------------------------------------------------------------
# Backend dispatch
# --------------------------------------------------------------------------

def gemm_batched(a: np.ndarray, b: np.ndarray, tag: str = "",
                 out: np.ndarray | None = None) -> np.ndarray:
    """C[e] = A[e] @ B[e] for a whole energy stack (``zgemmBatched``).

    Dispatches to the selected kernel backend; see
    :func:`_gemm_batched_impl` for the reference contract.
    """
    return current_backend().gemm_batched(a, b, tag=tag, out=out)


def lu_factor_batched(a: np.ndarray, tag: str = ""):
    """Stacked LU factorization (``zgetrfBatched``); opaque factor object.

    Dispatches to the selected kernel backend; the factor object is
    backend-specific and only meaningful to the same backend's
    :func:`lu_solve_batched`.
    """
    return current_backend().lu_factor_batched(a, tag=tag)


def lu_solve_batched(fac, b: np.ndarray, tag: str = "") -> np.ndarray:
    """Solve with a stacked LU factor (``zgetrsBatched``).

    Dispatches to the selected kernel backend.
    """
    return current_backend().lu_solve_batched(fac, b, tag=tag)


# --------------------------------------------------------------------------
# Stacked kernels — reference (numpy backend) implementations
# --------------------------------------------------------------------------

def _gemm_batched_impl(a: np.ndarray, b: np.ndarray, tag: str = "",
                       out: np.ndarray | None = None) -> np.ndarray:
    """C[e] = A[e] @ B[e] for a whole energy stack (``zgemmBatched``).

    One matmul call, one ledger record of ``nE * gemm_flops(m, n, k)``.
    ``out`` routes the product into a caller-owned (workspace) buffer —
    same BLAS call, same bits, no fresh ``(nE, m, n)`` allocation.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    _check_stack(a, "gemm_batched")
    _check_stack(b, "gemm_batched")
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ShapeError(
            f"gemm_batched: incompatible stacks {a.shape} @ {b.shape}")
    t0 = time.perf_counter()
    c = np.matmul(a, b) if out is None else np.matmul(a, b, out=out)
    ne, m, k = a.shape
    n = b.shape[2]
    cx = _is_complex(a, b)
    flops, moved = _fl.kernel_cost("gemm", (m, n, k), cx)
    _record("zgemm_batched" if cx else "dgemm_batched",
            ne * flops, ne * moved, t0, tag)
    return c


def _lu_factor_batched_impl(a: np.ndarray, tag: str = ""):
    """Stacked LU factorization (``zgetrfBatched``); opaque factor object.

    One SciPy call over the ``(nE, n, n)`` stack, one ledger record of
    ``nE * lu_flops(n)``.
    """
    a = np.asarray(a)
    _check_stack(a, "lu_factor_batched", square=True)
    t0 = time.perf_counter()
    try:
        fac = sla.lu_factor(a, check_finite=False)
    except (sla.LinAlgError, ValueError) as exc:
        raise SingularMatrixError(
            f"batched LU factorization failed: {exc}") from exc
    ne, n = a.shape[0], a.shape[1]
    cx = _is_complex(a)
    flops, moved = _fl.kernel_cost("lu_factor", (n,), cx)
    _record("zgetrf_batched" if cx else "dgetrf_batched",
            ne * flops, ne * moved, t0, tag)
    return fac


def _lu_solve_batched_impl(fac, b: np.ndarray, tag: str = "") -> np.ndarray:
    """Solve with a stacked LU factor (``zgetrsBatched``).

    ``b`` is ``(nE, n, nrhs)``; all energies of one call share the rhs
    width.
    """
    b = np.asarray(b)
    _check_stack(b, "lu_solve_batched")
    t0 = time.perf_counter()
    x = sla.lu_solve(fac, b, check_finite=False)
    ne, n, nrhs = x.shape
    cx = _is_complex(fac[0], b)
    flops, moved = _fl.kernel_cost("lu_solve", (n, nrhs), cx)
    _record("zgetrs_batched" if cx else "dgetrs_batched",
            ne * flops, ne * moved, t0, tag)
    return x


# --------------------------------------------------------------------------
# Batched block-tridiagonal container
# --------------------------------------------------------------------------

class BatchedBlockTridiag:
    """A stack of same-structure block-tridiagonal matrices, one per energy.

    Storage mirrors :class:`~repro.linalg.BlockTridiagonalMatrix`, with
    every block carrying a leading energy axis: ``diag[i]`` is
    ``(nE, ni, ni)``, ``upper[i]`` is ``(nE, ni, n_{i+1})``, ``lower[i]``
    is ``(nE, n_{i+1}, ni)``: the layout one pass of the A(E) assembly
    builds for a whole energy batch, read energy by energy through
    :meth:`point`.  ``structure`` is the
    :class:`~repro.linalg.BlockStructure` the slices share (handed on by
    :meth:`point`).
    """

    def __init__(self, diag, upper, lower, energies=None, structure=None):
        if len(upper) != len(diag) - 1 or len(lower) != len(diag) - 1:
            raise ShapeError(
                f"block counts inconsistent: {len(diag)} diagonal, "
                f"{len(upper)} upper, {len(lower)} lower")
        self.diag = [np.asarray(b) for b in diag]
        self.upper = [np.asarray(b) for b in upper]
        self.lower = [np.asarray(b) for b in lower]
        self.energies = None if energies is None \
            else np.asarray(energies, dtype=float)
        self.structure = structure
        ne = self.diag[0].shape[0]
        for i, b in enumerate(self.diag):
            if b.ndim != 3 or b.shape[1] != b.shape[2] or b.shape[0] != ne:
                raise ShapeError(
                    f"diagonal stack {i} has shape {b.shape}, expected "
                    f"({ne}, n, n)")
        for i, (u, l) in enumerate(zip(self.upper, self.lower)):
            ni = self.diag[i].shape[1]
            nj = self.diag[i + 1].shape[1]
            if u.shape != (ne, ni, nj):
                raise ShapeError(
                    f"upper stack {i} has shape {u.shape}, expected "
                    f"{(ne, ni, nj)}")
            if l.shape != (ne, nj, ni):
                raise ShapeError(
                    f"lower stack {i} has shape {l.shape}, expected "
                    f"{(ne, nj, ni)}")

    @property
    def batch_size(self) -> int:
        return self.diag[0].shape[0]

    @property
    def num_blocks(self) -> int:
        return len(self.diag)

    @property
    def block_sizes(self):
        return [b.shape[1] for b in self.diag]

    def block_offsets(self):
        return np.concatenate([[0], np.cumsum(self.block_sizes)])

    @property
    def shape(self):
        n = int(sum(self.block_sizes))
        return (self.batch_size, n, n)

    def point(self, j: int) -> BlockTridiagonalMatrix:
        """The ``j``-th energy's matrix as a plain block tridiagonal."""
        return BlockTridiagonalMatrix(
            [b[j] for b in self.diag],
            [b[j] for b in self.upper],
            [b[j] for b in self.lower], structure=self.structure)

    def __repr__(self):
        return (f"BatchedBlockTridiag(nE={self.batch_size}, "
                f"nb={self.num_blocks}, n={self.shape[1]})")

