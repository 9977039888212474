"""Sparse-direct solver — the MUMPS baseline of Fig. 8.

The paper compares SplitSolve against MUMPS 5.0 ("faster than SuperLU_dist
for these examples").  SciPy's SuperLU plays that role here: like MUMPS it
is a fill-reducing sparse LU, and the paper's observation — that its cost
explodes as the DFT basis multiplies the non-zeros per row — is a property
of sparse-direct factorization, not of one implementation.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.linalg import BlockTridiagonalMatrix
from repro.linalg import flops as _fl
from repro.linalg.kernels import _record
from repro.utils.errors import SingularMatrixError


class SparseDirectSolver:
    """LU-factorize T once, solve many right-hand sides.

    Flop accounting: LAPACK-style estimate from the realized fill,
    sum_k 2 nnz(L[:, k]) nnz(U[k, :]), recorded as kernel ``zlu_sparse``
    from the ``lu_sparse`` row of :func:`repro.linalg.flops.kernel_cost`.
    """

    def __init__(self, t, tag: str = ""):
        if isinstance(t, BlockTridiagonalMatrix):
            t = t.to_sparse()
        t = sp.csc_matrix(t, dtype=complex)
        t0 = time.perf_counter()
        try:
            self._lu = spla.splu(t)
        except RuntimeError as exc:
            raise SingularMatrixError(f"sparse LU failed: {exc}") from exc
        _record("zlu_sparse",
                *_fl.kernel_cost("lu_sparse", (self._fill_pairs(),
                                               t.data.size)), t0, tag)
        self.shape = t.shape

    def _fill_pairs(self) -> int:
        """sum_k nnz(L[:, k]) nnz(U[k, :]) of the realized factors."""
        nnz_l_col = np.diff(self._lu.L.tocsc().indptr).astype(np.int64)
        nnz_u_row = np.diff(self._lu.U.tocsr().indptr).astype(np.int64)
        return int(np.sum(nnz_l_col * nnz_u_row))

    @property
    def fill_nnz(self) -> int:
        """Realized non-zeros in L + U (the fill-in MUMPS suffers from)."""
        return int(self._lu.L.nnz + self._lu.U.nnz)

    def solve(self, b: np.ndarray, tag: str = "") -> np.ndarray:
        t0 = time.perf_counter()
        x = self._lu.solve(np.asarray(b, dtype=complex))
        nrhs = b.shape[1] if b.ndim == 2 else 1
        _record("zlu_sparse_solve",
                *_fl.kernel_cost("lu_sparse_solve",
                                 (self.fill_nnz, b.shape[0], nrhs)), t0, tag)
        return x


def solve_direct(t, b: np.ndarray, tag: str = "") -> np.ndarray:
    """One-shot sparse-direct solve of T x = b."""
    return SparseDirectSolver(t, tag=tag).solve(b, tag=tag)
