"""Block-tridiagonal matrix container.

The central data structure of the paper: ``A = E*S - H`` in a localized
basis ordered by transport slabs is block tridiagonal (Fig. 4).  SplitSolve,
RGF, BCR, and the sparse-direct baseline all consume this container.

Blocks may have non-uniform sizes (device slabs can differ from lead unit
cells).  Storage is a list of dense diagonal blocks plus lists of upper and
lower coupling blocks, matching how OMEN distributes ``A`` over GPU memory.

In a localized basis only the orbitals next to a slab interface couple
to the neighbouring slab, so a coupling block is dense storage around a
small non-zero ``rows x cols`` sub-block.  :class:`CouplingSupport`
records those index sets exactly (``!= 0``, no tolerance) and
:class:`BlockStructure` shares them - and the Hermiticity verdict -
between all the matrices of one family, e.g. every ``A(E)`` of a device.

Blocks that hold no information are not stored: a block without a
non-zero is a read-only zero-stride view (:func:`zero_block`), an
identity diagonal block the process's one read-only ``eye(n)``
(:func:`identity_block`), so the S of an orthogonal basis costs no
memory.
"""

from __future__ import annotations

import functools
import threading

import numpy as np
import scipy.sparse as sp

from repro.utils.errors import ShapeError

#: ``hermitian_error`` below this counts as Hermitian
HERMITIAN_TOL = 1e-10


def as_complex(b: np.ndarray) -> np.ndarray:
    """complex128 view-or-copy: no copy when the block already is one."""
    return b if b.dtype == np.complex128 else b.astype(complex)


def working_dtype(*operands) -> np.dtype:
    """float64 or complex128: the class of LAPACK/BLAS kernels that
    ``operands`` (arrays or dtypes) meet in."""
    return np.result_type(np.float64, *operands)


def energy_scalars(energies, h: "BlockTridiagonalMatrix",
                   s: "BlockTridiagonalMatrix") -> np.ndarray:
    """The energies as the factors ``A(E) = E*S - H`` is built with.

    The one rule for the dtype of ``A(E)``: float64 when H and S are
    real and no energy has an imaginary part - ``A(E)`` is then real, and
    whatever cannot see a self-energy (SplitSolve's Step 1) stays in
    real arithmetic - complex128 otherwise.  Same shape as ``energies``.
    """
    e = np.asarray(energies, dtype=complex)
    if h.dtype.kind == "c" or s.dtype.kind == "c" or e.imag.any():
        return e
    return e.real


def scaled_sum(alpha, a: np.ndarray, beta, b: np.ndarray) -> np.ndarray:
    """``alpha*a + beta*b`` through one temporary, not two: ``alpha*a``
    (in its operands' dtype, cast only when ``b`` widens the result),
    then ``beta = -1`` - ``A(E) = E*S - H`` - subtracts ``b`` in place:
    bitwise ``+ (-1.0)*b`` on real operands, equal up to the sign of a
    zero on complex ones."""
    out = np.asarray(alpha * a, dtype=np.result_type(alpha, a, beta, b))
    if beta == -1:
        out -= b
    else:
        out += beta * b
    return out


def zero_block(shape, dtype) -> np.ndarray:
    """A read-only all-zero block that stores one scalar (zero strides)."""
    return np.broadcast_to(np.zeros((), dtype=dtype), tuple(shape))


def is_zero_block(b: np.ndarray) -> bool:
    """Whether ``b`` is a :func:`zero_block`: every entry the one stored
    zero."""
    return b.size > 0 and not any(b.strides) and not b.flat[0]


@functools.lru_cache(maxsize=32)
def identity_block(n: int, dtype) -> np.ndarray:
    """The process's one read-only ``eye(n)`` of ``dtype`` (one per
    block size a run meets; the bound only caps a process that meets
    many)."""
    eye = np.eye(n, dtype=dtype)
    eye.flags.writeable = False
    return eye


def stored_nbytes(arrays) -> int:
    """Bytes ``arrays`` keep in memory: an array met twice (the same
    data) counts once, a zero-stride axis not at all, a zero-stride
    block (one stored scalar) nothing."""
    spans = {}
    for b in arrays:
        if not any(b.strides):
            continue
        size = b.itemsize
        for n, stride in zip(b.shape, b.strides):
            if stride:
                size *= n
        key = b.__array_interface__["data"][0]
        spans[key] = max(spans.get(key, 0), size)
    return sum(spans.values())


def block_position(p: int, num_blocks: int) -> tuple:
    """``(row, column)`` block of flat position ``p``: the diagonal
    blocks first, then the upper, then the lower ones (the order of
    :meth:`BlockTridiagonalMatrix.blocks`)."""
    if p < num_blocks:
        return p, p
    if p < 2 * num_blocks - 1:
        i = p - num_blocks
        return i, i + 1
    i = p - 2 * num_blocks + 1
    return i + 1, i


def _is_sparse_identity(a: sp.csr_matrix) -> bool:
    n = a.shape[0]
    return (a.shape[1] == n and a.nnz == n
            and np.array_equal(a.indptr, np.arange(n + 1))
            and np.array_equal(a.indices, np.arange(n))
            and bool((a.data == 1).all()))


def sparse_blocks(a, block_sizes, positions=None) -> list:
    """The blocks of sparse ``a`` at flat ``positions`` (all by default).

    A block without a stored entry is a :func:`zero_block`, an identity
    diagonal block the shared :func:`identity_block`, anything else a
    dense copy.  S = I is recognised on the whole matrix, without
    cutting it block by block.
    """
    a = sp.csr_matrix(a)
    offs = np.concatenate([[0], np.cumsum(block_sizes)]).astype(int)
    if offs[-1] != a.shape[0]:
        raise ShapeError(
            f"block sizes sum to {offs[-1]}, matrix is {a.shape[0]}")
    nb = len(block_sizes)
    if positions is None:
        positions = range(3 * nb - 2)
    identity = _is_sparse_identity(a)
    out = []
    for p in positions:
        i, j = block_position(p, nb)
        shape = (offs[i + 1] - offs[i], offs[j + 1] - offs[j])
        sub = None if identity else \
            a[offs[i]:offs[i + 1], offs[j]:offs[j + 1]]
        if i == j and (identity or _is_sparse_identity(sub)):
            out.append(identity_block(shape[0], a.dtype))
        elif identity or sub.nnz == 0:
            out.append(zero_block(shape, a.dtype))
        else:
            out.append(sub.toarray())
    return out


def block_support(*blocks) -> tuple:
    """``(rows, cols)``: sorted indices of the rows and columns in which
    any of the same-shaped ``blocks`` has a non-zero entry."""
    nz = blocks[0] != 0
    for b in blocks[1:]:
        nz = nz | (b != 0)
    return np.flatnonzero(nz.any(axis=1)), np.flatnonzero(nz.any(axis=0))


class CouplingSupport:
    """Exact row/column support of every coupling block.

    ``upper[i] = (rows, cols)``: ``A[i, i+1]`` is exactly zero outside
    ``rows x cols`` (sorted index arrays, local to blocks ``i`` and
    ``i+1``); ``lower[i]`` is the same for ``A[i+1, i]``.  Any superset
    of the true support is a valid support: the solvers that read it
    only skip what it excludes.
    """

    def __init__(self, upper, lower):
        self.upper = list(upper)
        self.lower = list(lower)

    @classmethod
    def of(cls, *matrices) -> "CouplingSupport":
        """Union of the ``!= 0`` supports of same-structure matrices.

        The union over ``(H, S)`` supports every ``alpha*S + beta*H``,
        whatever the coefficients.
        """
        return cls(
            [block_support(*bs) for bs in zip(*(m.upper for m in matrices))],
            [block_support(*bs) for bs in zip(*(m.lower for m in matrices))])

    def block_range(self, start: int, stop: int) -> "CouplingSupport":
        """Support of the couplings inside block rows ``start:stop``."""
        return CouplingSupport(self.upper[start:stop - 1],
                               self.lower[start:stop - 1])

    def widths(self) -> tuple:
        """``(upper rows, upper cols, lower rows, lower cols)``, each the
        largest over the blocks: what the uniform-block cost models of
        :mod:`repro.perfmodel` price SplitSolve with."""
        return tuple(max((len(pair[axis]) for pair in side), default=0)
                     for side in (self.upper, self.lower)
                     for axis in (0, 1))


class BlockStructure:
    """Coupling support and Hermiticity of a family of matrices.

    The family is every real linear combination of the ``spanning``
    matrices: ``(H, S)`` span all ``A(E) = E*S - H`` of a device at real
    energies.  Its members point at it (``structure=``) instead of
    deriving the facts from their own blocks.  Both are worked out
    together on the first request, once, under a lock - a solver that
    never asks (RGF) never pays, and the energies of a sweep share one
    evaluation.  The spanning matrices may be given as one zero-argument
    callable returning them: it is called then, and its matrices are not
    kept.
    """

    def __init__(self, *spanning):
        self._lock = threading.Lock()
        self._spanning = spanning
        self._support = None
        self._hermitian = None

    def spanned_by(self, *matrices) -> "BlockStructure":
        """Name the spanning matrices unless they are named already;
        returns ``self``.  The first offer stands: a potential adds
        ``V * S`` entries to ``H``, which changes neither fact."""
        with self._lock:
            if not self._spanning and self._support is None:
                self._spanning = matrices
        return self

    def _facts(self) -> None:
        """Work out both facts (caller holds the lock)."""
        if self._support is not None:
            return
        matrices = self._spanning
        if not matrices:
            raise ShapeError("BlockStructure has no spanning matrices yet")
        if callable(matrices[0]):
            matrices = matrices[0]()
        self._support = CouplingSupport.of(*matrices)
        self._hermitian = all(m.hermitian_error() < HERMITIAN_TOL
                              for m in matrices)
        self._spanning = ()

    @property
    def support(self) -> CouplingSupport:
        with self._lock:
            self._facts()
            return self._support

    @property
    def hermitian(self) -> bool:
        with self._lock:
            self._facts()
            return self._hermitian


class BlockTridiagonalMatrix:
    """A square block-tridiagonal matrix.

    Parameters
    ----------
    diag : list of (ni, ni) ndarrays
        Diagonal blocks ``A[i, i]``.
    upper : list of (ni, n_{i+1}) ndarrays
        Super-diagonal blocks ``A[i, i+1]``; length ``len(diag) - 1``.
    lower : list of (n_{i+1}, ni) ndarrays
        Sub-diagonal blocks ``A[i+1, i]``; length ``len(diag) - 1``.
    structure : BlockStructure, optional
        The family this matrix belongs to, which then answers
        :meth:`coupling_support` and :meth:`is_hermitian`; a matrix
        without one derives both from its own blocks.
    """

    def __init__(self, diag, upper, lower,
                 structure: BlockStructure | None = None):
        if len(upper) != len(diag) - 1 or len(lower) != len(diag) - 1:
            raise ShapeError(
                f"block counts inconsistent: {len(diag)} diagonal, "
                f"{len(upper)} upper, {len(lower)} lower")
        self.diag = [np.asarray(b) for b in diag]
        self.upper = [np.asarray(b) for b in upper]
        self.lower = [np.asarray(b) for b in lower]
        self.structure = structure
        self._support = None
        self._hermitian = None
        self._dtype = None
        for i, b in enumerate(self.diag):
            if b.ndim != 2 or b.shape[0] != b.shape[1]:
                raise ShapeError(f"diagonal block {i} not square: {b.shape}")
        for i, (u, l) in enumerate(zip(self.upper, self.lower)):
            ni = self.diag[i].shape[0]
            nj = self.diag[i + 1].shape[0]
            if u.shape != (ni, nj):
                raise ShapeError(
                    f"upper block {i} has shape {u.shape}, expected {(ni, nj)}")
            if l.shape != (nj, ni):
                raise ShapeError(
                    f"lower block {i} has shape {l.shape}, expected {(nj, ni)}")

    # -- structure ---------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        return len(self.diag)

    @property
    def block_sizes(self):
        return [b.shape[0] for b in self.diag]

    @property
    def shape(self):
        n = sum(self.block_sizes)
        return (n, n)

    @property
    def dtype(self):
        """Common dtype of the stored blocks (worked out on first
        request)."""
        if self._dtype is None:
            self._dtype = np.result_type(
                *[b.dtype for b in self.diag + self.upper + self.lower])
        return self._dtype

    def block_offsets(self):
        """Row offset of each diagonal block in the assembled matrix."""
        offs = np.concatenate([[0], np.cumsum(self.block_sizes)])
        return offs

    @property
    def nnz(self) -> int:
        """Scalar entries of the blocks, as if every block were dense
        (what they store is :meth:`stored_nbytes`)."""
        return sum(b.size for b in self.blocks())

    def blocks(self) -> list:
        """Every block, in flat position order: diagonal, upper, lower."""
        return self.diag + self.upper + self.lower

    def stored_nbytes(self) -> int:
        """Bytes the blocks keep in memory (:func:`stored_nbytes`): a
        shared block counts once, a zero block not at all."""
        return stored_nbytes(self.blocks())

    def is_uniform(self) -> bool:
        sizes = self.block_sizes
        return all(s == sizes[0] for s in sizes)

    def coupling_support(self) -> CouplingSupport:
        """Exact support of the coupling blocks (the family's, or this
        matrix's own, derived on first request)."""
        if self.structure is not None:
            return self.structure.support
        if self._support is None:
            self._support = CouplingSupport.of(self)
        return self._support

    def is_hermitian(self) -> bool:
        """Whether A = A^H to :data:`HERMITIAN_TOL` (the family's verdict,
        or this matrix's own, checked on first request)."""
        if self.structure is not None:
            return self.structure.hermitian
        if self._hermitian is None:
            self._hermitian = self.hermitian_error() < HERMITIAN_TOL
        return self._hermitian

    def block_range(self, start: int, stop: int) -> "BlockTridiagonalMatrix":
        """Block rows ``start:stop`` as a matrix of their own (blocks
        shared, not copied), with the matching slice of the coupling
        support and this matrix's dtype: a SplitSolve partition."""
        sub = BlockTridiagonalMatrix(self.diag[start:stop],
                                     self.upper[start:stop - 1],
                                     self.lower[start:stop - 1])
        sub._support = self.coupling_support().block_range(start, stop)
        sub._dtype = self.dtype
        return sub

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dense(cls, a: np.ndarray, block_sizes) -> "BlockTridiagonalMatrix":
        """Cut the tridiagonal blocks out of a dense matrix.

        Entries outside the block tridiagonal are ignored; callers should
        verify bandwidth separately if that matters (see
        :meth:`residual_outside_band`).
        """
        a = np.asarray(a)
        offs = np.concatenate([[0], np.cumsum(block_sizes)])
        if offs[-1] != a.shape[0]:
            raise ShapeError(
                f"block sizes sum to {offs[-1]}, matrix is {a.shape[0]}")
        nb = len(block_sizes)
        diag = [a[offs[i]:offs[i + 1], offs[i]:offs[i + 1]].copy()
                for i in range(nb)]
        upper = [a[offs[i]:offs[i + 1], offs[i + 1]:offs[i + 2]].copy()
                 for i in range(nb - 1)]
        lower = [a[offs[i + 1]:offs[i + 2], offs[i]:offs[i + 1]].copy()
                 for i in range(nb - 1)]
        return cls(diag, upper, lower)

    @classmethod
    def from_sparse(cls, a: sp.spmatrix, block_sizes) -> "BlockTridiagonalMatrix":
        """Cut tridiagonal blocks out of a sparse matrix
        (:func:`sparse_blocks`: zero and identity blocks are shared, the
        others go dense)."""
        nb = len(block_sizes)
        flat = sparse_blocks(a, block_sizes)
        return cls(flat[:nb], flat[nb:2 * nb - 1], flat[2 * nb - 1:])

    # -- conversions -------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        offs = self.block_offsets()
        n = offs[-1]
        out = np.zeros((n, n), dtype=self.dtype)
        for i in range(self.num_blocks):
            out[offs[i]:offs[i + 1], offs[i]:offs[i + 1]] = self.diag[i]
            if i < self.num_blocks - 1:
                out[offs[i]:offs[i + 1], offs[i + 1]:offs[i + 2]] = self.upper[i]
                out[offs[i + 1]:offs[i + 2], offs[i]:offs[i + 1]] = self.lower[i]
        return out

    def to_sparse(self) -> sp.csr_matrix:
        """Assemble as CSR, the input format of the sparse-direct baseline."""
        offs = self.block_offsets()
        n = offs[-1]
        rows, cols, vals = [], [], []

        def _push(block, r0, c0):
            r, c = np.nonzero(block)
            rows.append(r + r0)
            cols.append(c + c0)
            vals.append(block[r, c])

        for i in range(self.num_blocks):
            _push(self.diag[i], offs[i], offs[i])
            if i < self.num_blocks - 1:
                _push(self.upper[i], offs[i], offs[i + 1])
                _push(self.lower[i], offs[i + 1], offs[i])
        if rows:
            rows = np.concatenate(rows)
            cols = np.concatenate(cols)
            vals = np.concatenate(vals)
        return sp.csr_matrix((vals, (rows, cols)), shape=(n, n),
                             dtype=self.dtype)

    # -- algebra -----------------------------------------------------------

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """y = A @ x for a vector or a block of columns."""
        x = np.asarray(x)
        offs = self.block_offsets()
        out = np.zeros(x.shape, dtype=np.result_type(self.dtype, x.dtype))
        for i in range(self.num_blocks):
            xi = x[offs[i]:offs[i + 1]]
            out[offs[i]:offs[i + 1]] += self.diag[i] @ xi
            if i > 0:
                out[offs[i]:offs[i + 1]] += self.lower[i - 1] @ x[offs[i - 1]:offs[i]]
            if i < self.num_blocks - 1:
                out[offs[i]:offs[i + 1]] += self.upper[i] @ x[offs[i + 1]:offs[i + 2]]
        return out

    def copy(self) -> "BlockTridiagonalMatrix":
        return BlockTridiagonalMatrix(
            [b.copy() for b in self.diag],
            [b.copy() for b in self.upper],
            [b.copy() for b in self.lower])

    def conjugate_transpose(self) -> "BlockTridiagonalMatrix":
        """Return A^H, swapping upper/lower roles."""
        diag = [b.conj().T for b in self.diag]
        upper = [b.conj().T for b in self.lower]
        lower = [b.conj().T for b in self.upper]
        return BlockTridiagonalMatrix(diag, upper, lower)

    def scale_add(self, alpha, other: "BlockTridiagonalMatrix", beta,
                  structure: BlockStructure | None = None
                  ) -> "BlockTridiagonalMatrix":
        """Return ``alpha*self + beta*other`` (same block structure),
        every block through :func:`scaled_sum`.

        ``S.scale_add(E, H, -1)`` is ``A(E) = E*S - H`` block for block,
        bit for bit what :class:`~repro.linalg.EnergyOperator` hands out
        (it builds only the blocks S touches).  ``structure`` is the
        result's when the caller already holds it (the one spanned by
        ``self`` and ``other``, for real coefficients).
        """
        if other.block_sizes != self.block_sizes:
            raise ShapeError("scale_add: incompatible block structure")
        diag = [scaled_sum(alpha, a, beta, b)
                for a, b in zip(self.diag, other.diag)]
        upper = [scaled_sum(alpha, a, beta, b)
                 for a, b in zip(self.upper, other.upper)]
        lower = [scaled_sum(alpha, a, beta, b)
                 for a, b in zip(self.lower, other.lower)]
        return BlockTridiagonalMatrix(diag, upper, lower,
                                      structure=structure)

    def residual_outside_band(self, a: np.ndarray) -> float:
        """Max |entry| of dense ``a`` outside this block-tridiagonal band."""
        mask = np.ones(a.shape, dtype=bool)
        offs = self.block_offsets()
        for i in range(self.num_blocks):
            mask[offs[i]:offs[i + 1], offs[i]:offs[i + 1]] = False
            if i < self.num_blocks - 1:
                mask[offs[i]:offs[i + 1], offs[i + 1]:offs[i + 2]] = False
                mask[offs[i + 1]:offs[i + 2], offs[i]:offs[i + 1]] = False
        if not mask.any():
            return 0.0
        return float(np.max(np.abs(a[mask]))) if a[mask].size else 0.0

    def hermitian_error(self) -> float:
        """‖A - A^H‖_max over the stored blocks.

        The paper exploits Hermiticity of ``E*S - H`` in 1-D/2-D structures
        (zhesv path); this check guards that fast path.
        """
        err = 0.0
        for b in self.diag:
            err = max(err, float(np.max(np.abs(b - b.conj().T))))
        for u, l in zip(self.upper, self.lower):
            err = max(err, float(np.max(np.abs(u - l.conj().T))))
        return err

    def __repr__(self):
        return (f"BlockTridiagonalMatrix(nb={self.num_blocks}, "
                f"n={self.shape[0]}, dtype={self.dtype})")
