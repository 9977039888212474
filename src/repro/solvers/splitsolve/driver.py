"""The SplitSolve driver: partitioning, phases, pre/post-processing.

Workflow (Fig. 6):

* ``preprocess()`` — Step 1: Q = A^{-1} B.  The matrix is cut into
  ``num_partitions`` horizontal partitions (a power of two); each runs
  Algorithm 1, one sweep for both its local first and last inverse
  columns, with its rows held in turn by its pair of simulated
  accelerators (phases P1-P4), then partitions are merged recursively
  with SPIKE (log2 p steps).  This step is independent of the
  boundary *values* — the decoupling that lets the paper overlap it with
  FEAST on the CPUs.  B only has to span the rows the boundary can touch:
  it is the unit columns of the *boundary support* ``(rows_first,
  rows_last)``, known from the lead's coupling block before any
  self-energy is, and Q is never stored wider than that.

* ``solve(sigma_l, sigma_r, b_top, b_bottom)`` — Steps 2-4 (from the
  support's rows alone: ``solve_support``): with
  Sigma^RB = B C, C the support's rows of Sigma, and Q in hand,
  y = Q b', R = 1 - C Q (as large as the support: 2s x 2s when it is
  every row), z = R^{-1} C y, and x = Q (b' + z) with one gemm per block.

Step 1 runs in the dtype of A, so a real A (real H, S and energy) has a
real Q.  Sigma, Inj, C, b', R and z are complex whatever A is; they are
as small as the boundary support, and the three products that meet a
real Q - Q b', C Q, Q (b' + z) - each run as one dgemm on their real and
imaginary parts stacked (:func:`_stack`), never on a complex copy of Q,
the largest array of the solve.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.linalg import BlockTridiagonalMatrix, gemm, solve, working_dtype
from repro.linalg.flops import current_ledger, device_scope, ledger_scope
from repro.solvers.splitsolve.algorithm1 import boundary_columns
from repro.solvers.splitsolve.spike import PartitionColumns, merge_partitions
from repro.utils.errors import ConfigurationError, ShapeError
from repro.utils.timing import StageTimer
from repro.utils.validation import check_power_of_two


def _partition_ranges(nb: int, parts: int) -> list:
    """Split nb block rows into ``parts`` contiguous, balanced ranges."""
    if parts > nb:
        raise ConfigurationError(
            f"cannot split {nb} block rows into {parts} partitions")
    bounds = np.linspace(0, nb, parts + 1).astype(int)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(parts)]


def _row_set(rows, size: int, name: str) -> np.ndarray:
    """``rows`` as a sorted index array into a block of ``size`` rows;
    ``None`` is every row."""
    if rows is None:
        return np.arange(size)
    rows = np.asarray(rows)
    if rows.size == 0:
        rows = rows.astype(np.intp)     # an empty list has no dtype yet
    if rows.ndim != 1 or rows.dtype.kind not in "iu" or (rows.size and (
            rows[0] < 0 or rows[-1] >= size or np.any(np.diff(rows) <= 0))):
        raise ShapeError(
            f"{name} must be sorted, distinct row indices below {size}")
    return rows


def _require_zero_outside(block: np.ndarray, rows: np.ndarray,
                          name: str) -> None:
    """Raise unless ``block`` vanishes outside ``rows``, the boundary
    support Q was computed for: a row of Sigma or Inj that Q has no
    column for would silently drop out of the solution."""
    outside = np.delete(np.arange(block.shape[0]), rows)
    bad = outside[np.any(block[outside] != 0, axis=1)]
    if bad.size:
        raise ShapeError(
            f"{name} is non-zero in row {int(bad[0])}, outside the "
            "boundary support SplitSolve was preprocessed for")


def _stack(w: np.ndarray, axis: int, real_q: bool) -> np.ndarray:
    """``w`` as the operand of a product with Q: itself next to a complex
    Q, ``[Re w | Im w]`` side by side along ``axis`` next to a real one,
    so that the product is one dgemm."""
    return np.concatenate([w.real, w.imag], axis=axis) if real_q else w


def _unstack(p: np.ndarray, axis: int, real_q: bool) -> np.ndarray:
    """The complex product, from the product with a :func:`_stack`
    operand."""
    if not real_q:
        return p
    re, im = np.split(p, 2, axis=axis)
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


class SplitSolve:
    """SplitSolve solver for T = (A - Sigma^RB) with A block tridiagonal.

    Parameters
    ----------
    a : BlockTridiagonalMatrix
        A = E S - H (no boundary self-energy).
    num_partitions : int
        Horizontal partitions (power of two).  The simulated accelerator
        count is ``2 * num_partitions`` (a partition's block rows
        alternate over its pair of devices), matching the paper's "p/2
        partitions on p accelerators".
    hermitian : bool | None
        Use the Hermitian Schur factorization path (the paper's
        zhesv_nopiv_gpu optimization).  ``None`` = ask
        ``a.is_hermitian()``: decided once for all the A(E) of a device
        cache, autodetected from the blocks of a matrix built elsewhere.
    parallel : bool
        Run partition sweeps/merges on a thread pool, one worker per
        partition (NumPy releases the GIL, so this gives genuine
        multi-core speedups standing in for multi-GPU execution); one
        partition needs no pool.
    boundary_support : (rows_first, rows_last), optional
        Sorted row indices into the first and the last diagonal block
        outside which ``sigma_l`` / ``b_top`` and ``sigma_r`` /
        ``b_bottom`` are exactly zero; ``None`` (either entry, or the
        pair) is every row.  Q is computed and kept at these columns
        only.  Any superset of the true support is valid; ``solve``
        rejects operands that reach outside it.
    """

    def __init__(self, a: BlockTridiagonalMatrix, num_partitions: int = 1,
                 hermitian: bool | None = None, parallel: bool = True,
                 boundary_support=None):
        check_power_of_two(num_partitions, "num_partitions")
        if a.num_blocks < 2:
            raise ConfigurationError(
                "SplitSolve needs at least 2 diagonal blocks")
        self.a = a
        self.num_partitions = num_partitions
        self.ranges = _partition_ranges(a.num_blocks, num_partitions)
        if hermitian is None:
            hermitian = a.is_hermitian()
        self.hermitian = hermitian
        self.parallel = parallel
        rows_first, rows_last = boundary_support or (None, None)
        sizes = a.block_sizes
        self.boundary_support = (
            _row_set(rows_first, sizes[0], "boundary_support[0]"),
            _row_set(rows_last, sizes[-1], "boundary_support[1]"))
        self.timer = StageTimer()
        self.q: PartitionColumns | None = None
        self._q_rows: list | None = None     # [q.first[i] | q.last[i]]

    @property
    def num_devices(self) -> int:
        return 2 * self.num_partitions

    # -- Step 1 --------------------------------------------------------------

    def preprocess(self) -> "SplitSolve":
        """Compute Q = A^{-1} B: the boundary support's columns of the
        first and last block columns of A^{-1}."""
        a = self.a
        support = a.coupling_support()
        rows_first, rows_last = self.boundary_support
        ledger = current_ledger()   # the pool threads record into it too

        def _local(p):
            lo, hi = self.ranges[p]
            local = a.block_range(lo, hi)
            # Outer column sets are the boundary support; an inner one
            # is the row support of the coupling block across that cut,
            # which is all the merge over it contracts with.
            first_cols = rows_first if lo == 0 else support.lower[lo - 1][0]
            last_cols = rows_last if hi == a.num_blocks \
                else support.upper[hi - 1][0]
            # its pair of simulated accelerators holds the rows in turn
            devices = [f"gpu{2 * p + i % 2}" for i in range(hi - lo)]
            with ledger_scope(ledger):
                first, last = boundary_columns(
                    local, first_cols, last_cols, hermitian=self.hermitian,
                    devices=devices)
            return PartitionColumns(first=first, last=last, devices=devices,
                                    first_cols=first_cols,
                                    last_cols=last_cols).validate()

        pool = ThreadPoolExecutor(max_workers=self.num_partitions) \
            if self.parallel and self.num_partitions > 1 else None
        try:
            with self.timer.stage("P1-P4 local inversion"):
                if pool is not None:
                    parts = list(pool.map(_local,
                                          range(self.num_partitions)))
                else:
                    parts = [_local(p) for p in range(self.num_partitions)]

            # Recursive pairwise merging: log2(p) steps.
            step = 0
            while len(parts) > 1:
                step += 1
                with self.timer.stage(f"spike merge {step}"):
                    merged = []
                    ranges = self.ranges if step == 1 else self._mranges
                    new_ranges = []
                    for k in range(0, len(parts), 2):
                        top, bottom = parts[k], parts[k + 1]
                        boundary = ranges[k][1] - 1  # global block index
                        merged.append(merge_partitions(
                            top, bottom, a.upper[boundary],
                            a.lower[boundary], executor=pool,
                            tag=f"spike{step}",
                            support=(support.upper[boundary],
                                     support.lower[boundary])))
                        new_ranges.append((ranges[k][0], ranges[k + 1][1]))
                    parts = merged
                    self._mranges = new_ranges
            self._store(parts[0])
        finally:
            if pool is not None:
                pool.shutdown()
        return self

    def _store(self, q: PartitionColumns) -> None:
        """Keep Q as one array, first and last columns side by side -
        the operand every postprocessing gemm wants - with ``q.first`` /
        ``q.last`` as views of it."""
        wf = q.first_cols.size
        offs = self.a.block_offsets()
        fused = np.empty((offs[-1], wf + q.last_cols.size),
                         dtype=working_dtype(self.a.dtype))
        np.concatenate(q.first, out=fused[:, :wf])
        np.concatenate(q.last, out=fused[:, wf:])
        self._q_rows = [fused[lo:hi] for lo, hi in zip(offs, offs[1:])]
        self.q = PartitionColumns(
            first=[r[:, :wf] for r in self._q_rows],
            last=[r[:, wf:] for r in self._q_rows], devices=q.devices,
            first_cols=q.first_cols, last_cols=q.last_cols)

    # -- Steps 2-4 -----------------------------------------------------------

    def solve(self, sigma_l: np.ndarray, sigma_r: np.ndarray,
              b_top: np.ndarray, b_bottom: np.ndarray) -> np.ndarray:
        """Postprocessing: solve (A - Sigma^RB) x = Inj.

        ``b_top``/``b_bottom`` are the non-zero first/last block rows of
        Inj (any number of columns, including zero); every operand must
        vanish outside the boundary support.
        """
        a = self.a
        s1 = a.block_sizes[0]
        s2 = a.block_sizes[-1]
        if sigma_l.shape != (s1, s1) or sigma_r.shape != (s2, s2):
            raise ShapeError("self-energy block sizes do not match A")
        if b_top.shape[0] != s1 or b_bottom.shape[0] != s2:
            raise ShapeError("rhs block sizes do not match A")
        rows_first, rows_last = self.boundary_support
        _require_zero_outside(sigma_l, rows_first, "sigma_l")
        _require_zero_outside(b_top, rows_first, "b_top")
        _require_zero_outside(sigma_r, rows_last, "sigma_r")
        _require_zero_outside(b_bottom, rows_last, "b_bottom")
        return self.solve_support(sigma_l[rows_first], sigma_r[rows_last],
                                  b_top[rows_first], b_bottom[rows_last])

    def solve_support(self, c_l: np.ndarray, c_r: np.ndarray,
                      b_top: np.ndarray, b_bottom: np.ndarray) -> np.ndarray:
        """:meth:`solve` from the boundary support's rows of its operands:
        ``c_l`` / ``c_r`` those of Sigma_L / Sigma_R (the C of Sigma^RB =
        B C, full block width), ``b_top`` / ``b_bottom`` those of Inj."""
        if self.q is None:
            self.preprocess()
        q = self.q
        wf, wl = map(len, self.boundary_support)
        if (len(c_l), len(b_top), len(c_r), len(b_bottom)) != (wf, wf, wl, wl):
            raise ShapeError("operand rows do not match the boundary support")

        # b' on the support: B is its unit columns, so Inj = B b'.
        m = b_top.shape[1] + b_bottom.shape[1]
        bprime = np.zeros((wf + wl, m), dtype=complex)
        bprime[:wf, :b_top.shape[1]] = b_top
        bprime[wf:, b_top.shape[1]:] = b_bottom

        with self.timer.stage("postprocessing"):
            with device_scope(q.devices[0]):
                # Corner blocks of Q: rows 0 and nB-1.
                q_top, q_bot = self._q_rows[0], self._q_rows[-1]
                real_q = q_top.dtype.kind != "c"

                # Step 2: y = A^{-1} b = Q b' (only corner rows needed now).
                rhs = _stack(bprime, 1, real_q)
                y_top = _unstack(gemm(q_top, rhs, tag="post"), 1, real_q)
                y_bot = _unstack(gemm(q_bot, rhs, tag="post"), 1, real_q)

                # Step 3: R z = C y, R = 1 - C Q on the support.
                cy = np.vstack([gemm(c_l, y_top, tag="post"),
                                gemm(c_r, y_bot, tag="post")])
                cq = np.vstack([
                    _unstack(gemm(_stack(c, 0, real_q), qi, tag="post"),
                             0, real_q)
                    for c, qi in ((c_l, q_top), (c_r, q_bot))])
                r = np.eye(bprime.shape[0], dtype=complex) - cq
                z = solve(r, cy, tag="post", overwrite_a=True)
                weights = _stack(bprime + z, 1, real_q)

            # Step 4: x = Q (b' + z), one gemm per block row.  A row is
            # O(s w m) flops, less than a hand-off to a worker thread
            # costs, so the rows run in turn.
            rows = []
            for dev, qi in zip(q.devices, self._q_rows):
                with device_scope(dev):
                    rows.append(gemm(qi, weights, tag="post"))
        return _unstack(np.vstack(rows), 1, real_q)
