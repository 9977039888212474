"""The SplitSolve driver: partitioning, phases, pre/post-processing.

Workflow (Fig. 6):

* ``preprocess()`` — Step 1: Q = A^{-1} B.  The matrix is cut into
  ``num_partitions`` horizontal partitions (a power of two); each runs
  Algorithm 1 for its local first and last inverse columns on its pair of
  simulated accelerators (phases P1-P4), then partitions are merged
  recursively with SPIKE (log2 p steps).  This step is independent of the
  boundary conditions — the decoupling that lets the paper overlap it with
  FEAST on the CPUs.

* ``solve(sigma_l, sigma_r, b_top, b_bottom)`` — Steps 2-4: with
  Sigma^RB = B C and Q in hand, y = Q b', R = 1 - C Q (a 2s x 2s system),
  z = R^{-1} C y, and x = Q (b' + z) with one gemm per block.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.linalg import BlockTridiagonalMatrix, gemm, solve
from repro.linalg.flops import device_scope
from repro.solvers.splitsolve.algorithm1 import block_column_inverse
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


class SplitSolve:
    """SplitSolve solver for T = (A - Sigma^RB) with A block tridiagonal.

    Parameters
    ----------
    a : BlockTridiagonalMatrix
        A = E S - H (no boundary self-energy).
    num_partitions : int
        Horizontal partitions (power of two).  The simulated accelerator
        count is ``2 * num_partitions`` (each partition pairs one device
        for the first-column sweep and one for the last-column sweep),
        matching the paper's "p/2 partitions on p accelerators".
    hermitian : bool | None
        Use the Hermitian Schur factorization path (the paper's
        zhesv_nopiv_gpu optimization).  ``None`` = ask
        ``a.is_hermitian()``: decided once for all the A(E) of a device
        cache, autodetected from the blocks of a matrix built elsewhere.
    parallel : bool
        Run partition sweeps/merges on a thread pool (NumPy releases the
        GIL, so this gives genuine multi-core speedups standing in for
        multi-GPU execution).
    """

    def __init__(self, a: BlockTridiagonalMatrix, num_partitions: int = 1,
                 hermitian: bool | None = None, parallel: bool = True):
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
        self.timer = StageTimer()
        self.q: PartitionColumns | None = None

    @property
    def num_devices(self) -> int:
        return 2 * self.num_partitions

    # -- Step 1 --------------------------------------------------------------

    def preprocess(self) -> "SplitSolve":
        """Compute Q = A^{-1} B (first + last block columns of A^{-1})."""
        a = self.a
        support = a.coupling_support()

        def _local(p):
            local = a.block_range(*self.ranges[p])
            dev_f, dev_l = f"gpu{2 * p}", f"gpu{2 * p + 1}"
            with device_scope(dev_f):
                vf = block_column_inverse(local, "first",
                                          hermitian=self.hermitian,
                                          tag="P1")
            with device_scope(dev_l):
                vl = block_column_inverse(local, "last",
                                          hermitian=self.hermitian,
                                          tag="P2")
            devices = [dev_f if i % 2 == 0 else dev_l
                       for i in range(local.num_blocks)]
            return PartitionColumns(first=vf, last=vl,
                                    devices=devices).validate()

        pool = ThreadPoolExecutor(max_workers=self.num_devices) \
            if self.parallel else None
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
            self.q = parts[0]
        finally:
            if pool is not None:
                pool.shutdown()
        return self

    # -- Steps 2-4 -----------------------------------------------------------

    def solve(self, sigma_l: np.ndarray, sigma_r: np.ndarray,
              b_top: np.ndarray, b_bottom: np.ndarray) -> np.ndarray:
        """Postprocessing: solve (A - Sigma^RB) x = Inj.

        ``b_top``/``b_bottom`` are the non-zero first/last block rows of
        Inj (any number of columns, including zero).
        """
        if self.q is None:
            self.preprocess()
        q = self.q
        a = self.a
        s1 = a.block_sizes[0]
        s2 = a.block_sizes[-1]
        if sigma_l.shape != (s1, s1) or sigma_r.shape != (s2, s2):
            raise ShapeError("self-energy block sizes do not match A")
        if b_top.shape[0] != s1 or b_bottom.shape[0] != s2:
            raise ShapeError("rhs block sizes do not match A")
        m = b_top.shape[1] + b_bottom.shape[1]
        bprime = np.zeros((s1 + s2, m), dtype=complex)
        bprime[:s1, :b_top.shape[1]] = b_top
        bprime[s1:, b_top.shape[1]:] = b_bottom

        with self.timer.stage("postprocessing"):
            with device_scope(q.devices[0]):
                # Corner blocks of Q: rows 0 and nB-1.
                q_top = np.hstack([q.first[0], q.last[0]])        # s1 x (s1+s2)
                q_bot = np.hstack([q.first[-1], q.last[-1]])      # s2 x (s1+s2)

                # Step 2: y = A^{-1} b = Q b' (only corner rows needed now).
                y_top = gemm(q_top, bprime, tag="post")
                y_bot = gemm(q_bot, bprime, tag="post")

                # Step 3: R z = C y with C = diag-corners(Sigma_L, Sigma_R).
                cy = np.vstack([gemm(sigma_l, y_top, tag="post"),
                                gemm(sigma_r, y_bot, tag="post")])
                cq = np.vstack([gemm(sigma_l, q_top, tag="post"),
                                gemm(sigma_r, q_bot, tag="post")])
                r = np.eye(s1 + s2, dtype=complex) - cq
                z = solve(r, cy, tag="post")
                weights = bprime + z

            # Step 4: x = Q (b' + z), one gemm per block row.
            def _row(i):
                with device_scope(q.devices[i]):
                    qi = np.hstack([q.first[i], q.last[i]])
                    return gemm(qi, weights, tag="post")

            if self.parallel and q.num_block_rows > 1:
                with ThreadPoolExecutor(max_workers=self.num_devices) as ex:
                    rows = list(ex.map(_row, range(q.num_block_rows)))
            else:
                rows = [_row(i) for i in range(q.num_block_rows)]
        return np.vstack(rows)
