"""Exact per-kernel byte cost models, validated against the ledger.

The flop models in :mod:`repro.perfmodel.costmodel` transcribe the kernel
sequence of each solver and count arithmetic; this module walks the same
sequence and counts the bytes each instrumented kernel *records* —
operands in, results out, exactly the ``nbytes`` sums the wrappers in
:mod:`repro.linalg.kernels` and :mod:`repro.linalg.batched` report to the
:class:`~repro.linalg.flops.FlopLedger`.  Predicted bytes therefore
reconcile with measured ledger bytes the same way predicted flops do:
exactly for RGF (the model accepts the true per-block sizes), and
kernel-for-kernel for SplitSolve on uniform blocks with uniform coupling
supports (it prices the one kernel sequence the flop model prices).

These are *traffic* models in the roofline sense: together with the flop
models they give every stage an analytic arithmetic intensity, which is
what the movement-aware scheduler and the drift check in
:func:`repro.perfmodel.roofline.workload_roofline` consume.
"""

from __future__ import annotations

import numpy as np

from repro.perfmodel.costmodel import splitsolve_kernels
from repro.utils.errors import ConfigurationError

#: bytes per element
_ITEMSIZE_COMPLEX = 16   # complex128
_ITEMSIZE_REAL = 8       # float64


def _itemsize(is_complex: bool) -> int:
    return _ITEMSIZE_COMPLEX if is_complex else _ITEMSIZE_REAL


def gemm_bytes(m: int, n: int, k: int, is_complex: bool = True) -> int:
    """Bytes one ``gemm`` records for C(m,n) = A(m,k) B(k,n): a + b + c."""
    return (m * k + k * n + m * n) * _itemsize(is_complex)


def lu_factor_bytes(n: int, is_complex: bool = True) -> int:
    """Bytes one ``lu_factor`` records: the matrix read + factors written."""
    return 2 * n * n * _itemsize(is_complex)


def lu_solve_bytes(n: int, nrhs: int, is_complex: bool = True) -> int:
    """Bytes one ``lu_solve`` records: rhs read + solution written."""
    return 2 * n * nrhs * _itemsize(is_complex)


def solve_bytes(n: int, nrhs: int, is_complex: bool = True) -> int:
    """Bytes one ``solve`` (``gesv``/``hesv``) records: a + b + x."""
    return (n * n + 2 * n * nrhs) * _itemsize(is_complex)


def _block_sizes(num_blocks: int, block_size) -> list:
    """Normalize an int-or-sequence block size spec to a per-block list."""
    if np.isscalar(block_size):
        return [int(block_size)] * num_blocks
    sizes = [int(s) for s in block_size]
    if len(sizes) != num_blocks:
        raise ConfigurationError(
            f"{len(sizes)} block sizes for {num_blocks} blocks")
    return sizes


def rgf_byte_model(num_blocks: int, block_size, num_rhs: int,
                   is_complex: bool = True) -> int:
    """Bytes of one RGF (block Thomas) solve with ``num_rhs`` columns.

    An exact transcription of the kernel sequence of
    :func:`repro.solvers.rgf.solve_rgf` — and, slice for slice, of
    :func:`~repro.solvers.rgf.solve_rgf_batched`, whose stacked kernels
    record exactly ``nE`` times the per-slice bytes.  ``block_size`` may
    be an int (uniform blocks) or the true per-block size sequence, in
    which case the count matches the measured ledger bytes to the byte
    on non-uniform devices too.

    Per backward-sweep step at block ``i`` (sizes ``s_i``, rhs width
    ``m``): one block solve with ``s_i + m`` columns against the
    ``s_{i+1}`` factor, the Schur gemm, the rhs-carry gemm, and the LU of
    the updated Schur block; the forward substitution adds one
    ``(s_i, m, s_{i-1})`` gemm per block.
    """
    if num_blocks < 1:
        raise ConfigurationError("model needs >= 1 block")
    s = _block_sizes(num_blocks, block_size)
    m = int(num_rhs)
    total = lu_factor_bytes(s[-1], is_complex)
    for i in range(num_blocks - 2, -1, -1):
        # lu_solve of [lower_i | carry]: factor dim s_{i+1}, s_i + m cols
        total += lu_solve_bytes(s[i + 1], s[i] + m, is_complex)
        # Schur update: upper_i (s_i, s_{i+1}) @ xi_up (s_{i+1}, s_i)
        total += gemm_bytes(s[i], s[i], s[i + 1], is_complex)
        # rhs carry:    upper_i (s_i, s_{i+1}) @ yi    (s_{i+1}, m)
        total += gemm_bytes(s[i], m, s[i + 1], is_complex)
        total += lu_factor_bytes(s[i], is_complex)
    # forward substitution
    total += lu_solve_bytes(s[0], m, is_complex)
    for i in range(1, num_blocks):
        total += gemm_bytes(s[i], m, s[i - 1], is_complex)
    return total


def sancho_rubio_byte_model(n: int, iterations,
                            is_complex: bool = True) -> int:
    """Bytes of Sancho-Rubio decimation at one or many energies.

    Transcribes the kernel sequence of
    :func:`repro.obc.decimation.sancho_rubio`.  Per (energy,
    iteration): one ``(n, 2n)``-wide block solve against the
    renormalized ``eps`` plus four ``(n, n, n)`` gemms; the convergence
    exit's two small inverses are plain ``np.linalg.inv`` calls the
    ledger never sees, so they are (correctly) absent here.

    ``iterations`` is one energy's iteration count (the third return of
    ``sancho_rubio``) or a sequence of per-energy counts.
    """
    total_iters = int(iterations) if np.isscalar(iterations) \
        else int(sum(int(i) for i in iterations))
    per_iter = (solve_bytes(n, 2 * n, is_complex)
                + 4 * gemm_bytes(n, n, n, is_complex))
    return total_iters * per_iter


def geig_bytes(n: int, is_complex: bool = True) -> int:
    """Bytes one generalized eigensolve (``zggev``) records.

    Matches :func:`repro.linalg.kernels.geig`: two input matrices plus
    the eigenvalue/eigenvector outputs are priced as ``4 * nbytes(A)``.
    """
    return 4 * n * n * _itemsize(is_complex)


def kernel_bytes(kernels, is_complex: bool = True) -> int:
    """Bytes the kernels of a ``(count, kernel, dims)`` sequence record
    (the sequences of :mod:`repro.perfmodel.costmodel`); ``"zgemm"`` and
    ``"zsolve"`` move complex operands whatever ``is_complex`` says of
    the rest."""
    price = {"gemm": gemm_bytes, "lu_factor": lu_factor_bytes,
             "lu_solve": lu_solve_bytes, "geig": geig_bytes,
             "solve": solve_bytes, "schur_solve": solve_bytes}
    always_complex = {"zgemm": gemm_bytes, "zsolve": solve_bytes}
    return sum(count * (always_complex[kernel](*dims, True)
                        if kernel in always_complex
                        else price[kernel](*dims, is_complex))
               for count, kernel, dims in kernels)


def mixed_lu_factor_bytes(n: int, is_complex: bool = True) -> int:
    """Bytes one mixed-precision ``lu_factor_batched`` records per slice.

    The mixed backend reads the complex128 input once, keeps a
    complex128 copy for the refinement residuals, and factors the
    complex64 cast in place: ``2 * nbytes(z) + 3 * nbytes(c)`` with
    ``nbytes(c) = nbytes(z) / 2``.
    """
    nz = n * n * _itemsize(is_complex)
    return 2 * nz + 3 * (nz // 2)


def mixed_lu_solve_bytes(n: int, nrhs: int, refine_iters: int = 1,
                         is_complex: bool = True) -> int:
    """Bytes one mixed refined solve records per slice.

    One low-precision back-substitution sweep (rhs + solution at half
    width) for the first solution plus one per refinement iteration,
    and one double-precision residual gemm (matrix + x + r) per
    residual check — ``refine_iters + 1`` checks for ``refine_iters``
    corrections (the final check is what passes the gate).
    """
    half = _itemsize(is_complex) // 2
    sweep = 2 * n * nrhs * half
    residual = gemm_bytes(n, nrhs, n, is_complex)
    return (1 + refine_iters) * sweep + (refine_iters + 1) * residual


def splitsolve_byte_model(num_blocks: int, block_size: int, num_rhs: int,
                          num_partitions: int = 1,
                          is_complex: bool = True,
                          coupling_widths=None,
                          boundary_widths=None) -> int:
    """Bytes of one SplitSolve solve (preprocess + merges + postprocess).

    Prices the kernel sequence of
    :func:`~repro.perfmodel.costmodel.splitsolve_kernels` with the byte
    count each kernel records (Algorithm 1's block solves run the
    ``gesv`` kernel, so they carry the matrix operand as well as rhs +
    solution).  Exact on uniform blocks with uniform coupling supports
    (``coupling_widths``; default: dense coupling blocks) at the given
    ``boundary_widths`` (default: every row of the end blocks), for a
    complex A and (``is_complex=False``) for a real one.
    """
    return kernel_bytes(
        splitsolve_kernels(num_blocks, block_size, num_rhs, num_partitions,
                           coupling_widths, boundary_widths, is_complex),
        is_complex)


def byte_drift(measured_bytes: float, predicted_bytes: float,
               tolerance: float = 0.05) -> dict:
    """Measured-vs-model byte comparison for one stage or kernel.

    Returns ``{"measured", "predicted", "ratio", "excess", "drifting"}``
    where ``ratio`` is measured/predicted and ``drifting`` flags stages
    moving more (or fewer) bytes than the model allows — the roofline
    drift check that catches silently-introduced extra copies.  A zero
    prediction only drifts when bytes were measured anyway.
    """
    measured = float(measured_bytes)
    predicted = float(predicted_bytes)
    if predicted <= 0.0:
        return {"measured": measured, "predicted": predicted,
                "ratio": float("inf") if measured > 0 else 1.0,
                "excess": measured, "drifting": measured > 0.0}
    ratio = measured / predicted
    return {"measured": measured, "predicted": predicted, "ratio": ratio,
            "excess": measured - predicted,
            "drifting": abs(ratio - 1.0) > float(tolerance)}
