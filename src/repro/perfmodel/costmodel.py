"""Cost models: one kernel sequence per solver, priced from one table.

The paper: "the number of floating point operations involved in
SplitSolve is deterministic and can be accurately estimated" (Section
5B).  This module writes that estimate down as the solver's kernel
sequence - ``(count, kernel, dims)`` entries, one generator per solver -
and :func:`kernel_flops` / :func:`kernel_bytes` sum it over
:func:`repro.linalg.flops.kernel_cost`, the table the instrumented
kernels record from.  A model and the PAPI-substitute ledger can then
only disagree on *which* kernels a solver runs, and the test-suite
checks that they do not: ``(kernel_flops, kernel_bytes)`` of a sequence
equals the ledger's totals exactly - RGF on any block sizes and supports,
decimation, FEAST, the dense OBC, the interface reduction, and
SplitSolve on uniform blocks with uniform coupling supports.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.flops import kernel_cost, ledger_scope
from repro.utils.errors import ConfigurationError


def splitsolve_kernels(num_blocks: int, block_size: int, num_rhs: int,
                       num_partitions: int = 1, coupling_widths=None,
                       boundary_widths=None, is_complex: bool = True):
    """The kernels of one SplitSolve solve, as ``(count, kernel, dims)``.

    The one transcription of the solver's kernel sequence (uniform
    blocks of size s, m rhs columns); :func:`splitsolve_flop_model` and
    :func:`splitsolve_byte_model` price it.
    ``kernel`` is ``"gemm"`` with ``dims = (m, n, k)``, or ``"solve"`` /
    ``"schur_solve"`` (the Schur blocks D_i, Hermitian when A is) with
    ``dims = (n, nrhs)``; these run in the dtype of A (``is_complex``).
    ``"zgemm"`` / ``"zsolve"`` are the postprocessing kernels between
    the self-energy and the right-hand side alone, complex whatever A is.

    ``coupling_widths = (upper rows, upper cols, lower rows, lower
    cols)`` are the support widths of the coupling blocks
    (:meth:`repro.linalg.CouplingSupport.widths`) and ``boundary_widths
    = (first, last)`` the number of rows of the first / last block the
    boundary can touch (``SplitSolve(boundary_support=...)``); the
    defaults, the block size throughout, price dense blocks (the
    paper's Titan projections).

    * Algorithm 1, per partition of nb blocks, one sweep: nb Schur
      solves, each for X_i on the non-zero columns of A[i, i+1] (the
      last block's wanted identity columns instead) next to the forward
      first column z_i; nb-1 gemms that give the Schur update on the
      ``rows x cols`` it touches and the forward rhs together; and nb-1
      back-substitution gemms as wide as both columns.  A column's width
      is the boundary width on the device's outer sides, the row width
      of the coupling block on a cut between partitions;
    * SPIKE, per merge: the corner algebra (10 gemms on the coupling
      sub-blocks, two corner solves on the coupling's column support,
      as wide as the merged partition's first / last column set) and
      one fused update gemm per block row, contracted over the boundary
      coupling's rows;
    * postprocessing on the w = first + last support rows: corner gemms,
      the (w x w) R solve, and one (s x w)(w x m) gemm per block row.
      Next to the Q of a real A the complex operand of a product enters
      as its real and imaginary parts stacked: twice as wide, one real
      gemm.
    """
    if num_blocks < 2:
        raise ConfigurationError("model needs >= 2 blocks")
    s = int(block_size)
    m = int(num_rhs)
    ru, cu, rl, cl = (s,) * 4 if coupling_widths is None \
        else (int(w) for w in coupling_widths)
    wf, wl = (s, s) if boundary_widths is None \
        else (int(w) for w in boundary_widths)

    bounds = np.linspace(0, num_blocks, num_partitions + 1).astype(int)
    # per (merged) partition: [blocks, first-column width, last-column
    # width]; a cut's inner widths are the coupling blocks' row widths
    parts = [[int(bounds[p + 1] - bounds[p]), rl, ru]
             for p in range(num_partitions)]
    parts[0][1], parts[-1][2] = wf, wl
    for nb, first, last in parts:
        # forward: D_i [X_i | z_i], X_i = D_i^{-1} A[i, i+1] (the last
        # block's identity columns instead), after one gemm for the
        # Schur update and the forward rhs together
        yield nb - 1, "gemm", (rl, cu + first, cl)
        yield nb - 1, "schur_solve", (s, cu + first)
        yield 1, "schur_solve", (s, last + first)
        # back: X_i [Q_last | Q_first]_{i+1}
        yield nb - 1, "gemm", (s, last + first, cu)

    # --- SPIKE merges: log2(p) levels ---
    while len(parts) > 1:
        merged = []
        for (nb_top, first, _), (nb_bot, _, last) in zip(parts[::2],
                                                         parts[1::2]):
            # merged first column, then its mirror image
            for r_a, c_a, r_b, c_b, width in ((ru, cu, rl, cl, first),
                                              (rl, cl, ru, cu, last)):
                yield 1, "gemm", (c_a, c_b, r_b)
                yield 1, "gemm", (r_a, c_b, c_a)
                yield 1, "gemm", (c_b, c_b, r_a)
                yield 1, "solve", (c_b, width)
                yield 1, "gemm", (r_a, width, c_b)
                yield 1, "gemm", (r_b, width, c_b)
            yield nb_top, "gemm", (s, first + last, ru)
            yield nb_bot, "gemm", (s, first + last, rl)
            merged.append([nb_top + nb_bot, first, last])
        parts = merged

    # --- postprocessing (steps 2-4) ---
    w = wf + wl
    stack = 1 if is_complex else 2            # [Re | Im] next to a real Q
    yield 2, "gemm", (s, stack * m, w)        # y_top, y_bot
    yield 1, "zgemm", (wf, m, s)              # C y
    yield 1, "zgemm", (wl, m, s)
    yield 1, "gemm", (stack * wf, w, s)       # C Q
    yield 1, "gemm", (stack * wl, w, s)
    yield 1, "zsolve", (w, m)                 # R z = C y
    yield num_blocks, "gemm", (s, stack * m, w)   # x = Q (b' + z)


def splitsolve_flop_model(num_blocks: int, block_size: int,
                          num_rhs: int, num_partitions: int = 1,
                          is_complex: bool = True,
                          hermitian: bool = False,
                          coupling_widths=None,
                          boundary_widths=None) -> int:
    """Flops of one SplitSolve solve (preprocess + postprocess).

    Prices :func:`splitsolve_kernels`; integer-exact against the ledger
    on uniform blocks with uniform coupling supports, for a complex A
    and (``is_complex=False``) for a real one.  The Schur blocks D_i
    take the zhesv path (half an LU) when A is Hermitian; the corner
    solves of the merges and of postprocessing are generic.
    """
    return kernel_flops(
        splitsolve_kernels(num_blocks, block_size, num_rhs, num_partitions,
                           coupling_widths, boundary_widths, is_complex),
        is_complex, hermitian)


def splitsolve_byte_model(num_blocks: int, block_size: int, num_rhs: int,
                          num_partitions: int = 1,
                          is_complex: bool = True,
                          coupling_widths=None,
                          boundary_widths=None) -> int:
    """Bytes of one SplitSolve solve: the sum :func:`splitsolve_flop_model`
    takes, in the other count (Algorithm 1's block solves run the
    ``gesv`` kernel, so they carry the matrix operand as well as rhs +
    solution)."""
    return kernel_bytes(
        splitsolve_kernels(num_blocks, block_size, num_rhs, num_partitions,
                           coupling_widths, boundary_widths, is_complex),
        is_complex)


def rgf_kernels(block_sizes, num_rhs: int, coupling_widths=None):
    """The kernels of one RGF (block Thomas) solve of ``num_rhs`` columns
    on blocks of the given sizes: :func:`repro.solvers.rgf.solve_rgf`,
    which the pipeline runs once per energy (complex whatever A is:
    Sigma enters the corner Schur blocks).

    ``coupling_widths`` holds one ``(upper rows, upper cols, lower rows,
    lower cols)`` per coupling block
    (:meth:`repro.linalg.CouplingSupport.block_widths`); the default,
    the block sizes, prices dense couplings.  Backward sweep from the
    last block's LU: per coupling ``i`` one back-substitution of the
    ``lc`` non-zero columns of ``T[i+1, i]`` next to the ``m`` carried
    ones against the ``s_{i+1}`` factor, one ``(ru, lc + m, uc)`` gemm
    for the Schur update and the rhs carry together, and the LU of the
    updated block; forward substitution: one back-substitution, then
    one ``(s_i, m, lc)`` gemm per block.  Only the LUs are cubic in s.
    """
    s = [int(size) for size in block_sizes]
    m = int(num_rhs)
    if not s:
        raise ConfigurationError("model needs >= 1 block")
    if coupling_widths is None:         # dense couplings
        coupling_widths = [(s[i], s[i + 1], s[i + 1], s[i])
                           for i in range(len(s) - 1)]
    widths = [tuple(map(int, w)) for w in coupling_widths]
    yield 1, "lu_factor", (s[-1],)
    for i in range(len(s) - 2, -1, -1):
        ru, uc, _, lc = widths[i]
        yield 1, "lu_solve", (s[i + 1], lc + m)
        yield 1, "gemm", (ru, lc + m, uc)     # Schur update + rhs carry
        yield 1, "lu_factor", (s[i],)
    yield 1, "lu_solve", (s[0], m)
    for i in range(1, len(s)):
        yield 1, "gemm", (s[i], m, widths[i - 1][3])


def mixed_kernels(n: int, nrhs: int, refine_iters: int = 1):
    """The kernels one slice of the mixed-precision backend records
    (:class:`repro.linalg.mixed.MixedPrecisionBackend`) for a factor and
    one refined solve that converges: the complex64 factorization, one
    low-precision sweep for the first solution plus one per refinement
    iteration, and one double-precision residual gemm per residual
    check - ``refine_iters + 1`` checks for ``refine_iters``
    corrections (the last one passes the gate)."""
    yield 1, "lu_factor_c64", (int(n),)
    yield 1 + int(refine_iters), "lu_solve_c64", (int(n), int(nrhs))
    yield 1 + int(refine_iters), "gemm", (int(n), int(nrhs), int(n))


# --------------------------------------------------------------------------
# Open-boundary (lead mode) solves: kernel sequences as ``(count, kernel,
# dims)`` with ``kernel`` one of ``"gemm"`` (m, n, k), ``"lu_factor"``
# (n,), ``"lu_solve"`` / ``"solve"`` (n, nrhs), ``"geig"`` (n,).
# :func:`kernel_flops` and :func:`kernel_bytes` price them; chain the
# reduction's with the eigen-solve's for one whole OBC solve.
# --------------------------------------------------------------------------

def interface_reduction_kernels(n_interior: int, n_interface: int,
                                num_lifted: int):
    """The kernels of reducing one lead polynomial to its interface
    orbitals (:class:`repro.obc.polynomial.PolynomialFamily`): the LU of
    the interior block K_II, its back-substitution against the
    ``n_interface`` columns of K_IB, the Schur-complement product
    K_BI (K_II^{-1} K_IB), and the product that lifts ``num_lifted``
    eigenvectors back to the full cell."""
    ni, nb = int(n_interior), int(n_interface)
    yield 1, "lu_factor", (ni,)
    yield 1, "lu_solve", (ni, nb)
    yield 1, "gemm", (nb, nb, ni)
    yield 1, "gemm", (ni, int(num_lifted), nb)


def feast_kernels(n: int, num_solves: int, solve_widths, rr_sizes):
    """The recorded kernels of one :func:`repro.obc.feast.feast_annulus`
    solve on a polynomial of size ``n``:

    - ``num_solves`` contour factorizations of the ``(n, n)`` matrix
      ``P(z_0)``, one per symmetry orbit of the contour, done once up
      front and reused by every filter application;
    - one back-substitution per ``FeastResult.solve_widths`` entry on an
      ``(n, width)`` rhs (an orbit's members that share an operator
      solve side by side; growing the first block adds filter
      applications, not factorizations);
    - per iteration, one Rayleigh-Ritz ``zggev`` of the size in
      ``FeastResult.rr_sizes``.

    The coefficient-stack products, SVD orthonormalization, and
    unit-vector extraction run through plain numpy (unrecorded), so they
    are (correctly) absent here.
    """
    yield int(num_solves), "lu_factor", (int(n),)
    for width in solve_widths:
        yield 1, "lu_solve", (int(n), int(width))
    for size in rr_sizes:
        yield 1, "geig", (int(size),)


def dense_obc_kernels(n: int, nbw: int = 1, faces_disjoint: bool = False):
    """The one recorded kernel of :meth:`PolynomialEVP.solve_dense`:
    ``zggev`` on the n-sized face pencil when the cell has two disjoint
    faces (NBW = 1 and no orbital both a row and a column of the far
    coupling block), on the ``2 NBW n`` companion pencil otherwise."""
    face = faces_disjoint and int(nbw) == 1
    yield 1, "geig", (int(n) if face else 2 * int(nbw) * int(n),)


def decimation_kernels(n: int, iterations: int):
    """The recorded kernels of :func:`repro.obc.decimation.sancho_rubio`
    on an ``(n, n)`` lead cell over ``iterations`` decimation steps (its
    third return; summed over energies for a sweep): per step one
    ``2n``-wide block solve against the renormalized ``eps`` and four
    ``(n, n, n)`` gemms.  The convergence exit's two small inverses are
    plain ``np.linalg.inv`` calls the ledger never sees."""
    yield int(iterations), "solve", (int(n), 2 * int(n))
    yield 4 * int(iterations), "gemm", (int(n),) * 3


def _cost(kernel: str, dims, is_complex: bool, hermitian: bool = False):
    """:func:`~repro.linalg.flops.kernel_cost` of one sequence entry:
    ``"schur_solve"`` is the Hermitian (half-LU) solve when the matrix
    is, ``"zgemm"`` / ``"zsolve"`` are complex whatever ``is_complex``
    says of the rest."""
    if kernel == "schur_solve":
        kernel = "solve_her" if hermitian else "solve"
    elif kernel in ("zgemm", "zsolve"):
        kernel, is_complex = kernel[1:], True
    return kernel_cost(kernel, dims, is_complex)


def kernel_flops(kernels, is_complex: bool = True,
                 hermitian: bool = False) -> int:
    """Flops the kernels of a ``(count, kernel, dims)`` sequence record."""
    return sum(count * _cost(kernel, dims, is_complex, hermitian)[0]
               for count, kernel, dims in kernels)


def kernel_bytes(kernels, is_complex: bool = True) -> int:
    """Bytes the kernels of a ``(count, kernel, dims)`` sequence record."""
    return sum(count * _cost(kernel, dims, is_complex)[1]
               for count, kernel, dims in kernels)


def _device_rate_ratio() -> float:
    """Sustained GPU/CPU rate ratio used to weigh solver flop counts.

    Taken from the Titan node specs when the hardware model is available
    (sustained K20X rate over the usable Opteron cores); falls back to
    the paper-era ratio of ~8 otherwise.
    """
    try:
        from repro.hardware.specs import TITAN
        node = TITAN.node
        gpu = node.gpu.peak_dp_gflops * node.gpu.sustained_fraction
        cpu = (node.cpu.peak_dp_gflops * node.cpu.sustained_fraction
               * node.usable_core_fraction)
        if gpu > 0 and cpu > 0:
            return gpu / cpu
    except Exception:
        pass
    return 8.0


def choose_solver(num_blocks: int, block_size: int, num_rhs: int,
                  num_partitions: int = 1, hermitian: bool = False,
                  coupling_widths=None, boundary_widths=None,
                  is_complex: bool = True) -> str:
    """The OMEN-style SplitSolve-vs-RGF choice (``solver="auto"``).

    Compares the deterministic flop models, weighting SplitSolve's count
    by the GPU/CPU rate ratio (SplitSolve runs on the accelerators, RGF
    on the host cores).  Systems the SplitSolve model cannot price
    (fewer than 2 blocks) fall back to RGF.  ``coupling_widths`` prices
    both solvers on the coupling support they sweep on (the default:
    dense blocks), ``boundary_widths`` SplitSolve on the boundary rows
    it reads, ``is_complex`` SplitSolve in the dtype of A(E) (RGF sees
    the self-energy in its corner blocks and is complex whatever A is).
    """
    num_rhs = max(int(num_rhs), 1)
    if num_blocks < 2:
        return "rgf"
    ss = splitsolve_flop_model(num_blocks, block_size, num_rhs,
                               num_partitions=num_partitions,
                               is_complex=is_complex,
                               hermitian=hermitian,
                               coupling_widths=coupling_widths,
                               boundary_widths=boundary_widths)
    rgf = kernel_flops(rgf_kernels(
        [block_size] * num_blocks, num_rhs,
        None if coupling_widths is None
        else [coupling_widths] * (num_blocks - 1)))
    return "splitsolve" if ss / _device_rate_ratio() <= rgf else "rgf"


def measure_flops(fn, *args, **kwargs):
    """Run ``fn`` under a fresh ledger; return (result, ledger)."""
    with ledger_scope() as led:
        out = fn(*args, **kwargs)
    return out, led


def extrapolate_flops(measured_flops: float, small: dict, big: dict) -> float:
    """Scale measured flops to paper-size structures.

    Uses the SplitSolve scaling law F ~ nb * s^3 (per-block dense kernels
    dominate): F_big = F_small * (nb_b / nb_s) * (s_b / s_s)^3.  ``small``
    and ``big`` are dicts with keys ``num_blocks`` and ``block_size``.
    """
    for d in (small, big):
        if d.get("num_blocks", 0) <= 0 or d.get("block_size", 0) <= 0:
            raise ConfigurationError(
                "need positive num_blocks and block_size")
    return (measured_flops
            * (big["num_blocks"] / small["num_blocks"])
            * (big["block_size"] / small["block_size"]) ** 3)
