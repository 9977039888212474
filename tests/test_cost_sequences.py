"""A kernel's cost is declared once: the price table the wrappers record
from, and one kernel sequence per solver summed over it.

* the table's bytes are the ``nbytes`` of the arrays LAPACK works on
  (checked against the operands, promoted to the working dtype);
* a record is priced in one dtype: a real operand next to a complex one
  costs what its promoted copy costs, in flops *and* bytes;
* ``(kernel_flops, kernel_bytes)`` of every solver's sequence equals the
  ledger's ``(total_flops, total_bytes)`` on drawn shapes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import BlockTridiagonalMatrix, ledger_scope
from repro.linalg.flops import kernel_cost
from repro.linalg.kernels import (economic_qr, eig, eigh, geig, gemm, inv,
                                  lu_factor, lu_solve, qr_orth, solve,
                                  solve_upper)
from repro.obc.decimation import sancho_rubio
from repro.obc.feast import feast_annulus
from repro.obc.polynomial import PolynomialFamily
from repro.perfmodel import (decimation_kernels, dense_obc_kernels,
                             feast_kernels, interface_reduction_kernels,
                             kernel_bytes, kernel_flops, rgf_kernels,
                             splitsolve_kernels)
from repro.solvers import SparseDirectSolver, SplitSolve, solve_rgf
from tests.helpers import make_confined_btd, make_confined_lead, open_energies


def _draw(rng, cplx, *shape):
    out = rng.standard_normal(shape)
    return out + 1j * rng.standard_normal(shape) if cplx else out


def _counts(led):
    return led.total_flops, led.total_bytes


def _priced(kernels, is_complex=True, hermitian=False):
    kernels = list(kernels)
    return (kernel_flops(kernels, is_complex, hermitian),
            kernel_bytes(kernels, is_complex))


# -- the table ----------------------------------------------------------------

@pytest.mark.parametrize("cplx", [False, True])
def test_table_bytes_are_the_operands_nbytes(cplx):
    rng = np.random.default_rng(5)
    a = _draw(rng, cplx, 6, 6) + 6 * np.eye(6)
    b = _draw(rng, cplx, 6, 2)
    herm = a + a.conj().T
    fac = lu_factor(a)
    calls = {
        "gemm": ((4, 2, 6), lambda: (a[:4], b, gemm(a[:4], b))),
        "lu_factor": ((6,), lambda: (a, lu_factor(a)[0])),
        "lu_solve": ((6, 2), lambda: (b, lu_solve(fac, b))),
        "solve": ((6, 2), lambda: (a, b, solve(a, b))),
        "solve_her": ((6, 2),
                      lambda: (herm, b, solve(herm, b, assume_a="her"))),
        "inv": ((6,), lambda: (a, inv(a))),
        "eigh": ((6,), lambda: (herm, *eigh(herm))),
        "qr": ((6, 2), lambda: (b, qr_orth(b))),
    }
    for kind, (dims, call) in calls.items():
        with ledger_scope() as led:
            arrays = call()
        want = sum(x.nbytes for x in arrays)
        if kind == "eigh":      # w is real, and priced at the working width
            want = 3 * herm.nbytes
        assert led.total_bytes == kernel_cost(kind, dims, cplx)[1] == want, \
            kind
    # zggev: two matrices in, eigenvalues and eigenvectors out
    with ledger_scope() as led:
        geig(a, herm)
    assert led.total_bytes == kernel_cost("geig", (6,), cplx)[1] \
        == 4 * a.nbytes
    with ledger_scope() as led:
        eig(a)
    assert _counts(led) == kernel_cost("eig", (6,), cplx)
    assert list(led.flops_by_kernel) == ["zgeev"]
    # the transmission helpers are not kernels of the model: unrecorded
    with ledger_scope() as led:
        q, r, _piv = economic_qr(b, pivoting=True)
        solve_upper(r, q.conj().T @ b[:, 0])
    assert _counts(led) == (0, 0)


@pytest.mark.parametrize("cplx", [False, True])
def test_sparse_direct_pair_is_priced_on_its_fill(cplx):
    """The sparse LU and its solve record the table's ``lu_sparse`` pair
    on the measured nnz: 8 flops per (L column, U row) pair with T read
    and L, U written at nnz(T) entries; 8 flops per fill entry and rhs
    column with the rhs read and the solution written."""
    import scipy.sparse as sp

    t = make_confined_btd([3, 4, 2], [None, None], 3, cplx)
    rhs = _draw(np.random.default_rng(4), True, 9, 2)
    with ledger_scope() as factored:
        solver = SparseDirectSolver(t)
    with ledger_scope() as solved:
        solver.solve(rhs)
    lu = solver._lu
    pairs = int(np.sum(np.diff(lu.L.tocsc().indptr).astype(np.int64)
                       * np.diff(lu.U.tocsr().indptr)))
    nnz = sp.csc_matrix(t.to_sparse(), dtype=complex).data.size
    assert _counts(factored) == kernel_cost("lu_sparse", (pairs, nnz)) \
        == (8 * pairs, 3 * nnz * 16)
    assert list(factored.flops_by_kernel) == ["zlu_sparse"]
    fill = lu.L.nnz + lu.U.nnz
    assert _counts(solved) == kernel_cost("lu_sparse_solve", (fill, 9, 2)) \
        == (8 * fill * 2, 2 * rhs.nbytes)
    assert list(solved.flops_by_kernel) == ["zlu_sparse_solve"]


# -- one record, one dtype ----------------------------------------------------

class TestMixedDtypeRecord:
    """LAPACK factors the promoted copy, so a real operand next to a
    complex one is priced like its promoted self."""

    @pytest.fixture
    def operands(self):
        rng = np.random.default_rng(2)
        a = _draw(rng, False, 6, 6)
        a = a + a.T + 12 * np.eye(6)
        return a, _draw(rng, True, 6, 2)

    @pytest.mark.parametrize("assume_a", ["gen", "her"])
    def test_solve(self, operands, assume_a):
        a, b = operands
        with ledger_scope() as mixed:
            solve(a, b, assume_a=assume_a)
        with ledger_scope() as promoted:
            solve(a.astype(complex), b, assume_a=assume_a)
        assert _counts(mixed) == _counts(promoted)
        assert mixed.total_bytes == (6 * 6 + 2 * 6 * 2) * 16
        assert dict(mixed.flops_by_kernel) == dict(promoted.flops_by_kernel)

    @pytest.mark.parametrize("trans", ["N", "T", "C"])
    def test_lu_solve(self, operands, trans):
        """A real factor meets a complex right-hand side: LAPACK solves
        with the promoted factor, and every ``trans`` is one record."""
        a, b = operands
        fac, cfac = lu_factor(a), lu_factor(a.astype(complex))
        with ledger_scope() as mixed:
            lu_solve(fac, b, trans=trans)
        with ledger_scope() as promoted:
            lu_solve(cfac, b)
        assert _counts(mixed) == _counts(promoted) \
            == kernel_cost("lu_solve", (6, 2), True)
        assert dict(mixed.flops_by_kernel) == dict(promoted.flops_by_kernel)

    def test_gemm(self, operands):
        a, b = operands
        with ledger_scope() as mixed:
            gemm(a, b)
        with ledger_scope() as promoted:
            gemm(a.astype(complex), b)
        assert _counts(mixed) == _counts(promoted)
        assert mixed.total_bytes == (6 * 6 + 2 * 6 * 2) * 16


# -- model == ledger, in both counts ------------------------------------------

@st.composite
def shapes(draw):
    uniform = draw(st.booleans())
    nb = draw(st.integers(1, 5))
    size = draw(st.integers(1, 5))
    sizes = [size] * nb if uniform \
        else draw(st.lists(st.integers(1, 5), min_size=nb, max_size=nb))
    return dict(sizes=sizes,
                num_rhs=draw(st.integers(1, 3)),
                partitions=draw(st.sampled_from([1, 2, 4])),
                cplx=draw(st.booleans()),
                hermitian=draw(st.booleans()),
                confined=draw(st.booleans()),
                seed=draw(st.integers(0, 50)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(shapes())
def test_every_sequence_prices_its_solver(case):
    sizes, m, cplx, seed = (case[k] for k in
                            ("sizes", "num_rhs", "cplx", "seed"))
    rng = np.random.default_rng(seed)

    # RGF on the drawn (ragged or uniform) blocks, complex whatever T is,
    # on dense couplings or on one interface orbital each side
    pairs = [None if not case["confined"]
             else (([sizes[i] - 1], [0]), ([0], [sizes[i] - 1]))
             for i in range(len(sizes) - 1)]
    widths = [(sizes[i], sizes[i + 1], sizes[i + 1], sizes[i])
              if pair is None else (1, 1, 1, 1)
              for i, pair in enumerate(pairs)]
    t = make_confined_btd(sizes, pairs, seed, cplx)
    with ledger_scope() as led:
        solve_rgf(t, _draw(rng, cplx, sum(sizes), m))
    assert _counts(led) == _priced(rgf_kernels(sizes, m, widths))
    if not case["confined"]:
        assert _counts(led) == _priced(rgf_kernels(sizes, m))

    # SplitSolve on uniform blocks, in the dtype of A
    s, p, hermitian = max(sizes), case["partitions"], case["hermitian"]
    nb = max(len(sizes), 2 * p)
    a = make_confined_btd([s] * nb, [None] * (nb - 1), seed, cplx)
    if hermitian:
        a = BlockTridiagonalMatrix(
            [d + d.conj().T for d in a.diag], a.upper,
            [u.conj().T for u in a.upper])
    top, bottom = m, seed % 2
    with ledger_scope() as led:
        SplitSolve(a, num_partitions=p, parallel=False,
                   hermitian=hermitian).solve(
            0.3 * _draw(rng, True, s, s), 0.3 * _draw(rng, True, s, s),
            _draw(rng, True, s, top), _draw(rng, True, s, bottom))
    assert _counts(led) == _priced(
        splitsolve_kernels(nb, s, top + bottom, p, is_complex=cplx),
        cplx, hermitian)

    # the open boundary of a lead with n orbitals per cell: dense coupling,
    # or confined to two disjoint faces with an interior between them
    n = max(sizes) + 2
    lead = make_confined_lead(n, *(([n - 1], [0]) if case["confined"]
                                   else (None, None)),
                              seed=seed, cplx=cplx)
    energy = open_energies(lead, 1)[0]

    with ledger_scope() as led:
        _, _, iterations = sancho_rubio(energy * lead.s00 - lead.h00,
                                        energy * lead.s01 - lead.h01,
                                        eta=1e-4)
    assert _counts(led) == _priced(decimation_kernels(n, iterations))

    family = PolynomialFamily(lead.h_cells, lead.s_cells)
    with ledger_scope() as led:
        pevp = family.at_energy(energy)
        _, us = pevp.solve_dense()
        pevp.lift(us)
    reduction = list(interface_reduction_kernels(
        family.interior.size, family.interface.size, us.shape[1])) \
        if pevp.reduction is not None else []
    assert (pevp.reduction is not None) == case["confined"]
    assert _counts(led) == _priced(
        reduction + list(dense_obc_kernels(
            pevp.n, faces_disjoint=case["confined"])))

    with ledger_scope() as led:
        # 16 points: sharp enough a filter to converge on every lead the
        # strategy can draw (8 stalls on a Bloch factor next to the annulus)
        res = feast_annulus(pevp, r_outer=3.0, num_points=16, seed=0)
    # 32 contour points: orbits of four at k = 0, of two otherwise
    assert res.num_solves == (8 if pevp.real_coefficients else 16)
    assert _counts(led) == _priced(feast_kernels(
        pevp.n, res.num_solves, res.solve_widths, res.rr_sizes))
