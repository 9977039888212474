"""Correctness tests for the instrumented kernels."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import (eig, eigh, gemm, geig, inv, lu_factor, lu_solve,
                          qr_orth, solve, solve_many)
from repro.linalg.kernels import economic_qr, solve_upper
from repro.utils.errors import ShapeError, SingularMatrixError


def _rand(shape, seed=0, cplx=False):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape)
    if cplx:
        a = a + 1j * rng.standard_normal(shape)
    return a


class TestGemm:
    def test_matches_numpy(self):
        a, b = _rand((4, 7), 1), _rand((7, 3), 2)
        np.testing.assert_allclose(gemm(a, b), a @ b)

    def test_complex(self):
        a, b = _rand((4, 4), 1, True), _rand((4, 4), 2, True)
        np.testing.assert_allclose(gemm(a, b), a @ b)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            gemm(np.eye(3), np.eye(4))


class TestSolve:
    def test_general(self):
        a = _rand((10, 10), 1) + 10 * np.eye(10)
        b = _rand((10, 3), 2)
        x = solve(a, b)
        np.testing.assert_allclose(a @ x, b, atol=1e-9)

    def test_hermitian_path(self):
        a = _rand((8, 8), 3, True)
        a = a + a.conj().T + 8 * np.eye(8)
        b = _rand((8, 2), 4, True)
        x = solve(a, b, assume_a="her")
        np.testing.assert_allclose(a @ x, b, atol=1e-9)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            solve(np.zeros((3, 3)), np.ones((3, 1)))

    @pytest.mark.parametrize("assume_a", ["gen", "her"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_singular_raises_on_every_driver(self, assume_a, dtype):
        with pytest.raises(SingularMatrixError):
            solve(np.zeros((3, 3), dtype=dtype), np.ones((3, 1)),
                  assume_a=assume_a)

    @pytest.mark.parametrize("assume_a", ["gen", "her"])
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_is_the_datas_fault(self, assume_a, dtype,
                                                  bad):
        """A NaN used to reach ``?gecon`` as an illegal ``anorm`` ("our
        bug" ValueError) and ``?sytrf``/``?hetrf`` as a "zero pivot"."""
        a = (_rand((5, 5), 21) + 5 * np.eye(5)).astype(dtype)
        a = a + a.T
        a[2, 3] = a[3, 2] = bad
        keep = a.copy()
        with pytest.raises(SingularMatrixError, match="non-finite"):
            solve(a, np.ones((5, 2)), assume_a=assume_a, overwrite_a=True)
        np.testing.assert_array_equal(a, keep)      # nothing was factored

    @pytest.mark.parametrize("assume_a", ["gen", "her"])
    def test_rank_deficient_to_round_off_warns(self, assume_a):
        """No pivot is exactly zero, so LAPACK factors it; the condition
        estimate is what says the answer is noise."""
        a = np.diag([1.0, 1.0, 1e-20]).astype(complex)
        with pytest.warns(sla.LinAlgWarning, match="ill-conditioned"):
            x = solve(a, np.ones((3, 1), dtype=complex), assume_a=assume_a)
        assert np.isfinite(x).all()

    @pytest.mark.parametrize("assume_a,dtype", [("gen", float),
                                                ("her", complex)])
    def test_matches_scipy_bit_for_bit(self, assume_a, dtype):
        """Same LAPACK routines on the same operands as scipy's driver."""
        a = _rand((9, 9), 11, dtype is complex)
        a = a + a.conj().T + 9 * np.eye(9)
        b = _rand((9, 4), 12, dtype is complex)
        np.testing.assert_array_equal(
            solve(a, b, assume_a=assume_a),
            sla.solve(a, b, assume_a=assume_a))
        keep = a.copy()
        solve(a, b, assume_a=assume_a)
        np.testing.assert_array_equal(a, keep)      # not overwritten

    def test_overwrite_a_factors_in_place(self):
        a = np.asfortranarray(_rand((6, 6), 13, True) + 6 * np.eye(6))
        b = _rand((6, 2), 14, True)
        keep = a.copy()
        x = solve(a, b, overwrite_a=True)
        np.testing.assert_allclose(keep @ x, b, atol=1e-12)
        assert not np.array_equal(a, keep)

    def test_illegal_lapack_argument_is_not_swallowed(self, monkeypatch):
        """``info < 0`` is a bug in the call, not a singular matrix."""
        from repro.linalg import kernels
        factor, estimate, substitute = kernels._SOLVE_ROUTINES[True, "gen"]
        monkeypatch.setitem(
            kernels._SOLVE_ROUTINES, (True, "gen"),
            (lambda a, **kw: (a, None, -4), estimate, substitute))
        with pytest.raises(ValueError, match="illegal argument 4"):
            solve(np.eye(3, dtype=complex), np.ones((3, 1)))

    def test_empty_right_hand_side(self):
        x = solve(np.eye(3), np.ones((3, 0)))
        assert x.shape == (3, 0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            solve(np.eye(3), np.ones((4, 1)))

    def test_solve_many_shares_factorization(self):
        a = _rand((6, 6), 5) + 6 * np.eye(6)
        bs = [_rand((6, 2), s) for s in (6, 7, 8)]
        xs = solve_many(a, bs)
        for b, x in zip(bs, xs):
            np.testing.assert_allclose(a @ x, b, atol=1e-9)


class TestInvEig:
    def test_inv(self):
        a = _rand((7, 7), 6) + 7 * np.eye(7)
        np.testing.assert_allclose(inv(a) @ a, np.eye(7), atol=1e-9)

    def test_inv_singular(self):
        with pytest.raises(SingularMatrixError):
            inv(np.zeros((2, 2)))

    def test_inv_rank_deficient_to_round_off_warns(self):
        with pytest.warns(sla.LinAlgWarning, match="ill-conditioned"):
            inv(np.array([[1.0, 2.0], [2.0, 4.0 + 1e-15]]))

    def test_eig_reconstruction(self):
        a = _rand((6, 6), 7, True)
        w, v = eig(a)
        np.testing.assert_allclose(a @ v, v @ np.diag(w), atol=1e-8)

    def test_eigh_real_eigenvalues(self):
        a = _rand((6, 6), 8, True)
        a = a + a.conj().T
        w, v = eigh(a)
        assert np.isrealobj(w)
        np.testing.assert_allclose(a @ v, v * w, atol=1e-8)

    def test_eigh_generalized(self):
        a = _rand((5, 5), 9, True)
        a = a + a.conj().T
        b = _rand((5, 5), 10, True)
        b = b @ b.conj().T + 5 * np.eye(5)
        w, v = eigh(a, b)
        np.testing.assert_allclose(a @ v, b @ v * w, atol=1e-8)

    def test_geig(self):
        a = _rand((6, 6), 11, True)
        b = _rand((6, 6), 12, True) + 6 * np.eye(6)
        w, v = geig(a, b)
        finite = np.isfinite(w)
        np.testing.assert_allclose(
            a @ v[:, finite], b @ v[:, finite] * w[finite], atol=1e-7)

    def test_qr_orth(self):
        a = _rand((10, 4), 13, True)
        q = qr_orth(a)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(4), atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 12), nrhs=st.integers(1, 4), seed=st.integers(0, 99))
def test_solve_property_random_diagonally_dominant(n, nrhs, seed):
    """solve() inverts any well-conditioned system it is given."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a += 2 * n * np.eye(n)
    b = rng.standard_normal((n, nrhs))
    x = solve(a, b)
    np.testing.assert_allclose(a @ x, b, atol=1e-8)


class TestZeroPivot:
    def test_lu_factor_raises_a_typed_error(self):
        """scipy only warns ("Diagonal number 2 is exactly zero") and its
        substitution then returns [-inf, inf]; ``solve`` already raised."""
        with pytest.raises(SingularMatrixError, match="getrf info 2"):
            lu_factor([[1, 2], [2, 4]])
        with pytest.raises(SingularMatrixError, match="exactly zero"):
            solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))

    def test_empty_matrix_factors_to_nothing(self):
        lu, piv = lu_factor(np.zeros((0, 0)))
        assert lu.shape == (0, 0) and piv.shape == (0,)


# -- the same LAPACK calls as scipy.linalg, so the same bits -------------------

def _same(x, y):
    assert x.dtype == y.dtype and x.shape == y.shape
    assert x.tobytes() == y.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 20), nrhs=st.integers(0, 4), cplx=st.booleans(),
       rhs_cplx=st.booleans(), seed=st.integers(0, 99))
def test_lu_matches_scipy_bit_for_bit(n, nrhs, cplx, rhs_cplx, seed):
    """Every ``trans``, 1-D and 2-D right-hand sides, and a real factor
    meeting a complex right-hand side (promoted, as scipy does)."""
    a = _rand((n, n), seed, cplx)
    b = _rand((n, nrhs), seed + 1, cplx or rhs_cplx)
    fac, ref = lu_factor(a), sla.lu_factor(a, check_finite=False)
    _same(fac[0], ref[0])
    _same(fac[1], ref[1])
    for trans in "NTC":
        for rhs in (b, b[:, 0] if nrhs else b[:, :0]):
            x = lu_solve(fac, rhs, trans=trans)
            y = sla.lu_solve(ref, rhs, trans="NTC".index(trans))
            assert x.dtype == y.dtype and x.shape == y.shape
            if rhs.size:
                _same(x, y)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 20), cplx=st.booleans(), seed=st.integers(0, 99))
def test_inv_eigh_eig_match_scipy_bit_for_bit(n, cplx, seed):
    """``inv`` from n = 2: scipy inverts a 1 x 1 complex matrix with its
    own division, ``?getri`` agrees with NumPy's there instead."""
    a = _rand((n, n), seed, cplx)
    _same(inv(a), sla.inv(a))
    herm = a + a.conj().T
    spd = a @ a.conj().T + n * np.eye(n)
    for got, want in ((eigh(herm), sla.eigh(herm)),
                      (eigh(herm, spd), sla.eigh(herm, spd))):
        _same(got[0], want[0])
        _same(got[1], want[1])
    if cplx:    # real operands are solved as complex ones
        for got, want in zip(eig(a), sla.eig(a)):
            _same(got, want)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(m=st.integers(1, 24), n=st.integers(1, 12), cplx=st.booleans(),
       seed=st.integers(0, 99))
def test_qr_and_triangular_solve_match_scipy_bit_for_bit(m, n, cplx, seed):
    a = _rand((m, n), seed, cplx)
    _same(qr_orth(a), sla.qr(a, mode="economic")[0])
    q, r, piv = economic_qr(a, pivoting=True)
    for got, want in zip((q, r, piv),
                         sla.qr(a, mode="economic", pivoting=True)):
        _same(got, want)
    if m >= n:
        wave = _rand((n,), seed + 2, True)
        for layout in (r, np.asfortranarray(r)):
            _same(solve_upper(layout, wave),
                  sla.solve_triangular(layout, wave))
