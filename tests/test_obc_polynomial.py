"""Tests for the lead polynomial EVP and its companion linearization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hamiltonian import build_device
from repro.obc import PolynomialEVP, classify_modes
from repro.obc.modes import mode_flux
from repro.structure import linear_chain
from repro.utils.errors import ConfigurationError, ShapeError
from tests.helpers import make_confined_lead, open_energies
from tests.test_hamiltonian import single_s_basis


def chain_lead(cutoff=0.27, energy=0.3):
    """(lead, pevp) of the single-orbital chain."""
    dev = build_device(linear_chain(8, 0.25), single_s_basis(cutoff),
                       num_cells=8)
    return dev.lead, PolynomialEVP(dev.lead.h_cells, dev.lead.s_cells,
                                   energy)


def random_pevp(n=3, nbw=2, energy=0.1, seed=0):
    """Random Hermitian-structured lead blocks."""
    rng = np.random.default_rng(seed)
    h_cells = []
    s_cells = []
    for l in range(nbw + 1):
        h = rng.standard_normal((n, n)) * 0.5 ** l
        s = rng.standard_normal((n, n)) * 0.1 * 0.5 ** l
        if l == 0:
            h = (h + h.T) / 2
            s = (s + s.T) / 2 + np.eye(n)
        h_cells.append(h)
        s_cells.append(s)
    return PolynomialEVP(h_cells, s_cells, energy)


class TestConstruction:
    def test_chain_coefficients(self):
        lead, pevp = chain_lead(energy=0.3)
        t = lead.h01[0, 0]
        assert pevp.nbw == 1
        assert pevp.degree == 2
        # C = [Htilde_-1, Htilde_0, Htilde_1] = [t, -E, t] for S = 1.
        np.testing.assert_allclose(pevp.coeffs[0], [[t]])
        np.testing.assert_allclose(pevp.coeffs[1], [[-0.3]])
        np.testing.assert_allclose(pevp.coeffs[2], [[t]])

    def test_eval_polynomial(self):
        pevp = random_pevp()
        z = 0.7 + 0.2j
        expect = sum((z ** m) * c for m, c in enumerate(pevp.coeffs))
        np.testing.assert_allclose(pevp.eval(z), expect)

    def test_size(self):
        pevp = random_pevp(n=3, nbw=2)
        assert pevp.size == 2 * 2 * 3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PolynomialEVP([np.eye(2)], [np.eye(2)], 0.0)
        with pytest.raises(ConfigurationError):
            PolynomialEVP([np.eye(2)] * 2, [np.eye(2)] * 3, 0.0)
        with pytest.raises(ShapeError):
            PolynomialEVP([np.eye(2), np.eye(3)], [np.eye(2)] * 2, 0.0)


class TestDenseSolve:
    def test_chain_modes_analytic(self):
        """In-band chain modes are lambda = exp(+-ik), cos k=(E-eps)/2t."""
        lead, pevp = chain_lead(energy=0.3)
        t = lead.h01[0, 0]
        lams, us = pevp.solve_dense()
        assert len(lams) == 2
        cosk = 0.3 / (2 * t)
        k = np.arccos(cosk)
        expect = {np.exp(1j * k), np.exp(-1j * k)}
        for lam in lams:
            assert min(abs(lam - e) for e in expect) < 1e-10
        np.testing.assert_allclose(np.abs(lams), 1.0, atol=1e-10)

    def test_chain_outside_band_decaying(self):
        lead, pevp = chain_lead(energy=5.0)  # way outside the band
        lams, _ = pevp.solve_dense()
        assert len(lams) == 2
        assert not np.any(np.isclose(np.abs(lams), 1.0, atol=1e-6))
        # reciprocal pair: lambda1 * lambda2 = 1 (Htilde_-1 = Htilde_1 here)
        np.testing.assert_allclose(np.prod(lams), 1.0, atol=1e-8)

    def test_residuals_small(self):
        pevp = random_pevp(n=4, nbw=2, seed=3)
        lams, us = pevp.solve_dense()
        for i, lam in enumerate(lams):
            assert pevp.residual(lam, us[:, i]) < 1e-8

    def test_reciprocal_symmetry_hermitian_blocks(self):
        """For Hermitian lead blocks and real E, eigenvalues pair as
        (lambda, 1/conj(lambda)) — the left/right mode symmetry."""
        pevp = random_pevp(n=3, nbw=1, seed=5)
        lams, _ = pevp.solve_dense()
        for lam in lams:
            partner = 1.0 / np.conj(lam)
            assert min(abs(lams - partner)) < 1e-7


class TestStackedResiduals:
    def test_matches_the_per_pair_formula(self):
        pevp = random_pevp(n=4, nbw=2, seed=3)
        rng = np.random.default_rng(0)
        lams = np.array([0.3 + 0.1j, -2.5, 1e-9, 40j, np.nan, np.inf, 1.0])
        us = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
        us[:, 6] = 0.0
        got = pevp.residuals(lams, us)
        for i in range(4):
            scale = max(np.linalg.norm(c, ord=np.inf)
                        * max(abs(lams[i]), 1.0) ** m
                        for m, c in enumerate(pevp.coeffs))
            want = np.linalg.norm(pevp.eval(lams[i]) @ us[:, i]) \
                / (np.linalg.norm(us[:, i]) * scale)
            assert got[i] == pytest.approx(want, rel=1e-12)
            assert pevp.residual(lams[i], us[:, i]) == got[i]
        # a non-finite lambda or a zero vector is never an eigenpair
        assert np.isposinf(got[4:]).all()
        assert pevp.residuals([], np.zeros((4, 0))).shape == (0,)

    def test_classify_modes_is_the_per_mode_loop(self):
        """Field for field what judging one pair at a time returned, on a
        table with NaN / inf eigenvalues, a zero vector, a residual above
        the tolerance and both propagating directions."""
        lead = make_confined_lead(10, [7, 8, 9], [0, 1])
        pevp = PolynomialEVP(lead.h_cells, lead.s_cells,
                             open_energies(lead, 1)[0])
        lams, us = pevp.solve_dense()
        lams = np.concatenate([lams, [np.nan, np.inf, lams[0], 1.01 * lams[1]]])
        us = np.hstack([us, us[:, :2], np.zeros((10, 1)), us[:, 1:2]])

        def per_mode_loop(prop_tol=1e-6, residual_tol=1e-7):
            keep, vels, props, right = [], [], [], []
            for i, lam in enumerate(lams):
                u = us[:, i]
                scale = max(np.linalg.norm(c, ord=np.inf)
                            * max(abs(lam), 1.0) ** m
                            for m, c in enumerate(pevp.coeffs))
                if not np.isfinite(lam) or not u.any() or np.linalg.norm(
                        pevp.eval(lam) @ u) / (np.linalg.norm(u) * scale) \
                        > residual_tol:
                    continue
                is_prop = abs(abs(lam) - 1.0) < prop_tol
                v = mode_flux([lam], u[:, None], pevp.coeffs[2:])[0] \
                    if is_prop else 0.0
                keep.append(i)
                vels.append(v)
                props.append(is_prop)
                right.append(v > 0 if is_prop else abs(lam) < 1.0)
            return keep, vels, props, right

        keep, vels, props, right = per_mode_loop()
        assert len(keep) == len(lams) - 4
        modes = classify_modes(pevp, lams, us)
        assert modes.num_propagating_right >= 1
        assert modes.num_propagating_left >= 1
        assert np.array_equal(modes.lambdas, lams[keep])
        assert np.array_equal(modes.vectors, us[:, keep])
        assert np.array_equal(modes.velocities, vels)
        assert np.array_equal(modes.propagating, props)
        assert np.array_equal(modes.right_going, right)
        assert (modes.velocities.dtype, modes.propagating.dtype,
                modes.right_going.dtype) == (float, bool, bool)
        empty = classify_modes(pevp, lams[-4:-2], us[:, -4:-2])
        assert empty.vectors.shape == (10, 0) and empty.num_modes == 0


class TestResolventReduction:
    """The 'analytical block LU' reduction must equal the full solve."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("nbw", [1, 2, 3])
    def test_matches_dense_resolvent(self, seed, nbw):
        pevp = random_pevp(n=3, nbw=nbw, seed=seed)
        a, b = pevp.pencil()
        rng = np.random.default_rng(seed + 100)
        y = rng.standard_normal((pevp.size, 4)) \
            + 1j * rng.standard_normal((pevp.size, 4))
        z = 1.3 * np.exp(0.4j)
        x_fast = pevp.resolvent_apply(z, y)
        x_ref = np.linalg.solve(z * b - a, b @ y)
        np.testing.assert_allclose(x_fast, x_ref, atol=1e-9)

    def test_vector_rhs(self):
        pevp = random_pevp()
        y = np.ones(pevp.size, dtype=complex)
        x = pevp.resolvent_apply(0.9j, y)
        assert x.shape == (pevp.size,)

    def test_factor_reuse(self):
        pevp = random_pevp()
        z = 1.1 + 0.3j
        fac = pevp.factor_reduced(z)
        y = np.ones((pevp.size, 2), dtype=complex)
        x1 = pevp.resolvent_apply(z, y, factor=fac)
        x2 = pevp.resolvent_apply(z, y)
        np.testing.assert_allclose(x1, x2)

    def test_wrong_rows_rejected(self):
        pevp = random_pevp()
        with pytest.raises(ShapeError):
            pevp.resolvent_apply(1.0j, np.ones((3, 2)))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 200), nbw=st.integers(1, 3))
def test_property_pencil_eigs_satisfy_polynomial(seed, nbw):
    """Every finite pencil eigenpair solves the matrix polynomial."""
    pevp = random_pevp(n=2, nbw=nbw, energy=0.2, seed=seed)
    lams, us = pevp.solve_dense()
    for i, lam in enumerate(lams):
        assert pevp.residual(lam, us[:, i]) < 1e-6
