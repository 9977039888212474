"""Tests for FEAST, shift-and-invert, decimation, and self-energies."""

import numpy as np
import pytest

from repro.hamiltonian import build_device
from repro.linalg import ledger_scope
from repro.obc import (
    PolynomialEVP,
    boundary_from_decimation,
    classify_modes,
    compute_open_boundary,
    feast_annulus,
    fold_modes,
    sancho_rubio,
    shift_invert_modes,
)
from repro.obc.modes import mode_flux
from repro.structure import linear_chain, silicon_nanowire
from repro.basis import tight_binding_set
from repro.utils.errors import ConfigurationError, ConvergenceError
from tests.test_hamiltonian import single_s_basis
from tests.helpers import assert_spectra_match
from tests.test_obc_polynomial import chain_lead, random_pevp


def in_annulus(lams, r):
    return (np.abs(lams) < r) & (np.abs(lams) > 1.0 / r)


class TestFeast:
    @pytest.mark.parametrize("energy", [0.3, 0.9, 2.0])
    def test_matches_dense_on_chain(self, energy):
        lead, pevp = chain_lead(energy=energy)
        res = feast_annulus(pevp, r_outer=4.0, seed=1)
        lams_d, _ = pevp.solve_dense()
        assert_spectra_match(res.lambdas, lams_d[in_annulus(lams_d, 4.0)])

    def test_matches_dense_random_nbw2(self):
        pevp = random_pevp(n=3, nbw=2, energy=0.15, seed=7)
        r = 2.5
        res = feast_annulus(pevp, r_outer=r, num_points=16, seed=2)
        lams_d, _ = pevp.solve_dense()
        assert_spectra_match(res.lambdas, lams_d[in_annulus(lams_d, r)],
                             atol=1e-7)

    def test_residuals_below_tol(self):
        pevp = random_pevp(n=4, nbw=1, seed=9)
        res = feast_annulus(pevp, r_outer=3.0, seed=3)
        if res.num_modes:
            assert res.residuals.max() < 1e-8

    def test_no_spurious_modes_outside_annulus(self):
        pevp = random_pevp(n=3, nbw=2, seed=11)
        res = feast_annulus(pevp, r_outer=1.8, seed=4)
        assert np.all(in_annulus(res.lambdas, 1.8 + 1e-9))

    def test_eigenvectors_satisfy_polynomial(self):
        lead, pevp = chain_lead(energy=0.5)
        res = feast_annulus(pevp, r_outer=3.0, seed=5)
        for i, lam in enumerate(res.lambdas):
            assert pevp.residual(lam, res.vectors[:, i]) < 1e-9

    def test_rejects_bad_radius(self):
        _, pevp = chain_lead()
        with pytest.raises(ConfigurationError):
            feast_annulus(pevp, r_outer=0.9)

    def test_silicon_lead(self):
        """FEAST on a real nanowire lead (folded supercell frame check)."""
        wire = silicon_nanowire(1.0, 4)
        dev = build_device(wire, tight_binding_set(), num_cells=4)
        pevp = PolynomialEVP(dev.lead.h_cells, dev.lead.s_cells, -4.0)
        res = feast_annulus(pevp, r_outer=2.0, num_points=12, seed=6)
        lams_d, _ = pevp.solve_dense()
        want = lams_d[in_annulus(lams_d, 2.0)]
        assert res.num_modes == len(want)


class TestShiftInvert:
    def test_matches_dense_on_chain(self):
        lead, pevp = chain_lead(energy=0.4)
        lams, us = shift_invert_modes(pevp, num_shifts=4, seed=1)
        lams_d, _ = pevp.solve_dense()
        assert_spectra_match(lams, lams_d[in_annulus(lams_d, 3.0)],
                             atol=1e-7)

    def test_random_nbw2(self):
        pevp = random_pevp(n=3, nbw=2, energy=0.15, seed=7)
        lams, us = shift_invert_modes(pevp, num_shifts=8, keep_radius=2.5,
                                      shift_radii=(1.05, 2.0, 0.5), seed=2)
        lams_d, _ = pevp.solve_dense()
        assert_spectra_match(lams, lams_d[in_annulus(lams_d, 2.5)],
                             atol=1e-6)

    def test_invalid_shifts(self):
        _, pevp = chain_lead()
        with pytest.raises(ConfigurationError):
            shift_invert_modes(pevp, num_shifts=0)


class TestModeClassification:
    def test_chain_in_band(self):
        lead, pevp = chain_lead(energy=0.3)
        lams, us = pevp.solve_dense()
        modes = classify_modes(pevp, lams, us)
        assert modes.num_modes == 2
        assert modes.num_propagating_right == 1
        assert modes.num_propagating_left == 1

    def test_chain_velocity_analytic(self):
        """v = dE/dk = -2 t sin(k) for the single-orbital chain."""
        energy = 0.3
        lead, pevp = chain_lead(energy=energy)
        t = lead.h01[0, 0]
        lams, us = pevp.solve_dense()
        modes = classify_modes(pevp, lams, us)
        k = np.arccos(energy / (2 * t))
        v_expect = abs(-2 * t * np.sin(k))
        # unit-norm u and S = I: the un-normalised flux is dE/dk itself
        v = mode_flux(modes.lambdas, modes.vectors, pevp.coeffs[2:])
        assert np.array_equal(v, modes.velocities)
        assert np.abs(np.abs(v) - v_expect).max() < 1e-8

    def test_chain_out_of_band(self):
        lead, pevp = chain_lead(energy=5.0)
        lams, us = pevp.solve_dense()
        modes = classify_modes(pevp, lams, us)
        assert modes.num_propagating_right == 0
        assert modes.num_propagating_left == 0
        # one decays right, one left
        assert np.count_nonzero(modes.right_going) == 1

    def test_fold_modes_consistency(self):
        """Folded modes must solve the folded (supercell) NN polynomial."""
        dev = build_device(linear_chain(8, 0.25),
                           single_s_basis(cutoff=0.51), num_cells=8)
        lead = dev.lead
        assert lead.nbw == 2
        pevp = PolynomialEVP(lead.h_cells, lead.s_cells, 0.2)
        lams, us = pevp.solve_dense()
        modes = classify_modes(pevp, lams, us)
        folded = fold_modes(modes, lead.nbw)
        pevp_f = PolynomialEVP([lead.h00, lead.h01],
                               [lead.s00, lead.s01], 0.2)
        for i in range(folded.num_modes):
            res = pevp_f.residual(folded.lambdas[i], folded.vectors[:, i])
            assert res < 1e-8, f"folded mode {i}: residual {res}"


class TestDecimation:
    def test_chain_surface_gf_analytic(self):
        """Sigma_L = t e^{ika} for the textbook chain."""
        energy = 0.3
        dev = build_device(linear_chain(8, 0.25), single_s_basis(),
                           num_cells=8)
        t = dev.lead.h01[0, 0]
        ob = boundary_from_decimation(dev.lead, energy, eta=1e-10)
        k = np.arccos(energy / (2 * t))
        # retarded: Im Sigma < 0
        expected = t * np.exp(1j * k)
        if expected.imag > 0:
            expected = np.conj(expected)
        np.testing.assert_allclose(ob.sigma_l[0, 0], expected, atol=1e-6)
        np.testing.assert_allclose(ob.sigma_r[0, 0], expected, atol=1e-6)

    def test_surface_gf_fixed_point(self):
        """g_L must satisfy g = (t00 - t01^H g t01)^{-1}."""
        wire = silicon_nanowire(1.0, 4)
        dev = build_device(wire, tight_binding_set(), num_cells=4)
        e = -4.0
        t00 = e * dev.lead.s00 - dev.lead.h00 + 1e-9j * np.eye(
            dev.lead.folded_size)
        t01 = e * dev.lead.s01 - dev.lead.h01
        gl, gr, iterations = sancho_rubio(e * dev.lead.s00 - dev.lead.h00,
                                          t01, eta=1e-9)
        assert iterations >= 1
        lhs = np.linalg.inv(gl)
        rhs = t00 - t01.conj().T @ gl @ t01
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)
        lhs_r = np.linalg.inv(gr)
        rhs_r = t00 - t01 @ gr @ t01.conj().T
        np.testing.assert_allclose(lhs_r, rhs_r, atol=1e-6)

    def test_registry_entry_reports_iterations_and_predicted_bytes(self):
        """Regression: the per-energy decimation adapter returned an
        empty ``info`` where its batch twin reported both."""
        lead = build_device(silicon_nanowire(0.7, 4), tight_binding_set(),
                            num_cells=4).lead
        with ledger_scope() as led:
            ob = compute_open_boundary(lead, -4.0, method="decimation")
        assert ob.info["iterations"] >= 1
        assert ob.info["predicted_bytes"] == led.total_bytes > 0

    def test_registry_entry_forwards_max_iter(self):
        """Regression: ``max_iter`` was a ``TypeError`` on the per-energy
        adapter and a ``ConvergenceError`` on its batch twin."""
        lead = build_device(linear_chain(8, 0.25), single_s_basis(),
                            num_cells=8).lead
        with pytest.raises(ConvergenceError):
            compute_open_boundary(lead, 0.3, method="decimation",
                                  max_iter=2)


class TestSelfEnergyCrossValidation:
    """Sigma from modes must agree with Sancho-Rubio decimation."""

    @pytest.mark.parametrize("energy", [0.3, -0.8, 1.1])
    def test_chain_exact(self, energy):
        dev = build_device(linear_chain(8, 0.25), single_s_basis(),
                           num_cells=8)
        ob_m = compute_open_boundary(dev.lead, energy, method="dense")
        ob_d = boundary_from_decimation(dev.lead, energy, eta=1e-10)
        np.testing.assert_allclose(ob_m.sigma_l, ob_d.sigma_l, atol=1e-5)
        np.testing.assert_allclose(ob_m.sigma_r, ob_d.sigma_r, atol=1e-5)

    def test_silicon_nanowire(self):
        wire = silicon_nanowire(1.0, 4)
        dev = build_device(wire, tight_binding_set(), num_cells=4)
        e = -4.0  # inside a band of the wire
        ob_m = compute_open_boundary(dev.lead, e, method="dense")
        ob_d = boundary_from_decimation(dev.lead, e, eta=1e-8)
        scale = max(np.abs(ob_d.sigma_l).max(), 1e-12)
        err = np.abs(ob_m.sigma_l - ob_d.sigma_l).max() / scale
        assert err < 1e-4, f"relative Sigma_L mismatch {err}"

    def test_feast_sigma_exact_on_outgoing_subspace(self):
        """The annulus truncation drops fast-decaying modes, so Sigma from
        FEAST only agrees with the exact (decimation) Sigma *as an operator
        on the outgoing-mode subspace* — which is precisely where Sigma
        acts in the QTBM solve (the reflected/transmitted wave is a
        combination of outgoing modes).  This is the formal content of the
        paper's 'the contribution from fast decaying modes is negligible'."""
        wire = silicon_nanowire(1.0, 4)
        dev = build_device(wire, tight_binding_set(), num_cells=4)
        e = -4.0
        ob_d = boundary_from_decimation(dev.lead, e, eta=1e-8)
        scale = np.abs(ob_d.sigma_l).max()
        ob = compute_open_boundary(dev.lead, e, method="feast",
                                   r_outer=3.0, num_points=12, seed=8)
        m = ob.modes
        phi_l = m.vectors[:, ~m.right_going]
        phi_r = m.vectors[:, m.right_going]
        err_l = np.abs((ob.sigma_l - ob_d.sigma_l) @ phi_l).max() / scale
        err_r = np.abs((ob.sigma_r - ob_d.sigma_r) @ phi_r).max() / scale
        assert err_l < 1e-6, f"Sigma_L wrong on outgoing subspace: {err_l}"
        assert err_r < 1e-6, f"Sigma_R wrong on outgoing subspace: {err_r}"

    def test_injection_matrix_structure(self):
        dev = build_device(linear_chain(8, 0.25), single_s_basis(),
                           num_cells=8)
        ob = compute_open_boundary(dev.lead, 0.3, method="dense")
        inj = ob.injection_matrix(dev.num_blocks, dev.block_sizes)
        assert inj.shape == (8, 2)  # one mode in from each side
        assert ob.num_left_injected == 1
        assert ob.num_right_injected == 1
        # non-zeros confined to first and last block rows
        assert np.all(inj[1:7, :] == 0)

    def test_unknown_method(self):
        dev = build_device(linear_chain(8, 0.25), single_s_basis(),
                           num_cells=8)
        with pytest.raises(ConfigurationError):
            compute_open_boundary(dev.lead, 0.3, method="magic")
