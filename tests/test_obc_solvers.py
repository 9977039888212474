"""Tests for FEAST, shift-and-invert, decimation, and self-energies."""

import numpy as np
import pytest

from repro.hamiltonian import build_device
from repro.linalg import ledger_scope
from repro.linalg.flops import kernel_cost
from repro.obc import (
    PolynomialEVP,
    PolynomialFamily,
    boundary_from_decimation,
    classify_modes,
    compute_open_boundary,
    feast_annulus,
    fold_modes,
    sancho_rubio,
    shift_invert_modes,
)
from repro.obc.modes import (DEGENERATE_TOL, LeadModes, flux_orthogonalize,
                             mode_flux)
from repro.obc import feast
from repro.obc.feast import START_WIDTH
from repro.structure import linear_chain, silicon_nanowire
from repro.basis import tight_binding_set
from repro.utils.errors import ConfigurationError, ConvergenceError
from tests.test_hamiltonian import single_s_basis
from tests.helpers import (assert_spectra_match, check_obc_agreement,
                           make_confined_lead, open_energies)
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


def _point_solves(pevp, num_points=8, r_outer=3.0):
    """(orbits, per-point solutions through the orbit factors, per-point
    dense solves (z B - A)^{-1} B y) on one random block."""
    zs, _ws = feast._contour(r_outer, num_points)
    orbits = feast._orbits(pevp, zs)
    factors = [(pevp.factor_reduced(z0), groups) for z0, groups in orbits]
    rng = np.random.default_rng(1)
    y = rng.standard_normal((pevp.size, 3)) \
        + 1j * rng.standard_normal((pevp.size, 3))
    a, b = pevp.pencil()
    got = [feast._contour_filter(pevp, factors, zs, one_hot, y, [])
           for one_hot in np.eye(len(zs))]
    want = [np.linalg.solve(z * b - a, b @ y) for z in zs]
    return orbits, got, want


class TestContourOrbits:
    """One factorization per symmetry orbit of the contour."""

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("nbw", [1, 2])
    @pytest.mark.parametrize("reduced", [True, False],
                             ids=["reduced", "full"])
    @pytest.mark.parametrize("num_points", [8, 7])
    def test_orbit_solves_are_the_direct_solves(self, nbw, cplx, reduced,
                                                num_points):
        lead = make_confined_lead(10, [7, 8, 9], [0, 1], nbw=nbw, seed=3,
                                  cplx=cplx)
        pevp = PolynomialFamily(lead.h_cells, lead.s_cells).at_energy(
            open_energies(lead, 1)[0])
        assert pevp.reduction is not None
        pevp = pevp if reduced else pevp.full
        assert pevp.palindromic and pevp.real_coefficients == (not cplx)
        orbits, got, want = _point_solves(pevp, num_points)
        # orbits {z, conj z, 1/conj z, 1/z} at k = 0 (and {-R, -1/R} for
        # an odd count), else {z, 1/conj z}
        assert len(orbits) == (num_points if cplx
                               else num_points // 2 + num_points % 2)
        for x, x_ref in zip(got, want):
            assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()

    def test_non_palindromic_coefficients_get_one_factor_per_point(self):
        rng = np.random.default_rng(2)
        coeffs = [rng.standard_normal((4, 4))
                  + 1j * rng.standard_normal((4, 4)) for _ in range(3)]
        pevp = PolynomialEVP._from_coeffs(coeffs, 0.0, 4, 1)
        assert not pevp.palindromic and not pevp.real_coefficients
        orbits, got, want = _point_solves(pevp)
        assert len(orbits) == 16
        for x, x_ref in zip(got, want):
            assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()
        res = feast_annulus(pevp, r_outer=3.0, num_points=8, seed=0)
        assert res.num_solves == 16

    def test_real_palindromic_lead_factors_once_per_orbit(self):
        lead = make_confined_lead(10, [7, 8, 9], [0, 1], seed=3)
        pevp = PolynomialFamily(lead.h_cells, lead.s_cells).at_energy(
            open_energies(lead, 1)[0])
        with ledger_scope() as led:
            res = feast_annulus(pevp, r_outer=3.0, num_points=8, seed=0)
        assert res.num_solves == 4
        assert led.flops_by_kernel["zgetrf"] \
            == 4 * kernel_cost("lu_factor", (pevp.n,))[0]


class TestSubspaceGrowth:
    """The first block grows to the filtered rank, and never silently
    stays below it."""

    def _lead(self):
        # dense coupling: 24 Bloch factors inside the annulus at this
        # energy, more than START_WIDTH columns can hold
        lead = make_confined_lead(24, None, None, seed=1)
        return lead, open_energies(lead, 3)[1]

    def test_grows_past_the_start_and_matches_dense(self):
        lead, energy = self._lead()
        pevp = PolynomialFamily(lead.h_cells, lead.s_cells).at_energy(energy)
        res = feast_annulus(pevp, r_outer=3.0, num_points=16, seed=0)
        assert res.num_modes > START_WIDTH
        assert res.subspace_size > START_WIDTH
        check_obc_agreement(lead, [energy])

    def test_saturated_start_without_auto_expand_raises(self):
        lead, energy = self._lead()
        pevp = PolynomialFamily(lead.h_cells, lead.s_cells).at_energy(energy)
        with pytest.raises(ConvergenceError, match="saturated"):
            feast_annulus(pevp, r_outer=3.0, num_points=16, seed=0,
                          auto_expand=False)
        # a start that already holds the filtered rank needs no growth
        res = feast_annulus(pevp, r_outer=3.0, num_points=16, seed=0,
                            subspace=pevp.size, auto_expand=False)
        assert res.subspace_size == pevp.size


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

    def test_flux_orthogonalize_clusters_a_chain(self):
        """Regression: a ~ b ~ c with a, c further apart than
        DEGENERATE_TOL was clustered as {a, b} and {c}, so the current
        between b and c stayed.  One cluster: the current matrix of the
        three comes out diagonal."""
        rng = np.random.default_rng(4)
        lams = np.exp(1j * (0.7 + 0.6 * DEGENERATE_TOL * np.arange(3)))
        assert abs(lams[1] - lams[0]) < DEGENERATE_TOL \
            < abs(lams[2] - lams[0])
        vectors = rng.standard_normal((5, 3)) \
            + 1j * rng.standard_normal((5, 3))
        coupling = rng.standard_normal((5, 5)) \
            + 1j * rng.standard_normal((5, 5))
        flux = mode_flux(lams, vectors, [coupling])
        modes = flux_orthogonalize(
            LeadModes(lams, vectors, flux, np.ones(3, dtype=bool), flux > 0),
            coupling)
        u = modes.vectors
        current = 1j * u.conj().T @ (lams[1] * coupling
                                     - np.conj(lams[1]) * coupling.conj().T) @ u
        off = current - np.diag(np.diag(current))
        assert np.abs(off).max() < 1e-5 * np.abs(current).max()
        np.testing.assert_allclose(np.diag(current).real, modes.velocities,
                                   rtol=1e-5)

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
