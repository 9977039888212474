"""Cross-package integration tests: the full Fig. 2 workflow and
edge/failure-injection cases the unit tests don't reach."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.basis import tight_binding_set
from repro.hamiltonian import build_device
from repro.linalg import BlockTridiagonalMatrix
from repro.negf import qtbm_energy_point
from repro.obc import PolynomialEVP, compute_open_boundary, feast_annulus
from repro.poisson import PoissonGrid, double_gate_mask, schroedinger_poisson
from repro.solvers import SplitSolve, assemble_t, solve_rgf
from repro.structure import linear_chain, silicon_nanowire
from repro.utils.errors import ConvergenceError, SingularMatrixError
from tests.test_hamiltonian import single_s_basis
from tests.test_solvers import make_system


class TestGatedSCF:
    """The complete Fig. 2 loop: gate bias -> Poisson -> transport."""

    def test_gate_bias_shifts_channel_potential(self):
        chain = linear_chain(10, 0.25)
        grid = PoissonGrid.for_structure(chain, spacing=0.25, padding=0.4)
        gate = double_gate_mask(grid, 0.35, 0.65)
        assert gate.any()
        res_neg = schroedinger_poisson(
            chain, single_s_basis(), 10, mu_l=-0.8, mu_r=-0.8,
            e_window=(-1.8, -0.3), grid=grid, gate_mask=gate,
            gate_voltage=-0.5, mixing=0.3, max_iter=12, tol=5e-3,
            density_scale=0.02)
        res_pos = schroedinger_poisson(
            chain, single_s_basis(), 10, mu_l=-0.8, mu_r=-0.8,
            e_window=(-1.8, -0.3), grid=grid, gate_mask=gate,
            gate_voltage=+0.5, mixing=0.3, max_iter=12, tol=5e-3,
            density_scale=0.02)
        # negative gate volts raise the electron potential energy in the
        # channel relative to positive gate volts
        mid = slice(4, 6)
        assert (res_neg.potential_atom[mid].mean()
                > res_pos.potential_atom[mid].mean())

    def test_scf_then_transport(self):
        """Run transport on the self-consistent potential."""
        chain = linear_chain(8, 0.25)
        res = schroedinger_poisson(
            chain, single_s_basis(), 8, mu_l=-0.6, mu_r=-0.6,
            e_window=(-1.8, -0.2), mixing=0.3, max_iter=10, tol=5e-3,
            density_scale=0.02)
        dev = build_device(chain, single_s_basis(), 8)
        dev_sc = dev.with_potential(res.potential_atom)
        out = qtbm_energy_point(dev_sc, -0.8, obc_method="dense",
                                solver="rgf")
        assert out.conserved < 1e-8


class TestFailureInjection:
    def test_singular_device_block_raises_cleanly(self):
        """A zero diagonal block must surface as SingularMatrixError,
        never silently as NaNs - from the LU and the LDL^H driver."""
        a = BlockTridiagonalMatrix(
            [np.zeros((2, 2)), np.eye(2)],
            [np.zeros((2, 2))], [np.zeros((2, 2))])
        for hermitian in (False, True):
            ss = SplitSolve(a, 1, parallel=False, hermitian=hermitian)
            with pytest.raises(SingularMatrixError):
                ss.solve(np.zeros((2, 2), complex),
                         np.zeros((2, 2), complex),
                         np.ones((2, 1), complex),
                         np.zeros((2, 0), complex))

    def test_feast_energy_in_gap_returns_decaying_only(self):
        """Inside the band gap there are no propagating modes; FEAST must
        return a consistent (possibly small) decaying set, not fail."""
        wire = silicon_nanowire(1.0, 3)
        lead = build_device(wire, tight_binding_set(), num_cells=3).lead
        # -2 eV sits inside the surrogate's gap (roughly [-3.5, -1.3])
        ob = compute_open_boundary(lead, -2.0, method="feast",
                                   r_outer=3.0, num_points=12, seed=9)
        assert ob.num_left_injected == 0
        assert ob.num_right_injected == 0
        inj = ob.injection_matrix(3, [lead.folded_size] * 3)
        assert inj.shape[1] == 0

    def test_transport_in_gap_is_zero(self):
        wire = silicon_nanowire(1.0, 3)
        dev = build_device(wire, tight_binding_set(), num_cells=3)
        res = qtbm_energy_point(dev, -2.0, obc_method="dense",
                                solver="rgf")
        assert res.transmission_lr == 0.0
        assert res.psi.shape[1] == 0

    def test_feast_contour_touching_eigenvalue(self):
        """An eigenvalue exactly ON the contour radius is pathological;
        nudging R resolves it — verify a nudged contour works where the
        pathological one may misbehave."""
        dev = build_device(linear_chain(8, 0.25), single_s_basis(),
                           num_cells=8)
        pevp = PolynomialEVP(dev.lead.h_cells, dev.lead.s_cells, 5.0)
        lams, _ = pevp.solve_dense()
        r_bad = float(np.abs(lams).max())  # eigenvalue on the circle
        res = feast_annulus(pevp, r_outer=r_bad * 1.05, num_points=16,
                            seed=1)
        assert res.num_modes == 2

    def test_rgf_rejects_wrong_rhs(self):
        a, sl, sr, bt, bb = make_system(nb=4)
        t = assemble_t(a, sl, sr)
        from repro.utils.errors import ShapeError

        with pytest.raises(ShapeError):
            solve_rgf(t, np.ones((5, 1)))


class TestWorkflowEquivalences:
    """Hypothesis sweeps across the assembly/folding pipeline."""

    @settings(max_examples=10, deadline=None)
    @given(ncells=st.sampled_from([6, 8, 12]), seed=st.integers(0, 20))
    def test_folded_device_transmission_independent_of_cells(self, ncells,
                                                             seed):
        """A pristine chain's T(E) must not depend on device length."""
        rng = np.random.default_rng(seed)
        e = float(rng.uniform(-1.0, 1.0))
        dev = build_device(linear_chain(ncells, 0.25), single_s_basis(),
                           num_cells=ncells)
        t_edge = abs(dev.lead.h01[0, 0])
        if abs(e) > 1.9 * t_edge:
            return  # outside the band
        res = qtbm_energy_point(dev, e, obc_method="dense", solver="rgf")
        assert res.transmission_lr == pytest.approx(1.0, abs=1e-7)

    @settings(max_examples=10, deadline=None)
    @given(nb=st.integers(4, 10), seed=st.integers(0, 30))
    def test_smw_identity_random(self, nb, seed):
        """(A - BC)^{-1} b via SplitSolve == dense inverse, any nb."""
        a, sl, sr, bt, bb = make_system(nb=nb, bs=2, seed=seed)
        x = SplitSolve(a, 1, parallel=False).solve(sl, sr, bt, bb)
        t = assemble_t(a, sl, sr)
        from repro.solvers import boundary_rhs

        rhs = boundary_rhs(a.block_sizes, bt, bb)
        x_ref = np.linalg.solve(t.to_dense(), rhs)
        np.testing.assert_allclose(x, x_ref, atol=1e-7)
