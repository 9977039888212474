"""Transport-physics tests: the analytic anchors of the whole pipeline."""

import numpy as np
import pytest

from repro.basis import tight_binding_set
from repro.hamiltonian import build_device
from repro.negf import (
    atom_density,
    bond_current_profile,
    negf_transmission,
    orbital_density,
    qtbm_energy_point,
    spectral_current_map,
)
from repro.negf.density import fermi
from repro.structure import linear_chain, silicon_nanowire
from repro.utils.errors import ConfigurationError
from tests.helpers import check_transmission_truth
from tests.test_hamiltonian import single_s_basis


def chain_device(n=10, cutoff=0.27):
    return build_device(linear_chain(n, 0.25), single_s_basis(cutoff),
                        num_cells=n)


class TestPerfectChain:
    def test_unit_transmission_in_band(self):
        dev = chain_device()
        t = dev.lead.h01[0, 0]
        for e in np.linspace(-1.8 * abs(t), 1.8 * abs(t), 7):
            res = qtbm_energy_point(dev, e, obc_method="dense",
                                    solver="rgf")
            assert res.num_prop_left == 1
            assert res.transmission_lr == pytest.approx(1.0, abs=1e-8)
            assert res.transmission_rl == pytest.approx(1.0, abs=1e-8)
            assert res.reflection_l == pytest.approx(0.0, abs=1e-8)

    def test_zero_transmission_outside_band(self):
        dev = chain_device()
        res = qtbm_energy_point(dev, 5.0, obc_method="dense", solver="rgf")
        assert res.num_prop_left == 0
        assert res.transmission_lr == 0.0

    def test_current_conservation(self):
        dev = chain_device()
        res = qtbm_energy_point(dev, 0.5, obc_method="dense", solver="rgf")
        assert res.conserved < 1e-8


class TestBarrier:
    def test_single_site_barrier_analytic(self):
        """T = 1 / (1 + (V0 / (2 t sin k))^2) for one perturbed site."""
        n = 11
        dev = chain_device(n)
        t = dev.lead.h01[0, 0]
        v0 = 0.8
        v = np.zeros(n)
        v[n // 2] = v0
        dev_b = dev.with_potential(v)
        for e in (0.3, -0.5, 1.0):
            k = np.arccos(e / (2 * t))
            expect = 1.0 / (1.0 + (v0 / (2 * t * np.sin(k))) ** 2)
            res = qtbm_energy_point(dev_b, e, obc_method="dense",
                                    solver="rgf")
            assert res.transmission_lr == pytest.approx(expect, abs=1e-8)
            # conservation still holds with scattering
            assert res.conserved < 1e-8

    def test_reciprocity(self):
        """T_LR = T_RL even for an asymmetric barrier."""
        n = 12
        dev = chain_device(n)
        v = np.zeros(n)
        v[4] = 0.6
        v[5] = 0.2
        dev_b = dev.with_potential(v)
        res = qtbm_energy_point(dev_b, 0.4, obc_method="dense", solver="rgf")
        assert res.transmission_lr == pytest.approx(res.transmission_rl,
                                                    abs=1e-8)

    def test_qtbm_matches_negf_caroli(self):
        n = 12
        dev = chain_device(n)
        v = np.zeros(n)
        v[5] = 0.7
        dev_b = dev.with_potential(v)
        for e in (0.3, 0.9):
            t_qtbm = qtbm_energy_point(dev_b, e, obc_method="dense",
                                       solver="rgf").transmission_lr
            t_negf = negf_transmission(dev_b, e, eta=1e-9)
            assert t_qtbm == pytest.approx(t_negf, abs=1e-5)


class TestSolverConsistencyOnTransport:
    @pytest.mark.parametrize("solver,parts", [
        ("rgf", 1), ("bcr", 1), ("direct", 1),
        ("splitsolve", 1), ("splitsolve", 2), ("splitsolve", 4),
    ])
    def test_same_transmission(self, solver, parts):
        n = 8
        dev = chain_device(n)
        v = np.zeros(n)
        v[3] = 0.5
        dev_b = dev.with_potential(v)
        res = qtbm_energy_point(dev_b, 0.4, obc_method="dense",
                                solver=solver, num_partitions=parts)
        ref = qtbm_energy_point(dev_b, 0.4, obc_method="dense",
                                solver="rgf")
        assert res.transmission_lr == pytest.approx(ref.transmission_lr,
                                                    abs=1e-9)

    def test_unknown_solver(self):
        dev = chain_device(6)
        with pytest.raises(ConfigurationError):
            qtbm_energy_point(dev, 0.3, obc_method="dense", solver="magic")

    def test_decimation_rejected_for_qtbm(self):
        dev = chain_device(6)
        with pytest.raises(ConfigurationError):
            qtbm_energy_point(dev, 0.3, obc_method="decimation")


class TestNanowireStaircase:
    """For a pristine wire T(E) must equal the integer mode count."""

    @pytest.fixture(scope="class")
    def wire_device(self):
        wire = silicon_nanowire(1.0, 4)
        return build_device(wire, tight_binding_set(), num_cells=4)

    @pytest.mark.parametrize("energy", [-4.5, -4.0, -3.0, 5.0])
    def test_integer_transmission(self, wire_device, energy):
        check_transmission_truth(wire_device, [energy], methods=("dense",))

    def test_feast_obc_gives_same_staircase(self, wire_device):
        e = -4.0
        ref = qtbm_energy_point(wire_device, e, obc_method="dense",
                                solver="rgf")
        res = qtbm_energy_point(wire_device, e, obc_method="feast",
                                solver="rgf",
                                obc_kwargs=dict(r_outer=3.0, num_points=12,
                                                seed=3))
        assert res.num_prop_left == ref.num_prop_left
        assert res.transmission_lr == pytest.approx(ref.transmission_lr,
                                                    abs=1e-6)

    def test_splitsolve_on_nanowire(self, wire_device):
        e = -4.0
        ref = qtbm_energy_point(wire_device, e, obc_method="dense",
                                solver="rgf")
        res = qtbm_energy_point(wire_device, e, obc_method="dense",
                                solver="splitsolve", num_partitions=2)
        assert res.transmission_lr == pytest.approx(ref.transmission_lr,
                                                    abs=1e-8)


class TestFiniteMomentum:
    """Transport at k != 0: complex Hermitian H(k), Eq. (5)'s 2-D case."""

    @pytest.mark.parametrize("kz", [0.2, 0.4])
    def test_pristine_film_staircase_at_finite_k(self, kz):
        """A pristine z-periodic film must show the integer mode-count
        staircase at every transverse momentum.  Regression test: an
        overlap-assembly bug once produced S(k) = (1 + 2 cos k) * 1 for
        orthogonal bases, scaling all T by the golden ratio at k=0.2."""
        from repro.basis import tight_binding_set
        from repro.structure import silicon_utb_film

        film = silicon_utb_film(0.8, 4)
        dev = build_device(film, tight_binding_set(), 4,
                           kpoint=(0.0, kz))
        for (res,) in check_transmission_truth(dev, (-3.2, -2.9),
                                               methods=("dense",)):
            assert res.conserved < 1e-10

    def test_orthogonal_basis_images_have_zero_overlap(self):
        from repro.basis import tight_binding_set
        from repro.hamiltonian import build_matrices
        from repro.structure import silicon_utb_film

        film = silicon_utb_film(0.8, 2)
        rsm = build_matrices(film, tight_binding_set())
        _, s_home = rsm.images[(0, 0)]
        _, s_img = rsm.images[(0, 1)]
        assert abs(s_home - __import__("scipy.sparse", fromlist=["eye"])
                   .identity(rsm.norb)).max() == 0
        assert s_img.nnz == 0


class TestDensityAndCurrent:
    def test_fermi_limits(self):
        assert fermi(0.0, 0.5, 300.0) > 0.99
        assert fermi(1.0, 0.5, 300.0) < 0.01
        assert fermi(0.5, 0.5, 300.0) == pytest.approx(0.5)
        # zero temperature step
        assert fermi(0.4999, 0.5, 0.0) == 1.0
        assert fermi(0.5001, 0.5, 0.0) == 0.0

    def test_density_positive_and_shaped(self):
        dev = chain_device(8)
        res = qtbm_energy_point(dev, 0.3, obc_method="dense", solver="rgf")
        dens = orbital_density(res, dev.smat, mu_l=1.0, mu_r=1.0)
        assert dens.shape == (8,)
        assert np.all(dens >= 0)

    def test_atom_density_sums_orbitals(self):
        offs = np.array([0, 2, 4])
        d = atom_density(np.array([1.0, 2.0, 3.0, 4.0]), offs)
        np.testing.assert_allclose(d, [3.0, 7.0])

    def test_equilibrium_density_symmetric(self):
        dev = chain_device(8)
        res = qtbm_energy_point(dev, 0.3, obc_method="dense", solver="rgf")
        dens = orbital_density(res, dev.smat, mu_l=0.8, mu_r=0.8)
        np.testing.assert_allclose(dens, dens[::-1], atol=1e-10)

    def test_current_profile_flat(self):
        """Ballistic current conservation: same current at every cut."""
        n = 10
        dev = chain_device(n)
        v = np.zeros(n)
        v[5] = 0.4
        dev_b = dev.with_potential(v)
        res = qtbm_energy_point(dev_b, 0.5, obc_method="dense", solver="rgf")
        prof = bond_current_profile(res, dev_b)
        assert prof.shape == (n - 1,)
        np.testing.assert_allclose(prof, prof[0], atol=1e-10)

    def test_current_matches_transmission(self):
        """Interface current of the left-injected state, velocity-
        normalized, equals T(E)."""
        dev = chain_device(8)
        res = qtbm_energy_point(dev, 0.5, obc_method="dense", solver="rgf")
        prof = bond_current_profile(res, dev)
        assert prof[0] == pytest.approx(res.transmission_lr, abs=1e-8)

    def test_spectral_map_shape_and_sign(self):
        dev = chain_device(8)
        results = [qtbm_energy_point(dev, e, obc_method="dense",
                                     solver="rgf")
                   for e in (0.2, 0.5)]
        m = spectral_current_map(results, dev, mu_l=1.0, mu_r=-1.0,
                                 temperature_k=300.0)
        assert m.shape == (2, 7)
        assert np.all(m > 0)  # forward bias drives left-to-right current

    def test_zero_bias_zero_net_current(self):
        dev = chain_device(8)
        res = qtbm_energy_point(dev, 0.5, obc_method="dense", solver="rgf")
        m = spectral_current_map([res], dev, mu_l=0.5, mu_r=0.5)
        np.testing.assert_allclose(m, 0.0, atol=1e-10)
