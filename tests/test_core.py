"""Tests for the transport driver: energy grids, spectra, I-V."""

import numpy as np
import pytest

from repro.basis import tight_binding_set
from repro.constants import LANDAUER_2E_OVER_H
from repro.core import (
    adaptive_energy_grid,
    band_edges,
    compute_spectrum,
    gate_potential_profile,
    gate_sweep,
    landauer_current,
    lead_band_structure,
    subthreshold_swing,
)
from repro.hamiltonian import build_device
from repro.structure import linear_chain, silicon_utb_film
from repro.utils.errors import ConfigurationError
from tests.test_hamiltonian import single_s_basis


@pytest.fixture(scope="module")
def chain():
    return linear_chain(10, 0.25)


@pytest.fixture(scope="module")
def chain_lead(chain):
    return build_device(chain, single_s_basis(), num_cells=10).lead


class TestEnergyGrid:
    def test_chain_band_structure(self, chain_lead):
        ks, bands = lead_band_structure(chain_lead, 21)
        t = chain_lead.h01[0, 0]
        np.testing.assert_allclose(bands[:, 0], 2 * t * np.cos(ks),
                                   atol=1e-12)

    def test_band_edges_chain(self, chain_lead):
        _, bands = lead_band_structure(chain_lead, 51)
        edges = band_edges(bands)
        t = abs(chain_lead.h01[0, 0])
        np.testing.assert_allclose(sorted(edges), [-2 * t, 2 * t],
                                   atol=1e-10)

    def test_adaptive_grid_denser_near_edges(self, chain_lead):
        t = abs(chain_lead.h01[0, 0])
        grid = adaptive_energy_grid(chain_lead, -2.5 * t, 0.0,
                                    min_spacing=0.002, max_spacing=0.05)
        # spacing right at the band edge (-2t) vs far away
        edge = -2 * t
        d_edge = np.diff(grid)[np.argmin(np.abs(grid[:-1] - edge))]
        mid = -2.5 * t + 0.3 * t
        d_far = np.diff(grid)[np.argmin(np.abs(grid[:-1] - mid))]
        assert d_edge < d_far

    def test_band_scan_memoised_on_the_lead(self, chain, monkeypatch):
        """Two grids on one lead run one scan (one eigensolve per k); the
        memo is read-only, and a pickled or hashed lead carries none."""
        import pickle
        from types import SimpleNamespace

        import repro.core.energygrid as grid_mod
        from repro.cache.keys import lead_content_hash

        lead = build_device(chain, single_s_basis(), num_cells=10).lead
        before = lead_content_hash(lead)
        eigensolves = []
        real_sla = grid_mod.sla
        monkeypatch.setattr(grid_mod, "sla", SimpleNamespace(
            eigvalsh=lambda *a, **kw: eigensolves.append(1)
            or real_sla.eigvalsh(*a, **kw)))
        first = adaptive_energy_grid(lead, -0.9, -0.2, num_k_scan=9)
        second = adaptive_energy_grid(lead, -0.8, 0.1, num_k_scan=9)
        assert len(eigensolves) == 9
        ks, bands = lead_band_structure(lead, 9)
        assert len(eigensolves) == 9
        for arr in (ks, bands):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        monkeypatch.setattr(grid_mod, "sla", real_sla)
        fresh = build_device(chain, single_s_basis(), num_cells=10).lead
        for got, window in ((first, (-0.9, -0.2)), (second, (-0.8, 0.1))):
            want = adaptive_energy_grid(fresh, *window, num_k_scan=9)
            assert got.tobytes() == want.tobytes()
        assert lead_content_hash(lead) == before
        clone = pickle.loads(pickle.dumps(lead))
        assert "band_scans" not in vars(clone)
        assert lead_content_hash(clone) == before
        assert lead_band_structure(clone, 9)[1].tobytes() == bands.tobytes()

    def test_grid_count_is_an_output(self, chain_lead):
        """Different windows give different, not-preset point counts —
        the property behind Table II's 12.9-14.1 E/node variation."""
        g1 = adaptive_energy_grid(chain_lead, -1.0, 0.0)
        g2 = adaptive_energy_grid(chain_lead, -1.0, 0.3)
        assert len(g1) != len(g2)
        assert g1[0] == -1.0 and g1[-1] == 0.0

    def test_grid_validation(self, chain_lead):
        with pytest.raises(ConfigurationError):
            adaptive_energy_grid(chain_lead, 1.0, 0.0)
        with pytest.raises(ConfigurationError):
            adaptive_energy_grid(chain_lead, 0.0, 1.0, min_spacing=0.1,
                                 max_spacing=0.01)


class TestSpectrum:
    def test_chain_spectrum_staircase(self, chain):
        spec = compute_spectrum(chain, single_s_basis(), 10,
                                energies=[0.0, 0.3, 5.0],
                                obc_method="dense", solver="rgf")
        np.testing.assert_allclose(spec.transmission[0, :2], 1.0, atol=1e-8)
        assert spec.transmission[0, 2] == 0.0
        np.testing.assert_array_equal(spec.mode_counts[0], [1, 1, 0])

    def test_k_integration_utb(self):
        """A z-periodic film must produce k-dependent transmission that
        averages with the Monkhorst-Pack weights."""
        film = silicon_utb_film(0.8, 3)
        spec = compute_spectrum(film, tight_binding_set(), 3,
                                energies=[-4.0], num_k=3,
                                obc_method="dense", solver="rgf")
        assert spec.transmission.shape[0] == len(spec.kpoints)
        tavg = spec.k_averaged_transmission()
        assert tavg.shape == (1,)
        assert tavg[0] >= 0
        assert spec.kpoints[:, 1].sum() == pytest.approx(1.0)

    def test_task_runner_hook(self, chain):
        calls = []

        def runner(tasks):
            calls.append(len(tasks))
            return [t() for t in tasks]

        spec = compute_spectrum(chain, single_s_basis(), 10,
                                energies=[0.1, 0.2], obc_method="dense",
                                solver="rgf", task_runner=runner)
        assert calls == [2]
        assert spec.transmission.shape == (1, 2)

    def test_empty_energies_rejected(self, chain):
        with pytest.raises(ConfigurationError):
            compute_spectrum(chain, single_s_basis(), 10, energies=[])


class TestLandauer:
    def test_zero_bias_zero_current(self):
        e = np.linspace(-1, 1, 21)
        t = np.ones_like(e)
        assert landauer_current(e, t, 0.2, 0.2) == 0.0

    def test_known_value_zero_temperature(self):
        """T=1 over the bias window: I = (2e/h) * e * V (the quantum of
        conductance times V)."""
        e = np.linspace(-0.5, 0.5, 2001)
        t = np.ones_like(e)
        v = 0.2
        i = landauer_current(e, t, v / 2, -v / 2, temperature_k=0.0)
        expect = LANDAUER_2E_OVER_H * v
        # trapezoid rule on the sharp zero-T window edges is accurate to
        # one grid cell (0.0005 eV) out of the 0.2 eV window
        assert i == pytest.approx(expect, rel=4e-3)

    def test_sign_reverses_with_bias(self):
        e = np.linspace(-0.5, 0.5, 101)
        t = np.ones_like(e)
        i_fwd = landauer_current(e, t, 0.1, -0.1)
        i_rev = landauer_current(e, t, -0.1, 0.1)
        assert i_fwd > 0
        assert i_rev == pytest.approx(-i_fwd)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            landauer_current(np.ones(3), np.ones(4), 0.1, 0.0)

    def test_one_energy_is_not_a_current(self):
        """One energy spans no interval: ``2e^2/h T f`` there would be a
        conductance labelled as amperes, so it is refused."""
        for n in (0, 1):
            with pytest.raises(ConfigurationError, match="two energies"):
                landauer_current(np.zeros(n), np.ones(n), 0.1, -0.1)


class TestGateSweep:
    def test_potential_profile_flat_in_contacts(self, chain):
        pot = gate_potential_profile(chain, vgs=0.0, v_builtin=0.5)
        x = chain.positions[:, 0]
        lx = chain.cell[0, 0]
        contacts = (x < 0.08 * lx) | (x > 0.95 * lx)
        np.testing.assert_allclose(pot[contacts], 0.0, atol=2e-2)
        assert pot.max() == pytest.approx(0.5, abs=0.02)

    def test_gate_lowers_barrier(self, chain):
        p0 = gate_potential_profile(chain, vgs=0.0, v_builtin=0.5)
        p1 = gate_potential_profile(chain, vgs=0.3, v_builtin=0.5,
                                    gate_coupling=1.0)
        assert p1.max() < p0.max()

    def test_transfer_characteristic_monotonic(self):
        """Id must rise with Vgs (the defining property of Fig. 1d)."""
        chain = linear_chain(12, 0.25)
        dev_lead = build_device(chain, single_s_basis(),
                                num_cells=12).lead
        t = abs(dev_lead.h01[0, 0])
        energies = np.linspace(-2 * t + 0.01, 0.5, 40)
        pts = gate_sweep(chain, single_s_basis(), 12,
                         vgs_values=[0.0, 0.2, 0.4], energies=energies,
                         vds=0.2, mu_source=-2 * t + 0.25,
                         v_builtin=0.6, gate_coupling=1.0)
        currents = [p.current for p in pts]
        assert currents[0] < currents[1] < currents[2]
        assert all(c > 0 for c in currents)

    def test_subthreshold_swing_bounded(self):
        """Ballistic thermionic transport cannot beat ~60 mV/dec."""
        chain = linear_chain(14, 0.25)
        dev_lead = build_device(chain, single_s_basis(),
                                num_cells=14).lead
        t = abs(dev_lead.h01[0, 0])
        energies = np.linspace(-2 * t + 0.01, 0.4, 60)
        pts = gate_sweep(chain, single_s_basis(), 14,
                         vgs_values=np.linspace(0.0, 0.25, 6),
                         energies=energies, vds=0.2,
                         mu_source=-2 * t + 0.2, v_builtin=0.7,
                         gate_coupling=1.0)
        ss = subthreshold_swing(pts)
        assert ss > 55.0, f"unphysical subthreshold swing {ss} mV/dec"
        assert ss < 500.0  # and the device does turn on

    def test_sweep_solves_each_boundary_once(self):
        """The gate moves the channel only: one device family serves the
        sweep, so each lead boundary is solved once per energy, not once
        per (Vgs, E), and every current is bitwise a standalone one."""
        from repro.observability.spans import SpanTracer, tracing

        chain, basis = linear_chain(12, 0.25), single_s_basis()
        t = abs(build_device(chain, basis, num_cells=12).lead.h01[0, 0])
        energies = np.linspace(-2 * t + 0.01, 0.5, 8)
        gate = dict(v_builtin=0.6, gate_coupling=1.0)
        mu_source, vds = -2 * t + 0.25, 0.2
        tracer = SpanTracer()
        with tracing(tracer):
            pts = gate_sweep(chain, basis, 12, vgs_values=[0.0, 0.2, 0.4],
                             energies=energies, vds=vds,
                             mu_source=mu_source, **gate)
        obc = [sp for sp in tracer.records()
               if sp.category == "stage" and sp.name == "OBC"]
        assert len(obc) == 3 * len(energies)
        misses = tracer.metrics.counter("obc_point_cache_misses").value
        assert misses == len(energies)
        for p in pts:
            alone = compute_spectrum(
                chain, basis, 12, energies, obc_method="dense",
                solver="rgf", potential=gate_potential_profile(
                    chain, vgs=p.vgs, **gate))
            assert p.current.hex() \
                == alone.current(mu_source, mu_source - vds).hex()
