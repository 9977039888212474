"""Unit tests for the staged transport pipeline subsystem.

Covers the registry extension points (third-party solvers/OBC methods
without touching core modules), the DeviceCache reuse contract, stage
spans and their exact flop reconciliation with the ledger, and the
load balancer's consumption of measured per-k solve times.
"""

import numpy as np
import pytest

from repro.core.production import run_production
from repro.core.runner import TransportSpectrum, compute_spectrum
from repro.hamiltonian.device import synthetic_device_from_lead
from repro.linalg.flops import ledger_scope
from repro.negf.transmission import qtbm_energy_point
from repro.observability.spans import tracing
from repro.obc.polynomial import PolynomialEVP, PolynomialFamily
from repro.parallel import DynamicLoadBalancer, ThreadTaskRunner
from repro.perfmodel.costmodel import (choose_solver, kernel_flops,
                                       rgf_kernels)
from repro.pipeline import (
    OBC_METHODS,
    SOLVERS,
    STAGES,
    DeviceCache,
    Registry,
    TransportPipeline,
    register_obc_method,
    register_solver,
    resolve_solver_name,
)
from repro.runtime import ResilientTaskRunner
from repro.structure import linear_chain
from repro.utils.errors import ConfigurationError

from tests.test_hamiltonian import single_s_basis
from tests.helpers import stage_flops, stage_names, stage_span
from tests.test_experiments import __name__ as _  # noqa: F401 (import check)
from repro.experiments.fig6_phases import _test_lead


@pytest.fixture
def device():
    return synthetic_device_from_lead(_test_lead(6, seed=3), 8)


class TestRegistry:
    def test_unknown_name_lists_registered(self):
        reg = Registry("widget")
        reg.register("a")(lambda: None)
        with pytest.raises(ConfigurationError, match="unknown widget 'b'"):
            reg.get("b")
        with pytest.raises(ConfigurationError, match="a"):
            reg.get("b")

    def test_duplicate_registration_guarded(self):
        reg = Registry("widget")
        reg.register("a")(lambda: 1)
        with pytest.raises(ConfigurationError, match="already registered"):
            reg.register("a")(lambda: 2)
        reg.register("a", overwrite=True)(lambda: 2)
        assert reg.get("a")() == 2

    def test_builtins_registered(self):
        assert set(SOLVERS.names()) >= {"splitsolve", "rgf", "bcr",
                                        "direct"}
        assert set(OBC_METHODS.names()) >= {"feast", "shift_invert",
                                            "dense", "decimation"}

    def test_metadata(self):
        assert OBC_METHODS.meta("feast")["uses_pevp"] is True
        assert OBC_METHODS.meta("decimation")["uses_pevp"] is False

    def test_third_party_solver_without_editing_core(self, device):
        """A new solver plugs in through the decorator alone."""
        calls = []

        @register_solver("test-rgf-clone")
        def clone(a, ob, inj, *, num_partitions=1, info=None):
            calls.append(inj.shape[1])
            return SOLVERS.get("rgf")(a, ob, inj,
                                      num_partitions=num_partitions,
                                      info=info)

        try:
            res = qtbm_energy_point(device, 2.0, obc_method="dense",
                                    solver="test-rgf-clone")
            ref = qtbm_energy_point(device, 2.0, obc_method="dense",
                                    solver="rgf")
            assert calls, "registered solver was never dispatched"
            np.testing.assert_array_equal(res.psi, ref.psi)
            assert res.transmission_lr == ref.transmission_lr
        finally:
            SOLVERS.unregister("test-rgf-clone")

    def test_third_party_obc_method(self, device):
        @register_obc_method("test-dense-clone", uses_pevp=True)
        def clone(lead, energy, *, pevp=None, **kwargs):
            return OBC_METHODS.get("dense")(lead, energy, pevp=pevp,
                                            **kwargs)

        try:
            res = qtbm_energy_point(device, 2.0,
                                    obc_method="test-dense-clone",
                                    solver="rgf")
            ref = qtbm_energy_point(device, 2.0, obc_method="dense",
                                    solver="rgf")
            assert res.transmission_lr == ref.transmission_lr
        finally:
            OBC_METHODS.unregister("test-dense-clone")

    def test_auto_resolves_through_cost_model(self):
        name = resolve_solver_name("auto", num_blocks=8, block_size=6,
                                   num_rhs=4)
        assert name == choose_solver(8, 6, 4)
        assert name in SOLVERS

    def test_explicit_name_passes_through(self):
        assert resolve_solver_name("rgf", num_blocks=8, block_size=6,
                                   num_rhs=4) == "rgf"
        with pytest.raises(ConfigurationError):
            resolve_solver_name("nope", num_blocks=8, block_size=6,
                                num_rhs=4)

    def test_rgf_model_counts_real_solve(self, device):
        """The RGF kernel sequence matches the instrumented kernels."""
        from repro.obc import compute_open_boundary
        from repro.solvers import assemble_t
        from repro.solvers.rgf import solve_rgf
        ob = compute_open_boundary(device.lead, 2.0, method="dense")
        a = device.a_matrix(2.0)
        inj = ob.injection_matrix(device.num_blocks, device.block_sizes)
        t = assemble_t(a, ob.sigma_l, ob.sigma_r)
        with ledger_scope() as led:
            solve_rgf(t, inj)
        assert led.total_flops == kernel_flops(
            rgf_kernels(device.block_sizes, inj.shape[1]))


class TestDeviceCache:
    def test_block_extraction_once(self, device):
        """The blocks the cache keeps are extracted once."""
        cache = DeviceCache(device)
        assert cache.kept_blocks() is cache.kept_blocks()
        assert cache.s_blocks() is cache.s_blocks()

    def test_a_matrix_equals_device(self, device):
        cache = DeviceCache(device)
        a1 = cache.a_matrix(1.7)
        ref = device.a_matrix(1.7)
        for got, want in zip(a1.diag + a1.upper + a1.lower,
                             ref.diag + ref.upper + ref.lower):
            np.testing.assert_array_equal(got, want)

    def test_boundary_shared_per_point(self, device):
        cache = DeviceCache(device)
        ob1 = cache.boundary(2.0, "dense")
        assert cache.boundary(2.0, "dense") is ob1
        assert cache.boundary(2.1, "dense") is not ob1

    def test_polynomial_family_bitwise(self, device):
        lead = device.lead
        family = PolynomialFamily(lead.h_cells, lead.s_cells)
        for e in (0.3, 1.9, 2.4):
            fast = family.at_energy(e)
            ref = PolynomialEVP(lead.h_cells, lead.s_cells, e)
            assert fast.n == ref.n and fast.nbw == ref.nbw
            assert fast.degree == ref.degree
            for cf, cr in zip(fast.coeffs, ref.coeffs):
                np.testing.assert_array_equal(cf, cr)


class TestStageSpans:
    def test_stage_sequence_and_meta(self, device):
        pipe = TransportPipeline(obc_method="dense", solver="rgf")
        with tracing() as tracer:
            res = pipe.solve_point(device, 2.0, kpoint_index=3,
                                   energy_index=7)
        assert stage_names(tracer, 7, kpoint=3) == list(STAGES)
        solve = stage_span(tracer, "SOLVE", 7, kpoint=3)
        assert solve.attrs["solver"] == "rgf"
        assert solve.attrs["num_rhs"] == res.psi.shape[1]
        assert solve.flops > 0
        assert stage_span(tracer, "OBC").attrs["method"] == "dense"
        assert res.seconds > 0

    def test_no_injection_short_circuits(self, device):
        # far below the band: evanescent modes only, nothing to solve
        pipe = TransportPipeline(obc_method="dense", solver="rgf")
        with tracing() as tracer:
            res = pipe.solve_point(device, -3.0)
        assert res.transmission_lr == 0.0
        assert stage_names(tracer, -1) == ["PREPARE", "OBC", "ASSEMBLE"]

    def test_auto_records_resolved_solver(self, device):
        pipe = TransportPipeline(obc_method="dense", solver="auto")
        with tracing() as tracer:
            pipe.solve_point(device, 2.0)
        resolved = stage_span(tracer, "SOLVE").attrs["solver"]
        assert resolved in SOLVERS.names()
        assert resolved != "auto"

    def test_flops_reconcile_with_ledger_full_spectrum(self):
        """Acceptance: sum of stage flops == ledger total, exactly."""
        chain = linear_chain(6, 0.25)
        energies = [-0.55, -0.45, -0.35]
        with tracing() as tracer, ledger_scope() as led:
            compute_spectrum(chain, single_s_basis(), 6, energies,
                             num_k=2, obc_method="dense", solver="rgf")
        assert led.total_flops > 0
        assert stage_flops(tracer) == led.total_flops

    def test_flops_reconcile_under_thread_runner(self):
        chain = linear_chain(6, 0.25)
        energies = [-0.55, -0.45]
        runner = ResilientTaskRunner(ThreadTaskRunner(num_workers=2))
        with tracing() as tracer, ledger_scope() as led:
            spec = compute_spectrum(chain, single_s_basis(), 6, energies,
                                    obc_method="dense", solver="rgf",
                                    task_runner=runner)
        assert stage_flops(tracer) == led.total_flops
        assert spec.telemetry is runner.telemetry


class TestTelemetryAndBalancer:
    SWEEP = dict(bias_points=[0.0, 0.1], mu_source=-0.6,
                 e_window=(-1.8, -0.2), num_k=3, num_nodes=8,
                 scf_kwargs=dict(max_iter=2))

    def test_measured_time_per_k(self):
        chain = linear_chain(6, 0.25)
        # num_k=3 reduces to 2 distinct k-points under time reversal
        spec = compute_spectrum(chain, single_s_basis(), 6,
                                [-0.55, -0.45], num_k=3,
                                obc_method="dense", solver="rgf")
        per_k = spec.measured_time_per_k()
        assert per_k.shape == (2,)
        assert np.all(per_k > 0)
        assert spec.seconds.shape == (2, 2)
        np.testing.assert_array_equal(per_k, spec.seconds.sum(axis=1))

    @staticmethod
    def _spy(monkeypatch):
        """Record what each bias point measured and what the balancer
        was fed: ``[(energies, per_k)]``, ``[(times, nodes_per_k)]``."""
        measured, fed = [], []
        measure = TransportSpectrum.measured_time_per_k
        record = DynamicLoadBalancer.record_iteration

        def measuring(self):
            measured.append((self.energies.size, measure(self)))
            return measured[-1][1]

        def recording(self, times):
            fed.append((np.array(times),
                        self.current_distribution().nodes_per_k.copy()))
            return record(self, times)

        monkeypatch.setattr(TransportSpectrum, "measured_time_per_k",
                            measuring)
        monkeypatch.setattr(DynamicLoadBalancer, "record_iteration",
                            recording)
        return measured, fed

    def test_balancer_consumes_measured_traces(self, monkeypatch):
        """Each bias point feeds the balancer its final spectrum's
        measured per-k time, one row per irreducible k-point."""
        measured, fed = self._spy(monkeypatch)
        out = run_production(linear_chain(8, 0.25), single_s_basis(), 8,
                             **self.SWEEP)
        assert len(measured) == len(fed) == 2
        for (_, per_k), (times, nodes) in zip(measured, fed):
            assert per_k.shape == (2,) and np.all(per_k > 0)
            np.testing.assert_array_equal(times, per_k / nodes)
        assert len(out.balancer.history) == 2

    def test_balancer_ignores_useless_traces(self, monkeypatch, tmp_path):
        """A sweep whose every point is a result-store hit measured no
        time: the balancer gets the energy-count proxy instead."""
        chain, store = linear_chain(8, 0.25), tmp_path / "store"
        run_production(chain, single_s_basis(), 8, result_store=store,
                       **self.SWEEP)
        measured, fed = self._spy(monkeypatch)
        run_production(chain, single_s_basis(), 8, result_store=store,
                       **self.SWEEP)
        assert len(measured) == len(fed) == 2
        for (num_e, per_k), (times, nodes) in zip(measured, fed):
            assert not per_k.any()
            np.testing.assert_array_equal(times, num_e / nodes)
