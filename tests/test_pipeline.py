"""Unit tests for the staged transport pipeline subsystem.

Covers the registry extension points (third-party solvers/OBC methods
without touching core modules), the DeviceCache reuse contract, stage
traces and their exact flop reconciliation with the ledger, and the
telemetry/load-balancer consumption of measured trace times.
"""

import numpy as np
import pytest

from repro.core.runner import compute_spectrum
from repro.hamiltonian.device import synthetic_device_from_lead
from repro.linalg.flops import ledger_scope
from repro.negf.transmission import qtbm_energy_point
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
    StageTrace,
    TaskTrace,
    TransportPipeline,
    register_obc_method,
    register_solver,
    resolve_solver_name,
)
from repro.runtime import ResilientTaskRunner
from repro.structure import linear_chain
from repro.utils.errors import ConfigurationError

from tests.test_hamiltonian import single_s_basis
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


class TestStageTraces:
    def test_stage_sequence_and_meta(self, device):
        pipe = TransportPipeline(obc_method="dense", solver="rgf")
        res = pipe.solve_point(device, 2.0, kpoint_index=3,
                               energy_index=7)
        assert [s.name for s in res.trace.stages] == list(STAGES)
        assert res.trace.kpoint_index == 3
        assert res.trace.energy_index == 7
        assert res.trace.stage("SOLVE").meta["solver"] == "rgf"
        assert res.trace.stage("SOLVE").flops > 0
        assert res.trace.total_seconds > 0
        assert "SOLVE" in res.trace.as_table()

    def test_no_injection_short_circuits(self, device):
        # far below the band: evanescent modes only, nothing to solve
        pipe = TransportPipeline(obc_method="dense", solver="rgf")
        res = pipe.solve_point(device, -3.0)
        assert res.transmission_lr == 0.0
        assert [s.name for s in res.trace.stages] == \
            ["PREPARE", "OBC", "ASSEMBLE"]

    def test_auto_records_resolved_solver(self, device):
        pipe = TransportPipeline(obc_method="dense", solver="auto")
        res = pipe.solve_point(device, 2.0)
        resolved = res.trace.stage("SOLVE").meta["solver"]
        assert resolved in SOLVERS.names()
        assert resolved != "auto"

    def test_flops_reconcile_with_ledger_full_spectrum(self):
        """Acceptance: sum of stage flops == ledger total, exactly."""
        chain = linear_chain(6, 0.25)
        energies = [-0.55, -0.45, -0.35]
        with ledger_scope() as led:
            spec = compute_spectrum(chain, single_s_basis(), 6, energies,
                                    num_k=2, obc_method="dense",
                                    solver="rgf")
        traced = sum(tr.total_flops for tr in spec.traces)
        assert led.total_flops > 0
        assert traced == led.total_flops

    def test_flops_reconcile_under_thread_runner(self):
        chain = linear_chain(6, 0.25)
        energies = [-0.55, -0.45]
        runner = ResilientTaskRunner(ThreadTaskRunner(num_workers=2))
        with ledger_scope() as led:
            spec = compute_spectrum(chain, single_s_basis(), 6, energies,
                                    obc_method="dense", solver="rgf",
                                    task_runner=runner)
        traced = sum(tr.total_flops for tr in spec.traces)
        assert traced == led.total_flops
        assert spec.telemetry is runner.telemetry


class TestTelemetryAndBalancer:
    def _trace(self, ik, seconds, flops=10):
        tr = TaskTrace(kpoint_index=ik, energy_index=0, energy=0.0)
        tr.stages.append(StageTrace(name="SOLVE", seconds=seconds,
                                    flops=flops))
        return tr

    def test_measured_time_per_k(self):
        chain = linear_chain(6, 0.25)
        # num_k=3 reduces to 2 distinct k-points under time reversal
        spec = compute_spectrum(chain, single_s_basis(), 6,
                                [-0.55, -0.45], num_k=3,
                                obc_method="dense", solver="rgf")
        per_k = spec.measured_time_per_k()
        assert per_k.shape == (2,)
        assert np.all(per_k > 0)
        assert per_k.sum() == pytest.approx(
            sum(tr.total_seconds for tr in spec.traces))

    def test_balancer_consumes_measured_traces(self):
        bal = DynamicLoadBalancer(8, [4, 4], smoothing=0.0)
        # k=1 measured 3x more expensive than k=0
        dist = bal.record_task_traces(
            [self._trace(0, 0.1), self._trace(1, 0.3)])
        assert dist is not None
        assert bal._work[1] > bal._work[0]
        assert dist.nodes_per_k[1] >= dist.nodes_per_k[0]

    def test_balancer_ignores_useless_traces(self):
        bal = DynamicLoadBalancer(8, [4, 4])
        assert bal.record_task_traces([None, self._trace(-1, 0.5)]) is None
        assert bal.history == []
