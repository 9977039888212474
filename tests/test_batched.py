"""Tests for the energy-batched kernel layer and batched pipeline.

Covers the stacked kernels' numerical equivalence with the per-point
loops and exact flop-ledger parity between the two, a batch as one
solver call per energy (ragged injection widths, batch-size-1
degeneration to the per-point path), and the batch-granular scheduling
of ``compute_spectrum`` and its resume through the result store.
"""

import numpy as np
import pytest

from repro.core.runner import compute_spectrum
from repro.experiments.fig6_phases import _test_lead
from repro.hamiltonian import LeadBlocks
from repro.hamiltonian.device import synthetic_device_from_lead
from repro.linalg import (
    BatchedBlockTridiag,
    build_a_batch,
    gemm_batched,
    lu_factor_batched,
    lu_solve_batched,
)
from repro.linalg.flops import ledger_scope
from repro.linalg.kernels import gemm, lu_factor, lu_solve, solve_many
from repro.observability.spans import tracing
from repro.perfmodel.costmodel import kernel_flops, rgf_kernels
from repro.pipeline import TransportPipeline
from repro.pipeline.trace import stage_scope
from repro.solvers import assemble_t, assemble_t_batched, solve_rgf, \
    solve_rgf_batched
from repro.structure import linear_chain
from repro.utils.errors import ConfigurationError, ShapeError

from tests.test_hamiltonian import single_s_basis
from tests.helpers import (stage_flops, stage_names, stage_span,
                                     stage_spans)


def _stack(rng, ne, m, n):
    return (rng.standard_normal((ne, m, n))
            + 1j * rng.standard_normal((ne, m, n)))


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestBatchedKernels:
    def test_gemm_batched_matches_loop(self, rng):
        a = _stack(rng, 5, 4, 6)
        b = _stack(rng, 5, 6, 3)
        with ledger_scope() as led_b:
            c = gemm_batched(a, b)
        with ledger_scope() as led_p:
            ref = np.stack([gemm(a[j], b[j]) for j in range(5)])
        np.testing.assert_allclose(c, ref, atol=1e-13)
        assert led_b.total_flops == led_p.total_flops
        assert list(led_b.flops_by_kernel) == ["zgemm_batched"]

    def test_lu_factor_solve_batched_match_loop(self, rng):
        a = _stack(rng, 4, 6, 6) + 6 * np.eye(6)
        b = _stack(rng, 4, 6, 3)
        with ledger_scope() as led_b:
            x = lu_solve_batched(lu_factor_batched(a), b)
        with ledger_scope() as led_p:
            ref = np.stack([lu_solve(lu_factor(a[j]), b[j])
                            for j in range(4)])
        np.testing.assert_allclose(x, ref, atol=1e-12)
        np.testing.assert_allclose(a @ x, b, atol=1e-10)
        # exact ledger parity: one batch record == sum of per-call records
        assert led_b.total_flops == led_p.total_flops
        assert led_b.flops_by_kernel["zgetrf_batched"] == \
            led_p.flops_by_kernel["zgetrf"]
        assert led_b.flops_by_kernel["zgetrs_batched"] == \
            led_p.flops_by_kernel["zgetrs"]

    def test_shape_validation(self, rng):
        with pytest.raises(ShapeError):
            gemm_batched(rng.standard_normal((4, 4)),
                         rng.standard_normal((2, 4, 4)))
        with pytest.raises(ShapeError):
            lu_factor_batched(rng.standard_normal((2, 4, 3)))


class TestBatchedContainers:
    def test_build_a_batch_bitwise(self):
        lead = _test_lead(5, seed=1)
        dev = synthetic_device_from_lead(lead, 6)
        h, s = dev.h_blocks(), dev.s_blocks()
        energies = [0.3, 1.7, 2.2]
        batch = build_a_batch(h, s, energies)
        assert batch.batch_size == 3
        assert batch.num_blocks == 6
        for j, e in enumerate(energies):
            ref = s.scale_add(complex(e), h, -1.0)
            point = batch.point(j)
            for bb, rb in zip(point.diag + point.upper + point.lower,
                              ref.diag + ref.upper + ref.lower):
                assert np.array_equal(bb, rb)

    def test_inconsistent_stack_rejected(self, rng):
        with pytest.raises(ShapeError):
            BatchedBlockTridiag([_stack(rng, 2, 3, 3), _stack(rng, 3, 3, 3)],
                                [_stack(rng, 2, 3, 3)],
                                [_stack(rng, 2, 3, 3)])


class TestBatchedRgf:
    def _system(self, rng, ne, nb, s, m):
        diag = _stack(rng, ne, s, s) + 8 * np.eye(s)
        t = BatchedBlockTridiag(
            [diag + j * np.eye(s) for j in range(nb)],
            [_stack(rng, ne, s, s) for _ in range(nb - 1)],
            [_stack(rng, ne, s, s) for _ in range(nb - 1)])
        b = _stack(rng, ne, nb * s, m)
        return t, b

    def test_matches_per_point_rgf(self, rng):
        """The batched solve is the per-energy sweep: the same bits and
        the same kernels on the ledger, none of them a stacked one."""
        t, b = self._system(rng, 4, 5, 3, 2)
        with ledger_scope() as led_b:
            x = solve_rgf_batched(t, b)
        with ledger_scope() as led_p:
            ref = np.stack([solve_rgf(t.point(j), b[j]) for j in range(4)])
        assert x.tobytes() == ref.tobytes()
        assert led_b.flops_by_kernel == led_p.flops_by_kernel
        assert not any(k.endswith("_batched") for k in led_b.flops_by_kernel)

    def test_validation(self, rng):
        t, b = self._system(rng, 3, 4, 3, 2)
        for bad in (b[0], b[:2], b[:, :-1]):
            with pytest.raises(ShapeError):
                solve_rgf_batched(t, bad)

    def test_assemble_t_batched_matches_per_point(self, rng):
        lead = _test_lead(4, seed=5)
        dev = synthetic_device_from_lead(lead, 5)
        energies = [1.8, 2.0, 2.3]
        batch = build_a_batch(dev.h_blocks(), dev.s_blocks(), energies)
        sl = _stack(rng, 3, 4, 4)
        sr = _stack(rng, 3, 4, 4)
        tb = assemble_t_batched(batch, sl, sr)
        for j in range(3):
            ref = assemble_t(batch.point(j), sl[j], sr[j])
            got = tb.point(j)
            for bb, rb in zip(got.diag + got.upper + got.lower,
                              ref.diag + ref.upper + ref.lower):
                assert np.array_equal(bb, rb)
        # the input batch must be left untouched (shared-cache contract)
        fresh = build_a_batch(dev.h_blocks(), dev.s_blocks(), energies)
        for bb, rb in zip(batch.diag, fresh.diag):
            assert np.array_equal(bb, rb)

    def test_batched_cost_model_sums_per_energy(self, rng):
        ne, nb, s, m = 4, 5, 3, 2
        t, b = self._system(rng, ne, nb, s, m)
        with ledger_scope() as led:
            solve_rgf_batched(t, b)
        assert led.total_flops \
            == ne * kernel_flops(rgf_kernels([s] * nb, m))


class TestApportionment:
    def test_batch_stage_scope_reconciles(self, rng):
        a = _stack(rng, 3, 4, 4)
        with tracing() as tracer:
            with ledger_scope() as led:
                with stage_scope("SOLVE", 0, [0, 1, 2]):
                    gemm_batched(a, a)
        # one span for the batch, carrying all of its flops
        sp = stage_span(tracer, "SOLVE")
        assert sp.attrs["energy_indices"] == [0, 1, 2]
        assert sp.flops == led.total_flops


def _ragged_lead():
    """Uncoupled channels with staggered band centers: the injection
    width genuinely varies across energy (4 rhs mid-band, 2 in the upper
    band only, 0 above every band)."""
    h00 = np.diag([2.0, 2.0, 5.0])
    h01 = -np.eye(3)
    s00 = np.eye(3)
    s01 = np.zeros((3, 3))
    return LeadBlocks(h_cells=[h00, h01], s_cells=[s00, s01],
                      h00=h00, h01=h01, s00=s00, s01=s01)


class TestSolveBatch:
    def test_matches_solve_point(self):
        dev = synthetic_device_from_lead(_test_lead(6, seed=3), 8)
        pipe = TransportPipeline(obc_method="dense", solver="rgf")
        cache = pipe.cache(dev)
        energies = [1.7, 1.9, 2.1, 2.3]
        with tracing() as one:
            ref = [pipe.solve_point(cache, e, energy_index=j)
                   for j, e in enumerate(energies)]
        with tracing() as batch:
            got = pipe.solve_batch(cache, energies)
        for j, (r, g) in enumerate(zip(ref, got)):
            assert r.transmission_lr == g.transmission_lr
            assert r.num_prop_left == g.num_prop_left
            assert np.array_equal(g.psi, r.psi)
            assert stage_span(batch, "SOLVE", j).flops \
                == stage_span(one, "SOLVE", j).flops

    def test_ragged_widths_bucketed(self):
        dev = synthetic_device_from_lead(_ragged_lead(), 6)
        pipe = TransportPipeline(obc_method="dense", solver="rgf")
        cache = pipe.cache(dev)
        energies = [2.0, 5.0, 2.05, 8.5]   # widths 4, 2, 4, 0
        with tracing() as tracer:
            results = pipe.solve_batch(cache, energies)
        widths = [r.psi.shape[1] for r in results]
        assert widths == [4, 2, 4, 0]
        for j, e in enumerate(energies):
            ref = pipe.solve_point(cache, e)
            assert abs(ref.transmission_lr
                       - results[j].transmission_lr) <= 1e-10
        # the no-modes energy skips SOLVE/ANALYZE but still has spans
        names = stage_names(tracer, 3)
        assert "SOLVE" not in names and "OBC" in names
        assert results[3].transmission_lr == 0.0
        assert stage_span(tracer, "ASSEMBLE").attrs["num_rhs"] == widths
        # every energy that injects is one "rgf" call of its own width
        for j, width in enumerate(widths[:3]):
            meta = stage_span(tracer, "SOLVE", j).attrs
            assert meta["solver"] == "rgf" and meta["num_rhs"] == width
            assert "bucket_size" not in meta

    def test_single_energy_degenerates_to_solve_point(self):
        dev = synthetic_device_from_lead(_test_lead(5, seed=4), 6)
        pipe = TransportPipeline(obc_method="dense", solver="rgf")
        cache = pipe.cache(dev)
        with tracing() as one:
            ref = pipe.solve_point(cache, 2.0, energy_index=0)
        with tracing() as batch:
            got = pipe.solve_batch(cache, [2.0], energy_indices=[0])
        assert len(got) == 1
        assert np.array_equal(got[0].psi, ref.psi)
        assert got[0].transmission_lr == ref.transmission_lr
        assert stage_names(batch, 0) == stage_names(one, 0)

    @pytest.mark.parametrize("obc_method",
                             ["dense", "feast", "shift_invert"])
    @pytest.mark.parametrize("solver", ["rgf", "bcr", "direct",
                                        "splitsolve", "auto"])
    def test_point_is_a_slice_of_a_ragged_batch(self, obc_method, solver):
        """``solve_point(E)`` is ``solve_batch([E])[0]`` is slice ``j`` of
        a ragged batch, bit for bit, for every built-in pair."""
        dev = synthetic_device_from_lead(_test_lead(6, seed=3), 8)
        kw = dict(r_outer=3.0, num_points=8, seed=0) \
            if obc_method == "feast" else {}
        pipe = TransportPipeline(
            obc_method=obc_method, solver=solver, obc_kwargs=kw,
            num_partitions=2 if solver == "splitsolve" else 1)
        energies = [0.5, 4.2, 2.0, -0.5, 4.1, 1.0]
        with tracing() as batch_spans, ledger_scope() as led:
            batch = pipe.solve_batch(pipe.cache(dev), energies)
        assert stage_flops(batch_spans) == led.total_flops
        widths = [r.psi.shape[1] for r in batch]
        assert len(set(widths)) >= 2 and 0 in widths
        for j, e in enumerate(energies):
            # fresh caches: nothing memoized, every stage runs
            with tracing() as point_spans, ledger_scope() as led:
                point = pipe.solve_point(pipe.cache(dev), e)
            assert stage_flops(point_spans) == led.total_flops
            with tracing() as one_spans:
                (one,) = pipe.solve_batch(pipe.cache(dev), [e])
            for got, spans, ie in ((one, one_spans, 0),
                                   (batch[j], batch_spans, j)):
                assert got.transmission_lr == point.transmission_lr
                assert got.transmission_rl == point.transmission_rl
                assert got.num_prop_left == point.num_prop_left
                assert got.num_prop_right == point.num_prop_right
                assert np.array_equal(got.psi, point.psi)
                assert stage_names(spans, ie) \
                    == stage_names(point_spans, -1)
            assert stage_flops(one_spans) == stage_flops(point_spans)
            if widths[j]:
                assert stage_span(batch_spans, "SOLVE", j) \
                    .attrs["solver"] \
                    == stage_span(point_spans, "SOLVE").attrs["solver"]

    def test_splitsolve_info_survives_on_a_batch(self):
        dev = synthetic_device_from_lead(_test_lead(6, seed=3), 8)
        pipe = TransportPipeline(obc_method="dense", solver="splitsolve",
                                 num_partitions=2)
        with tracing() as tracer:
            pipe.solve_point(dev, 2.0)
        point = stage_span(tracer, "SOLVE").attrs
        with tracing() as tracer:
            pipe.solve_batch(dev, [1.7, 1.9, 2.1, 2.3])
        solves = stage_spans(tracer, "SOLVE")
        assert len(solves) == 4
        for meta in (sp.attrs for sp in solves):
            assert meta["solver"] == "splitsolve"
            assert set(meta["phase_times"]) == set(point["phase_times"])
            assert meta["num_devices"] == point["num_devices"]
            assert meta["predicted_bytes"] > 0

    def test_trace_flops_reconcile_with_ledger(self):
        dev = synthetic_device_from_lead(_test_lead(5, seed=6), 6)
        pipe = TransportPipeline(obc_method="dense", solver="rgf")
        cache = pipe.cache(dev)
        with tracing() as tracer, ledger_scope() as led:
            pipe.solve_batch(cache, [1.8, 2.0, 2.2])
        assert stage_flops(tracer) == led.total_flops

    def test_validation(self):
        dev = synthetic_device_from_lead(_test_lead(4, seed=0), 4)
        pipe = TransportPipeline(obc_method="dense", solver="rgf")
        with pytest.raises(ConfigurationError):
            pipe.solve_batch(dev, [])
        with pytest.raises(ConfigurationError):
            pipe.solve_batch(dev, [1.0, 2.0], energy_indices=[0])


class TestComputeSpectrumBatched:
    def _args(self):
        chain = linear_chain(10)
        return chain, single_s_basis(), 5

    def test_equivalent_to_per_point(self):
        structure, basis, nc = self._args()
        es = np.linspace(-1.5, 1.5, 7)
        ref = compute_spectrum(structure, basis, nc, es,
                               obc_method="dense", solver="rgf")
        bat = compute_spectrum(structure, basis, nc, es,
                               obc_method="dense", solver="rgf",
                               energy_batch_size=3)
        assert np.max(np.abs(ref.transmission - bat.transmission)) <= 1e-10
        assert np.array_equal(ref.mode_counts, bat.mode_counts)
        assert bat.seconds.shape == ref.seconds.shape == (1, es.size)
        assert np.all(bat.seconds > 0)
        assert bat.measured_time_per_k().shape == (1,)

    def test_rejects_bad_batch_size(self):
        structure, basis, nc = self._args()
        with pytest.raises(ConfigurationError):
            compute_spectrum(structure, basis, nc, [0.0],
                             energy_batch_size=0)

    def test_checkpoint_resume_at_batch_granularity(self, tmp_path,
                                                    monkeypatch):
        """The result store is a spectrum's checkpoint: a serial run puts
        each unit as it finishes, so a run killed in its second unit
        leaves the first behind, and the re-run against the same store
        solves only the rest, bitwise."""
        structure, basis, nc = self._args()
        es = np.linspace(-1.0, 1.0, 6)
        store = tmp_path / "store"
        ref = compute_spectrum(structure, basis, nc, es,
                               obc_method="dense", solver="rgf")

        calls = {"n": 0}
        orig = TransportPipeline.solve_batch

        def flaky(self, cache, energies, **kw):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("injected")
            return orig(self, cache, energies, **kw)

        monkeypatch.setattr(TransportPipeline, "solve_batch", flaky)
        with pytest.raises(RuntimeError):
            compute_spectrum(structure, basis, nc, es, obc_method="dense",
                             solver="rgf", energy_batch_size=3,
                             result_store=store)
        monkeypatch.setattr(TransportPipeline, "solve_batch", orig)
        with tracing() as tracer:
            res = compute_spectrum(structure, basis, nc, es,
                                   obc_method="dense", solver="rgf",
                                   energy_batch_size=3, result_store=store)
        assert tracer.metrics.counter("result_store_hits").value == 3
        assert tracer.metrics.counter("result_store_misses").value == 3
        assert [t.hex() for t in res.transmission.ravel()] \
            == [t.hex() for t in ref.transmission.ravel()]
        # only the second unit was solved after the restart: store hits
        # add no stage and no solve time
        assert len(stage_spans(tracer, "OBC")) == 3
        assert np.count_nonzero(res.seconds) == 3


class TestSolveMany:
    def test_single_substitution_pass(self, rng):
        a = rng.standard_normal((6, 6)) + 6 * np.eye(6)
        bs = [rng.standard_normal(6), rng.standard_normal((6, 3)),
              rng.standard_normal((6, 1))]
        with ledger_scope(trace=True) as led:
            xs = solve_many(a, bs)
        assert xs[0].shape == (6,)
        assert xs[1].shape == (6, 3)
        assert xs[2].shape == (6, 1)
        for b, x in zip(bs, xs):
            np.testing.assert_allclose(
                a @ x, b if b.ndim > 1 else b, atol=1e-10)
        # one LU + ONE stacked substitution, not one per block
        kinds = [e.kernel for e in led.events]
        assert kinds.count("dgetrf") == 1
        assert kinds.count("dgetrs") == 1

    def test_empty_rhs_list(self, rng):
        a = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        assert solve_many(a, []) == []
