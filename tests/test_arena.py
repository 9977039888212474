"""Tests for the workspace arena and its pipeline plumbing.

Covers the acceptance invariants of the byte-aware dataflow work:
checkout/release bookkeeping (misuse raises, views are rejected, leaks
are caught), scratch/scratch_release degradation without an active
arena, and bitwise-identical spectra with the arena on.
"""

import numpy as np
import pytest

from repro.core.runner import compute_spectrum
from repro.linalg.arena import (Workspace, arena_scope, current_arena,
                                scratch, scratch_release)
from repro.parallel import ThreadTaskRunner
from repro.pipeline import TransportPipeline
from repro.structure import linear_chain
from repro.utils.errors import ArenaAliasError, ArenaError, ArenaLeakError
from tests.test_hamiltonian import single_s_basis


class TestWorkspace:
    def test_checkout_release_reuses_buffer(self):
        ws = Workspace()
        a = ws.checkout((4, 4))
        ws.release(a)
        b = ws.checkout((4, 4))
        assert b is a
        assert ws.fresh == 1 and ws.reuses == 1
        ws.release(b)
        assert ws.stats()["reuse_rate"] == 0.5

    def test_distinct_shapes_and_dtypes_get_distinct_buckets(self):
        ws = Workspace()
        a = ws.checkout((4, 4), complex)
        b = ws.checkout((4, 4), float)
        c = ws.checkout((4, 3), complex)
        assert {a.dtype, b.dtype} == {np.dtype(complex), np.dtype(float)}
        for arr in (a, b, c):
            ws.release(arr)
        assert ws.stats()["buckets"] == 3
        assert ws.fresh == 3 and ws.reuses == 0

    def test_zero_checkout_is_zeroed_even_on_pool_hit(self):
        ws = Workspace()
        a = ws.checkout((3, 3), zero=True)
        assert np.all(a == 0)
        a[:] = 7.0
        ws.release(a)
        b = ws.checkout((3, 3), zero=True)
        assert b is a and np.all(b == 0)
        ws.release(b)

    def test_escape_checkout_is_never_pooled(self):
        ws = Workspace()
        a = ws.checkout((5,), escape=True)
        assert ws.escaped == 1 and ws.outstanding == 0
        # an escaped buffer was never tracked: releasing it is foreign
        with pytest.raises(ArenaError):
            ws.release(a)
        b = ws.checkout((5,), escape=True, zero=True)
        assert b is not a and np.all(b == 0)

    def test_release_foreign_array_raises(self):
        ws = Workspace()
        with pytest.raises(ArenaError, match="not checked out"):
            ws.release(np.empty((2, 2)))
        with pytest.raises(ArenaError, match="ndarray"):
            ws.release("not an array")

    def test_double_release_raises(self):
        ws = Workspace()
        a = ws.checkout((2, 2))
        ws.release(a)
        with pytest.raises(ArenaError, match="not checked out"):
            ws.release(a)

    def test_release_view_raises_alias_error(self):
        ws = Workspace()
        a = ws.checkout((4, 4), tag="schur")
        with pytest.raises(ArenaAliasError, match="schur"):
            ws.release(a[:2, :2])
        ws.release(a)

    def test_leak_detection(self):
        ws = Workspace(name="leaky")
        ws.checkout((3, 3), tag="held")
        with pytest.raises(ArenaLeakError, match="held"):
            ws.assert_quiescent()
        with pytest.raises(ArenaLeakError):
            ws.close()

    def test_context_manager_closes_and_drops_pool(self):
        with Workspace() as ws:
            a = ws.checkout((4, 4))
            ws.release(a)
            assert ws.bytes_pooled == a.nbytes
        assert ws.bytes_pooled == 0 and ws.stats()["buckets"] == 0

    def test_poison_mode_nan_fills_on_release(self):
        ws = Workspace(poison=True)
        a = ws.checkout((3,), dtype=complex)
        a[:] = 1.0
        ws.release(a)
        b = ws.checkout((3,))
        assert b is a and np.all(np.isnan(b.real))
        ws.release(b)

    def test_stats_are_json_serializable(self):
        import json

        ws = Workspace()
        ws.release(ws.checkout((2, 2)))
        json.dumps(ws.stats())


class TestScratchPlumbing:
    def test_no_arena_fallback_allocates_plainly(self):
        assert current_arena() is None
        a = scratch((3, 3), zero=True)
        assert np.all(a == 0) and a.dtype == np.dtype(complex)
        scratch_release(a)  # no-op without an arena

    def test_arena_scope_routes_and_restores(self):
        ws = Workspace()
        with arena_scope(ws):
            assert current_arena() is ws
            a = scratch((4, 4))
            assert ws.outstanding == 1
            scratch_release(a)
            inner = Workspace()
            with arena_scope(inner):
                assert current_arena() is inner
            assert current_arena() is ws
        assert current_arena() is None
        ws.close()


class TestPipelineArena:
    def _spectrum(self, **kwargs):
        return compute_spectrum(linear_chain(10), single_s_basis(), 5,
                                np.linspace(-1.5, 1.5, 7),
                                obc_method="dense", solver="rgf",
                                energy_batch_size=3, **kwargs)

    def test_arena_spectra_bitwise_identical(self):
        ref = self._spectrum(use_arena=False)
        got = self._spectrum(use_arena=True)
        assert np.array_equal(ref.transmission, got.transmission)
        assert np.array_equal(ref.mode_counts, got.mode_counts)
        for a, b in zip(ref.results, got.results):
            assert np.array_equal(a.psi, b.psi)

    def test_arena_bitwise_identical_thread_backend(self):
        runner = ThreadTaskRunner(num_workers=2)
        ref = self._spectrum(use_arena=False, task_runner=runner)
        got = self._spectrum(use_arena=True, task_runner=runner)
        assert np.array_equal(ref.transmission, got.transmission)

    def test_arena_bitwise_identical_process_backend(self):
        ref = self._spectrum(use_arena=False)
        got = self._spectrum(use_arena=True, backend="process",
                             num_workers=2)
        assert np.array_equal(ref.transmission, got.transmission)

    def test_arena_off_pipeline_has_no_workspace(self):
        pipe = TransportPipeline(obc_method="dense", solver="rgf")
        assert pipe.workspace is None
