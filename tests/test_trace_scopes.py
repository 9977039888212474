"""Edge-case tests for the pipeline's stage scope.

Pins down the contract the observability reconciliation relies on: the
``category="stage"`` span :func:`stage_scope` emits under a tracer is
the one record of a stage, its flops and bytes reconcile bit-for-bit
with the surrounding ledger even when the stage body raises mid-way,
and with no tracer the scope builds no ledger and emits nothing.
"""

import numpy as np
import pytest

from repro.experiments.fig6_phases import _test_lead
from repro.hamiltonian.device import synthetic_device_from_lead
from repro.linalg import gemm
from repro.linalg.flops import FlopLedger, ledger_scope
from repro.observability.spans import SpanTracer, tracing
from repro.pipeline import STAGES, TransportPipeline
from repro.pipeline.trace import stage_scope

from tests.helpers import stage_names, stage_span


def _burn(n=8):
    a = np.ones((n, n))
    return gemm(a, a)


class TestBatchStageScope:
    def test_removed_weights_parameter_is_rejected(self):
        with pytest.raises(TypeError):
            with stage_scope("OBC", 0, [0], weights=[1.0]):
                pass

    def test_ledger_reconciles_when_body_raises_mid_way(self):
        with tracing() as tracer:
            with ledger_scope() as led:
                with pytest.raises(RuntimeError, match="boom"):
                    with stage_scope("SOLVE", 0, [0, 1, 2]):
                        _burn()
                        raise RuntimeError("boom")
        # the flops burned before the failure are merged into the parent
        # ledger AND recorded on the batch's one stage span
        assert led.total_flops > 0
        sp = stage_span(tracer, "SOLVE")
        assert sp.flops == led.total_flops
        assert sp.attrs["batch_size"] == 3

    def test_bytes_meta_sums_to_probe_total(self):
        probe_check = FlopLedger()
        with ledger_scope(probe_check):
            _burn(6)
        expected = int(sum(probe_check.bytes_by_device.values()))
        with tracing() as tracer:
            with ledger_scope():
                with stage_scope("OBC", 0, [0, 1, 2]):
                    _burn(6)
        assert stage_span(tracer, "OBC").bytes_moved == expected

    def test_emits_one_batch_span_under_tracing(self):
        with tracing() as tracer:
            with ledger_scope() as led:
                with stage_scope("OBC", 2, [0, 1, 2]):
                    _burn()
        spans = tracer.by_category("stage")
        assert len(spans) == 1
        sp = spans[0]
        assert sp.name == "OBC"
        assert sp.flops == led.total_flops
        assert sp.attrs["batch_size"] == 3
        assert sp.attrs["kpoint"] == 2
        assert sp.attrs["energy_indices"] == [0, 1, 2]

    def test_empty_batch_is_a_no_op(self):
        # untraced, the scope yields a throwaway notes dict and nothing
        # else: the body's kernels land in the active ledger directly
        with ledger_scope() as led:
            with stage_scope("OBC", 0, []) as notes:
                assert notes == {}
        assert led.total_flops == 0


class TestStageScope:
    def test_span_matches_stage_trace_bit_for_bit(self):
        with tracing() as tracer:
            with ledger_scope() as led:
                with stage_scope("SOLVE", 1, [4]) as notes:
                    _burn()
                    notes.update(solver="rgf", num_rhs=3)
        (sp,) = tracer.by_category("stage")
        assert sp.flops == led.total_flops
        assert sp.bytes_moved == int(sum(led.bytes_by_device.values()))
        assert sp.seconds > 0
        # the body's notes become span attributes, next to the batch's
        assert sp.attrs == {"kpoint": 1, "batch_size": 1,
                            "energy_indices": [4], "solver": "rgf",
                            "num_rhs": 3}

    def test_no_tracer_no_span_overhead_path(self, monkeypatch):
        made = []
        init = FlopLedger.__init__

        def counting(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        with ledger_scope() as led:
            monkeypatch.setattr(FlopLedger, "__init__", counting)
            with stage_scope("OBC", 0, [0]):
                _burn()
        assert led.total_flops > 0   # recorded straight into the ledger
        assert made == []            # through no probe

    def test_failing_stage_still_merges_flops(self):
        with tracing() as tracer:
            with ledger_scope() as led:
                with pytest.raises(ValueError):
                    with stage_scope("OBC", 0, [0]):
                        _burn()
                        raise ValueError("nope")
        (sp,) = tracer.by_category("stage")
        assert sp.flops == led.total_flops


class TestUntracedPipeline:
    def test_solve_batch_builds_no_ledger_and_emits_no_span(
            self, monkeypatch):
        """A full untraced batch, every stage of it, pays no stage
        accounting: no probe ledger, no span, no byte prediction."""
        dev = synthetic_device_from_lead(_test_lead(6, seed=3), 8)
        pipe = TransportPipeline(obc_method="dense", solver="splitsolve",
                                 num_partitions=2)
        cache = pipe.cache(dev)
        made, emitted, priced = [], [], []
        init = FlopLedger.__init__

        def counting(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(FlopLedger, "__init__", counting)
        monkeypatch.setattr(SpanTracer, "emit",
                            lambda self, *a, **kw: emitted.append(a))
        monkeypatch.setattr(TransportPipeline, "_predicted_solve_bytes",
                            staticmethod(lambda *a: priced.append(a)))
        idle = SpanTracer(enabled=False)
        with tracing(idle):
            results = pipe.solve_batch(cache, [1.7, 2.0, 2.3])
        assert all(r.psi.shape[1] > 0 for r in results)
        assert made == [] and emitted == [] and priced == []
        assert idle.records() == []
        assert all(r.seconds > 0 for r in results)

    def test_traced_batch_has_every_stage_per_energy(self):
        dev = synthetic_device_from_lead(_test_lead(6, seed=3), 8)
        pipe = TransportPipeline(obc_method="dense", solver="rgf")
        with tracing() as tracer:
            pipe.solve_batch(pipe.cache(dev), [1.7, 2.0], kpoint_index=5,
                             energy_indices=[3, 4])
        for ie in (3, 4):
            assert stage_names(tracer, ie, kpoint=5) == list(STAGES)
