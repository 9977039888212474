"""Edge-case tests for stage scopes and exact flop apportionment.

Pins down the contract the observability reconciliation relies on:
:func:`apportion_exact` preserves integer totals bit-for-bit for any
task count, and :func:`batch_stage_scope` keeps ledger/stage-trace
totals reconciled even when the batched body raises mid-way.
"""

import numpy as np
import pytest

from repro.linalg import gemm
from repro.linalg.flops import FlopLedger, ledger_scope
from repro.observability.spans import SpanTracer, tracing
from repro.pipeline.trace import (TaskTrace, apportion_exact,
                                  batch_stage_scope, stage_scope)


class TestApportionExact:
    def test_no_tasks_no_shares(self):
        assert apportion_exact(100, 0) == []

    def test_total_preserved_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            total = int(rng.integers(0, 10**12))
            shares = apportion_exact(total, n)
            assert len(shares) == n
            assert sum(shares) == total
            assert max(shares) - min(shares) <= 1

    def test_remainder_goes_to_the_first_tasks(self):
        assert apportion_exact(100, 4) == [25, 25, 25, 25]
        assert apportion_exact(10, 3) == [4, 3, 3]

    def test_zero_total(self):
        assert apportion_exact(0, 2) == [0, 0]


def _burn(n=8):
    a = np.ones((n, n))
    return gemm(a, a)


class TestBatchStageScope:
    def test_removed_weights_parameter_is_rejected(self):
        with pytest.raises(TypeError):
            with batch_stage_scope([TaskTrace()], "OBC", weights=[1.0]):
                pass

    def test_ledger_reconciles_when_body_raises_mid_way(self):
        traces = [TaskTrace(energy_index=i) for i in range(3)]
        with ledger_scope() as led:
            with pytest.raises(RuntimeError, match="boom"):
                with batch_stage_scope(traces, "SOLVE"):
                    _burn()
                    raise RuntimeError("boom")
        # the flops burned before the failure are merged into the parent
        # ledger AND apportioned over the per-task stage traces
        assert led.total_flops > 0
        flops = [tr.stage("SOLVE").flops for tr in traces]
        assert sum(flops) == led.total_flops

    def test_bytes_meta_sums_to_probe_total(self):
        traces = [TaskTrace(energy_index=i) for i in range(3)]
        probe_check = FlopLedger()
        with ledger_scope(probe_check):
            _burn(6)
        expected = int(sum(probe_check.bytes_by_device.values()))
        with ledger_scope():
            with batch_stage_scope(traces, "OBC"):
                _burn(6)
        got = [tr.stage("OBC").bytes_moved for tr in traces]
        assert sum(got) == expected

    def test_emits_one_batch_span_under_tracing(self):
        traces = [TaskTrace(kpoint_index=2, energy_index=i)
                  for i in range(3)]
        with tracing() as tracer:
            with ledger_scope() as led:
                with batch_stage_scope(traces, "OBC"):
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
        with ledger_scope():
            with batch_stage_scope([], "OBC") as sts:
                assert sts == []


class TestStageScope:
    def test_span_matches_stage_trace_bit_for_bit(self):
        trace = TaskTrace(kpoint_index=1, energy_index=4, energy=0.25)
        with tracing() as tracer:
            with ledger_scope():
                with stage_scope(trace, "SOLVE"):
                    _burn()
        st = trace.stage("SOLVE")
        (sp,) = tracer.by_category("stage")
        assert sp.flops == st.flops
        assert sp.bytes_moved == st.bytes_moved
        # emit(seconds=...) keeps the duration identical modulo one
        # float add/subtract round trip
        assert sp.seconds == pytest.approx(st.seconds, abs=1e-9)
        assert sp.attrs == {"kpoint": 1, "batch_size": 1,
                            "energy_indices": [4]}

    def test_no_tracer_no_span_overhead_path(self):
        trace = TaskTrace()
        with ledger_scope():
            with stage_scope(trace, "OBC"):
                _burn()
        assert trace.stage("OBC").flops > 0  # trace still recorded

    def test_failing_stage_still_merges_flops(self):
        trace = TaskTrace()
        with tracing() as tracer:
            with ledger_scope() as led:
                with pytest.raises(ValueError):
                    with stage_scope(trace, "OBC"):
                        _burn()
                        raise ValueError("nope")
        assert trace.stage("OBC").flops == led.total_flops
        (sp,) = tracer.by_category("stage")
        assert sp.flops == led.total_flops
