"""Tests for the exact byte side of the cost models.

The price table and the kernel sequences must reproduce the instrumented
kernels' own ledger records exactly (uniform and ragged blocks, batched
and per-point; ``test_cost_sequences.py`` draws the shapes), the
roofline must consume exact per-kernel traffic (falling back to the old
flop-proportional apportionment only for legacy snapshots), and the
drift check must flag injected extra traffic.
"""

import numpy as np
import pytest

from repro.hardware import TITAN
from repro.linalg import BatchedBlockTridiag, ledger_scope
from repro.linalg.flops import FlopLedger, kernel_cost
from repro.linalg.kernels import gemm, lu_factor, lu_solve, solve
from repro.perfmodel import (
    byte_drift,
    feast_kernels,
    kernel_bytes,
    rgf_kernels,
    splitsolve_byte_model,
)
from repro.perfmodel.roofline import drift_report, roofline_from_ledger
from repro.solvers import (SplitSolve, assemble_t, boundary_rhs, solve_rgf,
                           solve_rgf_batched)
from repro.utils.errors import ConfigurationError
from tests.test_blocktridiag import make_btd
from tests.test_solvers import make_system


def _cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestKernelByteFormulas:
    """Each table row must equal the kernel's own ledger byte record."""

    def test_gemm(self, rng):
        a, b = _cplx(rng, 4, 6), _cplx(rng, 6, 3)
        with ledger_scope() as led:
            gemm(a, b)
        assert led.total_bytes == kernel_cost("gemm", (4, 3, 6))[1] \
            == (4 * 6 + 6 * 3 + 4 * 3) * 16

    def test_lu_factor(self, rng):
        a = _cplx(rng, 5, 5) + 5 * np.eye(5)
        with ledger_scope() as led:
            lu_factor(a)
        assert led.total_bytes == kernel_cost("lu_factor", (5,))[1] \
            == 2 * 5 * 5 * 16

    def test_lu_solve(self, rng):
        a = _cplx(rng, 5, 5) + 5 * np.eye(5)
        lu = lu_factor(a)
        with ledger_scope() as led:
            lu_solve(lu, _cplx(rng, 5, 3))
        assert led.total_bytes == kernel_cost("lu_solve", (5, 3))[1] \
            == 2 * 5 * 3 * 16

    def test_solve(self, rng):
        a = _cplx(rng, 6, 6) + 6 * np.eye(6)
        with ledger_scope() as led:
            solve(a, _cplx(rng, 6, 2))
        assert led.total_bytes == kernel_cost("solve", (6, 2))[1] \
            == (6 * 6 + 2 * 6 * 2) * 16


class TestRgfByteModel:
    def test_exact_uniform_blocks(self):
        a, sl, sr, bt, bb = make_system(nb=6, bs=3, seed=3)
        t = assemble_t(a, sl, sr)
        rhs = boundary_rhs(a.block_sizes, bt, bb)
        with ledger_scope() as led:
            solve_rgf(t, rhs)
        assert led.total_bytes == kernel_bytes(
            rgf_kernels([3] * 6, rhs.shape[1]))

    def test_exact_ragged_blocks(self, rng):
        sizes = [3, 4, 5, 3, 4]
        a = make_btd(sizes, seed=9, cplx=True)
        for d in a.diag:
            d += 4 * max(sizes) * np.eye(d.shape[0])
        sl = 0.3 * _cplx(rng, sizes[0], sizes[0])
        sr = 0.3 * _cplx(rng, sizes[-1], sizes[-1])
        bt = _cplx(rng, sizes[0], 2)
        bb = _cplx(rng, sizes[-1], 1)
        t = assemble_t(a, sl, sr)
        rhs = boundary_rhs(a.block_sizes, bt, bb)
        with ledger_scope() as led:
            solve_rgf(t, rhs)
        assert led.total_bytes == kernel_bytes(
            rgf_kernels(sizes, rhs.shape[1]))

    def test_exact_batched(self, rng):
        ne, nb, s, m = 3, 5, 3, 2
        diag = _cplx(rng, ne, s, s) + 8 * np.eye(s)
        t = BatchedBlockTridiag(
            [diag + j * np.eye(s) for j in range(nb)],
            [_cplx(rng, ne, s, s) for _ in range(nb - 1)],
            [_cplx(rng, ne, s, s) for _ in range(nb - 1)])
        b = _cplx(rng, ne, nb * s, m)
        with ledger_scope() as led:
            solve_rgf_batched(t, b)
        assert led.total_bytes == ne * kernel_bytes(rgf_kernels([s] * nb, m))

    def test_empty_block_list_raises(self):
        with pytest.raises(ConfigurationError):
            list(rgf_kernels([], 2))


class TestSplitSolveByteModel:
    def test_exact_single_partition(self):
        a, sl, sr, bt, bb = make_system(nb=8, bs=3, seed=50)
        ss = SplitSolve(a, num_partitions=1, parallel=False,
                        hermitian=False)
        with ledger_scope() as led:
            ss.solve(sl, sr, bt, bb)
        assert led.total_bytes == splitsolve_byte_model(8, 3, num_rhs=3,
                                                        num_partitions=1)

    @pytest.mark.parametrize("parts", [2, 4])
    def test_close_match_multi_partition(self, parts):
        a, sl, sr, bt, bb = make_system(nb=8, bs=3, seed=51)
        ss = SplitSolve(a, num_partitions=parts, parallel=False,
                        hermitian=False)
        with ledger_scope() as led:
            ss.solve(sl, sr, bt, bb)
        model = splitsolve_byte_model(8, 3, num_rhs=3,
                                      num_partitions=parts)
        assert abs(led.total_bytes - model) / model < 0.15


class TestSolveStagePrediction:
    """Every SOLVE span carries the byte model's prediction, the
    per-point path included."""

    def _point(self):
        from repro.experiments.fig6_phases import _test_lead
        from repro.hamiltonian.device import synthetic_device_from_lead
        from repro.pipeline import TransportPipeline

        pipe = TransportPipeline(obc_method="dense", solver="rgf")
        dev = synthetic_device_from_lead(_test_lead(5, seed=4), 6)
        return lambda: pipe.solve_point(dev, 2.0)

    def test_per_point_rgf_span_is_exact(self):
        from repro.observability.spans import tracing

        with tracing() as tracer, ledger_scope():
            self._point()()
        (sp,) = [sp for sp in tracer.by_category("stage")
                 if sp.name == "SOLVE"]
        assert sp.attrs["predicted_bytes"] == sp.bytes_moved > 0

    def test_broken_byte_model_is_not_swallowed(self, monkeypatch):
        """Regression: any exception of the model silently dropped
        ``predicted_bytes``, and the drift check went blind.  The model
        prices only a traced SOLVE, the one whose span carries it."""
        import repro.perfmodel.costmodel as costmodel
        from repro.observability.spans import tracing

        def broken(*_a, **_k):
            raise ZeroDivisionError("broken byte model")

        monkeypatch.setattr(costmodel, "rgf_kernels", broken)
        with pytest.raises(ZeroDivisionError), tracing(), ledger_scope():
            self._point()()


class TestByteDrift:
    def test_exact_match_is_not_drifting(self):
        v = byte_drift(1000, 1000)
        assert not v["drifting"] and v["ratio"] == 1.0

    def test_excess_traffic_flags(self):
        assert byte_drift(1100, 1000, tolerance=0.05)["drifting"]
        assert not byte_drift(1040, 1000, tolerance=0.05)["drifting"]

    def test_unpredicted_traffic_flags(self):
        assert byte_drift(10, 0)["drifting"]
        assert not byte_drift(0, 0)["drifting"]

    def test_drift_report_names_union(self):
        rep = drift_report({"SOLVE": 120, "OBC": 50},
                           {"SOLVE": 100}, tolerance=0.05)
        assert rep["SOLVE"]["drifting"] and rep["OBC"]["drifting"]
        clean = drift_report({"SOLVE": 100}, {"SOLVE": 100})
        assert not clean["SOLVE"]["drifting"]


class TestRooflineBytes:
    def test_exact_per_kernel_intensity(self):
        led = FlopLedger()
        led.record("zgemm", flops=8000, bytes_moved=100, device="gpu0")
        led.record("zgetrf", flops=1000, bytes_moved=1000, device="gpu0")
        pts = roofline_from_ledger(led, TITAN.node.gpu)
        assert pts["zgemm"].arithmetic_intensity == 80.0
        assert pts["zgetrf"].arithmetic_intensity == 1.0
        assert pts["zgemm"].bytes_moved == 100

    def test_legacy_snapshot_falls_back_to_proportional(self):
        led = FlopLedger()
        led.record("zgemm", flops=3000, device="gpu0")
        led.record("zgetrf", flops=1000, device="gpu0")
        led.bytes_by_device["gpu0"] += 400    # legacy: device total only
        pts = roofline_from_ledger(led, TITAN.node.gpu)
        assert pts["zgemm"].bytes_moved == 300
        assert pts["zgetrf"].bytes_moved == 100


class TestFeastByteModel:
    """The FEAST contour-solve byte model must equal the ledger exactly.

    The model prices what the FEAST iteration actually moves: one reduced
    contour factorization per quadrature point (``num_solves`` LU factors
    of the n x n reduced system), the resolvent applies against the
    current subspace width (logged per refinement iteration in
    ``solve_widths``), and the Rayleigh-Ritz generalized eigensolves on
    the projected blocks (``rr_sizes``).
    """

    def _chain_pevp(self, energy=0.5):
        from tests.test_obc_polynomial import chain_lead
        return chain_lead(energy=energy)[1]

    def test_exact_on_solo_solve(self):
        from repro.obc.feast import feast_annulus

        pevp = self._chain_pevp()
        with ledger_scope() as led:
            res = feast_annulus(pevp, r_outer=3.0, seed=5)
        assert kernel_bytes(feast_kernels(
            pevp.n, res.num_solves, res.solve_widths, res.rr_sizes)) \
            == led.total_bytes

    def test_exact_on_banded_random_pevp(self):
        from repro.obc.feast import feast_annulus
        from tests.test_obc_polynomial import random_pevp

        pevp = random_pevp(n=3, nbw=2, energy=0.15, seed=7)
        with ledger_scope() as led:
            res = feast_annulus(pevp, r_outer=3.0, seed=5)
        assert res.num_solves > 0 and len(res.solve_widths) >= 1
        assert kernel_bytes(feast_kernels(
            pevp.n, res.num_solves, res.solve_widths, res.rr_sizes)) \
            == led.total_bytes

    def test_geig_bytes_formula(self):
        assert kernel_cost("geig", (6,))[1] == 4 * 6 * 6 * 16
        assert kernel_cost("geig", (6,), is_complex=False)[1] \
            == 4 * 6 * 6 * 8

    def test_obc_feast_stage_reports_predicted_bytes(self):
        # the pipeline's OBC stage metadata carries the model prediction
        from repro.hamiltonian import build_device
        from repro.obc.selfenergy import compute_open_boundary
        from repro.structure import linear_chain
        from tests.test_hamiltonian import single_s_basis

        dev = build_device(linear_chain(4, 0.25), single_s_basis(), 4)
        with ledger_scope() as led:
            ob = compute_open_boundary(dev.lead, -0.45, method="feast",
                                       seed=3)
        assert ob.info["predicted_bytes"] == led.total_bytes
