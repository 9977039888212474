"""Tests for the potential-invariant device family and its boundary memo.

The acceptance bar of the shared open-boundary memo: a run that solves
each lead's Sigma^RB(E) once is hex-equal to one that recomputes every
boundary in every spectrum, on every backend; the memo never aliases two
leads; it lives with the run and not with the process; and hits are
accounted as stages with nothing solved.
"""

import copy
import sys

import numpy as np
import pytest

from repro.basis import tight_binding_set
from repro.core.production import run_production
from repro.core.runner import compute_spectrum
from repro.hamiltonian import build_device
from repro.linalg import ledger_scope
from repro.observability.spans import SpanTracer, tracing
from repro.parallel import ThreadTaskRunner
from repro.pipeline import TransportPipeline
from repro.pipeline.cache import BoundaryMemo, DeviceCache, DeviceFamily
from repro.poisson.scf import schroedinger_poisson
from repro.structure import linear_chain, silicon_utb_film
from repro.utils.errors import ConfigurationError
from tests.helpers import stage_flops, stage_spans
from tests.test_hamiltonian import single_s_basis


CELLS = 8
WINDOW = (-1.2, -0.2)
BIAS = [0.0, 0.1]

BACKENDS = [
    dict(),
    dict(energy_batch_size=16),
    dict(backend="thread", num_workers=2),
    dict(backend="thread", num_workers=2, energy_batch_size=16),
    dict(backend="process", num_workers=2),
    dict(backend="process", num_workers=2, energy_batch_size=16),
]


def _chain():
    return linear_chain(CELLS, 0.25)


def _production(**kwargs):
    # three SCF iterations per bias point: parity needs the loop, not
    # its convergence
    return run_production(_chain(), single_s_basis(), CELLS, BIAS,
                          mu_source=-0.6, e_window=WINDOW,
                          scf_kwargs=dict(max_iter=3), **kwargs)


def _scf(**kwargs):
    return schroedinger_poisson(_chain(), single_s_basis(), CELLS,
                                mu_l=-0.6, mu_r=-0.7, e_window=WINDOW,
                                mixing=0.3, max_iter=4,
                                density_scale=0.02, **kwargs)


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _production_digest(result):
    return [(p.vds, float(p.current).hex(), p.scf_iterations, p.converged,
             _hex(p.potential)) for p in result.points]


def _scf_digest(result):
    return (_hex(result.residuals), result.iterations, result.converged,
            _hex(result.potential_atom), _hex(result.density_atom))


def _private_cache(self, ik, potential=None):
    """``DeviceFamily.cache`` as it was before the family: every cache
    recomputes its own boundaries."""
    dev = self.devices[ik]
    if potential is not None:
        dev = dev.with_potential(potential)
    return DeviceCache(dev)


@pytest.fixture(scope="module")
def reference_digests():
    """Serial per-point runs on private memos (the pre-family behaviour)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DeviceFamily, "cache", _private_cache)
        return _production_digest(_production()), _scf_digest(_scf())


class TestSharedFamilyParity:
    @pytest.mark.parametrize("kwargs", BACKENDS,
                             ids=lambda k: "-".join(map(str, k.values()))
                             or "serial")
    def test_production_hex_equal_to_private_memos(self, reference_digests,
                                                   kwargs):
        assert _production_digest(_production(**kwargs)) \
            == reference_digests[0]

    @pytest.mark.parametrize("batch", [1, 16])
    @pytest.mark.parametrize("backend", [None, "thread", "process"])
    def test_scf_hex_equal_to_private_memos(self, reference_digests,
                                            backend, batch):
        from repro.parallel import close_task_runner, make_task_runner
        runner = None if backend is None else make_task_runner(backend, 2)
        try:
            out = _scf(task_runner=runner, energy_batch_size=batch)
        finally:
            if runner is not None:
                close_task_runner(runner)
        assert _scf_digest(out) == reference_digests[1]

    def test_scf_resume_reproduces_uninterrupted(self, tmp_path):
        full = _scf()
        assert full.iterations > 2
        path = tmp_path / "scf.npz"
        part = schroedinger_poisson(
            _chain(), single_s_basis(), CELLS, mu_l=-0.6, mu_r=-0.7,
            e_window=WINDOW, mixing=0.3, max_iter=2, density_scale=0.02,
            checkpoint=path)
        assert not part.converged
        resumed = _scf(checkpoint=path)
        assert _scf_digest(resumed) == _scf_digest(full)


def _traced(fn):
    tracer = SpanTracer()
    with tracing(tracer):
        with ledger_scope() as led:
            out = fn()
    obc = [sp for sp in tracer.records()
           if sp.category == "stage" and sp.name == "OBC"]
    return out, tracer.metrics, led, obc


class TestAccounting:
    def test_serial_counters_and_flops(self):
        shared, m, led, obc = _traced(_production)
        iterations = sum(p.scf_iterations for p in shared.points)
        lead = build_device(_chain(), single_s_basis(), CELLS).lead
        from repro.core.energygrid import (FINAL_GRID, SCF_GRID,
                                           adaptive_energy_grid)
        inner = adaptive_energy_grid(lead, *WINDOW, **SCF_GRID)
        final = adaptive_energy_grid(lead, *WINDOW, **FINAL_GRID)
        points = iterations * len(inner) + len(BIAS) * len(final)
        distinct = len(set(inner) | set(final))
        assert len(obc) == points
        assert m.counter("obc_point_cache_misses").value == distinct
        assert m.counter("obc_point_cache_hits").value == points - distinct
        assert sum(sp.flops == 0 for sp in obc) == points - distinct

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DeviceFamily, "cache", _private_cache)
            ref, m_ref, led_ref, obc_ref = _traced(_production)
        assert _production_digest(ref) == _production_digest(shared)
        assert m_ref.counter("obc_point_cache_misses").value == points
        assert m_ref.counter("obc_point_cache_hits").value == 0
        assert [sp.attrs["energy_indices"] for sp in obc] \
            == [sp.attrs["energy_indices"] for sp in obc_ref]
        skipped = sum(r.flops for r, s in zip(obc_ref, obc)
                      if s.flops == 0)
        assert skipped > 0
        assert all(r.flops == s.flops for r, s in zip(obc_ref, obc)
                   if s.flops)
        assert led_ref.total_flops - led.total_flops == skipped

    def test_batch_hits_carry_no_weight_and_no_predicted_bytes(self):
        pipe = TransportPipeline(obc_method="feast", solver="rgf",
                                 obc_kwargs={"seed": 3})
        dev = build_device(_chain(), single_s_basis(), CELLS)
        cache = pipe.cache(dev)
        energies = [-0.9, -0.7, -0.5, -0.3]
        pipe.solve_batch(cache, energies[:2])
        with tracing() as tracer, ledger_scope() as led:
            pipe.solve_batch(cache, energies)
        stages = stage_spans(tracer, "OBC")
        assert [st.attrs.get("reused", False) for st in stages] \
            == [True, True, False, False]
        assert stages[0].flops == stages[1].flops == 0
        assert stages[0].bytes_moved == stages[1].bytes_moved == 0
        assert stages[2].flops > 0 and stages[3].flops > 0
        assert "predicted_bytes" not in stages[0].attrs
        assert "predicted_bytes" in stages[2].attrs
        assert stage_flops(tracer) == led.total_flops

    def test_point_hit_marked_reused(self):
        pipe = TransportPipeline(obc_method="dense", solver="rgf")
        cache = pipe.cache(build_device(_chain(), single_s_basis(), CELLS))
        with tracing() as tracer:
            first = pipe.solve_point(cache, -0.5)
            again = pipe.solve_point(cache, -0.5)
        first_obc, again_obc = stage_spans(tracer, "OBC")
        assert "reused" not in first_obc.attrs
        assert again_obc.attrs["reused"] is True
        assert again_obc.flops == 0
        assert again.boundary is first.boundary

    def test_standalone_spectra_share_nothing(self):
        def spectrum():
            with ledger_scope() as led:
                spec = compute_spectrum(_chain(), single_s_basis(), CELLS,
                                        [-0.9, -0.5], obc_method="dense",
                                        solver="rgf")
            return spec, led.total_flops
        (a, flops_a), (b, flops_b) = spectrum(), spectrum()
        assert flops_a == flops_b > 0
        assert np.array_equal(a.transmission, b.transmission)
        assert a.results[0].boundary is not b.results[0].boundary


class TestMemoKeys:
    def test_perturbed_lead_never_aliases(self):
        dev = build_device(_chain(), single_s_basis(), CELLS)
        other = copy.copy(dev)
        other.lead = copy.deepcopy(dev.lead)
        other.lead.h_cells[0][0, 0] += 1e-9
        memo = BoundaryMemo()
        a = DeviceCache(dev, memo=memo)
        b = DeviceCache(other, memo=memo)
        ob_a = a.boundary(-0.5, "dense")
        ob_b = b.boundary(-0.5, "dense")
        assert ob_a is not ob_b
        assert not np.array_equal(ob_a.sigma_l, ob_b.sigma_l)
        assert len(memo) == 2
        assert DeviceCache(dev, memo=memo).boundary(-0.5, "dense") is ob_a

    def test_film_kpoints_never_alias(self):
        family = DeviceFamily(silicon_utb_film(0.8, 3), tight_binding_set(),
                              3, num_k=3)
        assert len(family.devices) == 2
        c0, c1 = family.caches()
        ob0 = c0.boundary(-4.0, "dense")
        ob1 = c1.boundary(-4.0, "dense")
        assert ob0 is not ob1
        assert not np.array_equal(ob0.sigma_l, ob1.sigma_l)
        assert len(family.memo) == 2
        # a second potential's caches read the same two entries
        d0, d1 = family.caches(np.zeros(family.structure.num_atoms))
        assert d0.boundary(-4.0, "dense") is ob0
        assert d1.boundary(-4.0, "dense") is ob1
        assert len(family.memo) == 2

    def test_unhashable_kwargs_disable_sharing(self):
        family = DeviceFamily(_chain(), single_s_basis(), CELLS)
        cache = family.cache(0)
        a = cache.boundary(-0.5, "feast", seed=[7])
        b = cache.boundary(-0.5, "feast", seed=[7])
        assert a is not b
        assert np.array_equal(a.sigma_l, b.sigma_l)
        ob, reused = cache.lookup_boundary(-0.5, "feast", seed=[7])
        assert not reused
        assert np.array_equal(ob.sigma_l, a.sigma_l)
        assert len(family.memo) == 0

    def test_family_rejects_other_inputs(self):
        chain = _chain()
        basis = single_s_basis()
        family = DeviceFamily(chain, basis, CELLS)
        compute_spectrum(chain, basis, CELLS, [-0.5], obc_method="dense",
                         solver="rgf", family=family)
        with pytest.raises(ConfigurationError):
            compute_spectrum(_chain(), basis, CELLS, [-0.5],
                             obc_method="dense", solver="rgf",
                             family=family)
        with pytest.raises(ConfigurationError):
            compute_spectrum(chain, basis, CELLS, [-0.5], num_k=3,
                             obc_method="dense", solver="rgf",
                             family=family)

    def test_even_kgrid_keeps_gamma_device(self):
        family = DeviceFamily(_chain(), single_s_basis(), CELLS, num_k=2)
        assert family.kgrid[0, 0] != 0.0
        gamma = family.gamma_device()
        assert gamma.kpoint == (0.0, 0.0)
        assert family.gamma_device() is gamma
        odd = DeviceFamily(_chain(), single_s_basis(), CELLS, num_k=3)
        assert odd.gamma_device() is odd.devices[0]


class TestThreads:
    def test_four_threads_get_one_object_per_key(self):
        family = DeviceFamily(_chain(), single_s_basis(), CELLS)
        energies = [-0.9, -0.7, -0.5, -0.3]
        caches = [family.cache(0, np.full(CELLS, 0.0)) for _ in range(4)]

        def task(cache):
            return lambda: [cache.boundary(e, "dense") for e in energies
                            for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)    # force interleaving inside the memo
        try:
            out = ThreadTaskRunner(4)([task(c) for c in caches
                                       for _ in range(4)])
        finally:
            sys.setswitchinterval(interval)
        assert len(family.memo) == len(energies)
        for got in out:
            for j, ob in enumerate(got):
                assert ob is out[0][j]


class TestTraceCli:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_trace_smoke_reconciles(self, tmp_path, capsys, backend):
        from repro.__main__ import main
        assert main(["trace", "--smoke", "--backend", backend,
                     "--out", str(tmp_path / "trace.json")]) == 0
        assert "EXACT" in capsys.readouterr().out
