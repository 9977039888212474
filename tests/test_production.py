"""Tests for the multi-bias production driver."""

import numpy as np
import pytest

from repro.core.production import run_production
from repro.observability.spans import tracing
from repro.structure import linear_chain
from repro.utils.errors import CheckpointError, ConfigurationError
from tests.test_hamiltonian import single_s_basis
from tests.helpers import stage_spans


@pytest.fixture(scope="module")
def iv_result():
    chain = linear_chain(8, 0.25)
    return run_production(chain, single_s_basis(), 8,
                          bias_points=[0.0, 0.1, 0.2],
                          mu_source=-0.6, e_window=(-1.8, -0.2),
                          num_nodes=8)


class TestProduction:
    def test_points_sequential_and_complete(self, iv_result):
        assert len(iv_result.points) == 3
        assert [p.vds for p in iv_result.points] == [0.0, 0.1, 0.2]
        assert all(p.scf_iterations >= 1 for p in iv_result.points)

    def test_zero_bias_zero_current(self, iv_result):
        assert iv_result.points[0].current == pytest.approx(0.0, abs=1e-15)

    def test_current_grows_with_bias(self, iv_result):
        i = [p.current for p in iv_result.points]
        assert i[2] > i[1] > i[0]

    def test_balancer_learned_across_points(self, iv_result):
        assert iv_result.balancer is not None
        assert len(iv_result.balancer.history) == 3
        dist = iv_result.balancer.current_distribution()
        assert dist.nodes_per_k.sum() == 8

    def test_iv_table_renders(self, iv_result):
        table = iv_result.iv_table()
        assert "Vds" in table and "0.200" in table

    def test_potential_flat_at_contacts(self, iv_result):
        for p in iv_result.points:
            assert p.potential[0] == 0.0
            assert p.potential[-1] == 0.0

    def test_empty_bias_rejected(self):
        chain = linear_chain(6, 0.25)
        with pytest.raises(ConfigurationError):
            run_production(chain, single_s_basis(), 6, [], -0.5,
                           (-1.5, -0.3))


class TestTemperature:
    def _sweep(self, temperature_k, **kwargs):
        return run_production(linear_chain(8, 0.25), single_s_basis(), 8,
                              bias_points=[0.1], mu_source=-0.6,
                              e_window=(-1.8, -0.2),
                              temperature_k=temperature_k, **kwargs)

    def test_scf_charge_is_integrated_at_the_sweep_temperature(self):
        """Regression: the SCF loop kept 300 K whatever the sweep's
        ``temperature_k``, so only the final current saw 77 K."""
        cold, warm = self._sweep(77.0), self._sweep(300.0)
        assert not np.array_equal(cold.points[0].potential,
                                  warm.points[0].potential)

    def test_conflicting_scf_temperature_rejected(self):
        with pytest.raises(ConfigurationError, match="temperature_k"):
            self._sweep(77.0, scf_kwargs=dict(temperature_k=300.0))

    def test_record_is_of_one_temperature(self, tmp_path):
        from repro.runtime.checkpoint import CheckpointStore
        path = tmp_path / "sweep.npz"
        kw = dict(checkpoint=path, scf_kwargs=dict(max_iter=1))
        self._sweep(77.0, **kw)
        with pytest.raises(CheckpointError, match="temperature_k"):
            self._sweep(300.0, **kw)
        store = CheckpointStore(path)
        state = store.load("sweep")
        del state["temperature_k"]
        store.save("sweep", **state)
        with pytest.raises(CheckpointError, match="temperature_k"):
            self._sweep(77.0, **kw)


class TestSweepSharesOneFamily:
    def test_device_built_once_and_boundaries_solved_once(self, monkeypatch):
        """The whole sweep - every SCF iteration and final spectrum of
        every bias point - runs on one device build and solves each
        distinct boundary once."""
        import repro.pipeline.cache as cache_mod
        from repro.observability.spans import SpanTracer, tracing

        builds = []
        real = cache_mod.real_space_device
        monkeypatch.setattr(
            cache_mod, "real_space_device",
            lambda *a, **kw: builds.append(1) or real(*a, **kw))
        tracer = SpanTracer()
        with tracing(tracer):
            out = run_production(linear_chain(6, 0.25), single_s_basis(), 6,
                                 [0.0, 0.1], -0.5, (-1.0, -0.4),
                                 scf_kwargs=dict(max_iter=2))
        assert len(builds) == 1
        spectra = sum(p.scf_iterations + 1 for p in out.points)
        assert spectra == 6
        misses = tracer.metrics.counter("obc_point_cache_misses").value
        hits = tracer.metrics.counter("obc_point_cache_hits").value
        stages = sum(sp.category == "stage" and sp.name == "OBC"
                     for sp in tracer.records())
        assert hits + misses == stages
        # two grids (inner, final) asked three times over: a spectrum's
        # worth of misses at most twice, everything else is a hit
        assert hits >= 2 * misses

    def test_lead_bands_scanned_once_and_grids_unchanged(self, monkeypatch):
        """Every grid of the sweep - the SCF grid of each bias point and
        the final grid - reads one scan of the lead bands (31 k-points,
        one eigensolve each), and is bitwise the grid
        ``adaptive_energy_grid`` scans for itself on a fresh lead."""
        from types import SimpleNamespace

        import repro.core.energygrid as grid_mod
        import repro.core.production as production_mod

        eigensolves, grids = [], []
        real_sla = grid_mod.sla
        monkeypatch.setattr(grid_mod, "sla", SimpleNamespace(
            eigvalsh=lambda *a, **kw: eigensolves.append(1)
            or real_sla.eigvalsh(*a, **kw)))
        # every spectrum of the sweep is a call of its one transport
        real_spectrum = production_mod.compute_spectrum
        monkeypatch.setattr(
            production_mod, "compute_spectrum",
            lambda *a, **kw: grids.append(a[3]) or real_spectrum(*a, **kw))
        chain = linear_chain(6, 0.25)
        run_production(chain, single_s_basis(), 6, [0.0, 0.1], -0.5,
                       (-1.0, -0.4), scf_kwargs=dict(max_iter=1))
        assert len(eigensolves) == 31
        monkeypatch.setattr(grid_mod, "sla", real_sla)
        from repro.hamiltonian import build_device
        lead = build_device(chain, single_s_basis(), 6).lead
        scf, final = (grid_mod.adaptive_energy_grid(lead, -1.0, -0.4,
                                                    **spacing).tobytes()
                      for spacing in (grid_mod.SCF_GRID,
                                      grid_mod.FINAL_GRID))
        # per bias point: one SCF iteration, then the final spectrum
        assert [got.tobytes() for got in grids] == [scf, final] * 2


class TestOneConfiguration:
    """A sweep is configured once: the SCF defaults are one set, and one
    transport callable solves every SCF iteration and final spectrum."""

    SWEEP = dict(mu_source=-0.6, e_window=(-1.8, -0.2))

    def test_scf_defaults_are_the_sweeps(self):
        chain, basis, vds = linear_chain(8, 0.25), single_s_basis(), 0.1
        point = run_production(chain, basis, 8, [vds],
                               **self.SWEEP).points[0]
        from repro.poisson.scf import schroedinger_poisson
        alone = schroedinger_poisson(
            chain, basis, 8, mu_l=self.SWEEP["mu_source"],
            mu_r=self.SWEEP["mu_source"] - vds,
            e_window=self.SWEEP["e_window"])
        assert alone.iterations == point.scf_iterations
        assert alone.converged == point.converged
        assert alone.potential_atom.tobytes() == point.potential.tobytes()

    def test_scf_kwargs_method_reaches_every_spectrum(self, monkeypatch):
        import repro.core.production as production_mod

        spectra, calls = [], []
        real = production_mod.compute_spectrum

        def traced(*args, **kwargs):
            # each spectrum's stage spans, one tracer per call
            with tracing() as tracer:
                spectra.append(real(*args, **kwargs))
            calls.append(tracer)
            return spectra[-1]

        monkeypatch.setattr(production_mod, "compute_spectrum", traced)
        method = dict(obc_method="feast", solver="splitsolve")
        out = run_production(linear_chain(8, 0.25), single_s_basis(), 8,
                             [0.1], scf_kwargs=dict(max_iter=2, **method),
                             **self.SWEEP)
        # the SCF iterations, then the final spectrum
        assert len(spectra) == out.points[0].scf_iterations + 1 == 3
        assert len(calls) == len(spectra)
        for spec, spans in zip(spectra, calls):
            obc = stage_spans(spans, "OBC")
            assert len(obc) == spec.transmission.size
            assert all(sp.attrs["method"] == "feast" for sp in obc)
            assert all(sp.attrs["solver"] == "splitsolve"
                       for sp in stage_spans(spans, "SOLVE"))
        assert stage_spans(calls[-1], "SOLVE")
