"""Tests for the multi-bias production driver."""

import numpy as np
import pytest

from repro.core.production import run_production
from repro.structure import linear_chain
from repro.utils.errors import ConfigurationError
from tests.test_hamiltonian import single_s_basis


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
        the final grid - reads one scan of the lead bands, and is bitwise
        the grid ``adaptive_energy_grid`` scans for itself."""
        import repro.core.energygrid as grid_mod
        import repro.core.production as production_mod
        import repro.poisson.scf as scf_mod

        scans, grids = [], {scf_mod: [], production_mod: []}
        real_scan = grid_mod.lead_band_structure
        monkeypatch.setattr(
            grid_mod, "lead_band_structure",
            lambda *a, **kw: scans.append(1) or real_scan(*a, **kw))
        real_spectrum = scf_mod.compute_spectrum
        for mod, seen in grids.items():
            monkeypatch.setattr(
                mod, "compute_spectrum",
                lambda *a, _seen=seen, **kw: _seen.append(a[3])
                or real_spectrum(*a, **kw))
        chain = linear_chain(6, 0.25)
        run_production(chain, single_s_basis(), 6, [0.0, 0.1], -0.5,
                       (-1.0, -0.4), scf_kwargs=dict(max_iter=1))
        assert len(scans) == 1
        monkeypatch.setattr(grid_mod, "lead_band_structure", real_scan)
        from repro.hamiltonian import build_device
        lead = build_device(chain, single_s_basis(), 6).lead
        for mod, max_spacing in ((scf_mod, 0.05), (production_mod, 0.04)):
            want = grid_mod.adaptive_energy_grid(
                lead, -1.0, -0.4, min_spacing=5e-3, max_spacing=max_spacing)
            assert len(grids[mod]) == 2
            for got in grids[mod]:
                assert got.tobytes() == want.tobytes()
