"""Tests for the per-figure/table experiment modules.

Each experiment must run at laptop scale, reproduce its paper-shape
criterion, and render a report.  Heavyweight defaults are overridden for
test speed; the benchmarks exercise the full defaults.
"""

import numpy as np
import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    fig1b_transmission,
    fig1d_transfer,
    fig1ef_anode,
    fig3_sparsity,
    fig5_feast,
    fig6_phases,
    fig7_splitsolve_scaling,
    fig8_algorithms,
    fig10_nwfet,
    fig11_scaling_tables,
    fig12_power,
    table1_machines,
    time_to_solution,
)


class TestRegistry:
    def test_every_experiment_registered(self):
        assert len(ALL_EXPERIMENTS) == 13
        for mod in ALL_EXPERIMENTS.values():
            assert hasattr(mod, "run")
            assert hasattr(mod, "report")


class TestTable1:
    def test_matches_paper_exactly(self):
        res = table1_machines.run()
        for name, row in res["machines"].items():
            paper = res["paper"][name]
            assert row["nodes"] == paper["nodes"]
            assert row["cores"] == paper["cores"]
            assert row["node_perf"] == paper["node_perf"]
        assert "Titan" in table1_machines.report(res)


class TestFig1b:
    @pytest.fixture(scope="class")
    def results(self):
        return fig1b_transmission.run(num_energies=13)

    def test_hse_gap_wider(self, results):
        assert results["gap_hse06"] > results["gap_lda"]
        assert results["gap_opening"] == pytest.approx(
            results["scissor_delta"], abs=0.1)

    def test_transmission_gap_wider(self, results):
        e = results["energies"]
        g_l = fig1b_transmission.transmission_gap(
            e, results["transmission"]["lda"])
        g_h = fig1b_transmission.transmission_gap(
            e, results["transmission"]["hse06"])
        assert g_h > g_l

    def test_report_flags_reproduced(self, results):
        assert "REPRODUCED" in fig1b_transmission.report(results)


class TestFig1d:
    def test_current_monotonic_in_vgs(self):
        res = fig1d_transfer.run(vgs=(0.0, 0.2, 0.4), length_cells=16)
        currents = [p.current for p in res["points"]]
        assert currents[0] < currents[1] < currents[2]
        assert res["subthreshold_swing_mv_dec"] > 55.0
        assert "Vgs" in fig1d_transfer.report(res)

    def test_utb_mode_with_kpoints(self):
        """The paper's actual geometry: z-periodic film, k-integrated."""
        res = fig1d_transfer.run(mode="utb", vgs=(0.0, 0.3),
                                 length_cells=4, num_k=3)
        currents = [p.current for p in res["points"]]
        assert currents[1] > currents[0] > 0


class TestFig1ef:
    @pytest.fixture(scope="class")
    def results(self):
        return fig1ef_anode.run(num_energies=3)

    def test_expansion_linear(self, results):
        caps = results["capacities"]
        v = [results["expansion"][c] for c in caps]
        # linear trend: second differences ~ 0
        d2 = np.diff(v, n=2)
        np.testing.assert_allclose(d2, 0.0, atol=1e-6)

    def test_lithiation_blocks_current(self, results):
        t = results["transmission"]
        caps = sorted(t)
        assert t[caps[-1]] < 0.5 * t[caps[0]]
        assert t[caps[0]] > 0.5  # pristine electrode conducts

    def test_report(self, results):
        assert "REPRODUCED" in fig1ef_anode.report(results)


class TestFig3:
    def test_ratio_large(self):
        res = fig3_sparsity.run(tbody_nm=1.0, length_cells=3)
        assert res["ratio"] > 20
        assert "nnz ratio" in fig3_sparsity.report(res)


class TestFig5:
    def test_selection_exact(self):
        res = fig5_feast.run()
        assert res["feast_found"] == res["dense_inside"]
        assert res["feast_max_residual"] < 1e-8
        assert "REPRODUCED" in fig5_feast.report(res)


class TestFig6:
    def test_phases_and_activity(self):
        res = fig6_phases.run(num_blocks=16, block_size=12,
                              num_partitions=4)
        assert "P1-P4 local inversion" in res["phase_times"]
        assert res["num_devices"] == 8
        assert len(res["activity"]) == 8
        assert res["total_flops"] > 0
        assert "Fig. 12(b)" in fig6_phases.report(res)


class TestFig7:
    def test_modelled_weak_scaling_matches_paper(self):
        res = fig7_splitsolve_scaling.run_modelled()
        rows = res["weak_model"]
        # paper: 30 s at 2 GPUs, 70 s at 32 GPUs, ~10 s per merge step
        assert 20 < rows[2] < 60
        assert rows[32] > rows[2]
        assert 5 < res["modelled_spike_step_s"] < 20

    def test_measured_strong_scaling_saturates(self):
        """Fig. 7(b)'s point: too little work for many partitions."""
        res = fig7_splitsolve_scaling.run_measured(
            block_size=16, blocks_per_partition=4, partitions=(1, 2),
            strong_blocks=8, repeats=1)
        assert set(res["weak"]) == {1, 2}
        assert all(t > 0 for t in res["weak"].values())
        assert "weak" in res and "strong" in res


class TestFig8:
    @pytest.fixture(scope="class")
    def results(self):
        # tb basis keeps the test fast; the 3sp default is benched
        return fig8_algorithms.run(basis="tb", num_cells=8, repeats=1)

    def test_all_pipelines_agree(self, results):
        ts = list(results["transmissions"].values())
        assert max(ts) - min(ts) < 1e-4

    def test_feast_beats_shift_invert(self, results):
        # on the exact ledger counts: the wall-clock ratios next to them
        # move with the host's load and BLAS threading
        obc, solver = results["obc_flops"], results["solver_flops"]
        assert obc["shift_invert+direct"] > 2.0 * obc["feast+direct"]
        assert obc["shift_invert+direct"] + solver["shift_invert+direct"] \
            > 1.5 * (obc["feast+splitsolve"] + solver["feast+splitsolve"])

    def test_simulated_node_ordering(self, results):
        nt = results["node_times"]
        assert nt["feast+splitsolve"] < nt["shift_invert+direct"]

    def test_report(self, results):
        assert "speedup" in fig8_algorithms.report(results)


class TestFig10:
    @pytest.fixture(scope="class")
    def results(self):
        return fig10_nwfet.run(num_cells=6, num_energies=7)

    def test_gate_region_depleted(self, results):
        dens = results["density_slab"]
        assert dens[len(dens) // 2] < 0.5 * dens[0]

    def test_current_conserved(self, results):
        prof = results["current_profile"]
        np.testing.assert_allclose(prof, prof[0], rtol=1e-6, atol=1e-12)

    def test_spectral_peak_in_window(self, results):
        spec = results["spectral_current"]
        e = results["energies"]
        e_peak = e[int(np.argmax(spec.mean(axis=1)))]
        assert results["conduction_edge"] - 0.05 <= e_peak
        assert e_peak <= (results["conduction_edge"]
                          + results["barrier_ev"] + 0.1)


class TestFig11Tables:
    @pytest.fixture(scope="class")
    def results(self):
        return fig11_scaling_tables.run()

    def test_table2_e_per_node_band(self, results):
        for row in results["weak"]:
            assert 11.5 < row.avg_e_per_node < 15.5

    def test_table3_matches_paper_rows(self, results):
        """Time within 10%, efficiency within 2.5 points, PF within 10%."""
        for est, eff, paper in zip(results["strong"],
                                   results["strong_efficiency"],
                                   fig11_scaling_tables.PAPER_TABLE3):
            assert abs(est.wall_time_s - paper[1]) / paper[1] < 0.10
            assert abs(eff * 100 - paper[2]) < 2.5
            assert abs(est.sustained_pflops - paper[3]) / paper[3] < 0.10

    def test_efficiency_monotone_decline(self, results):
        eff = results["strong_efficiency"]
        assert all(b <= a + 1e-9 for a, b in zip(eff, eff[1:]))

    def test_report(self, results):
        out = fig11_scaling_tables.report(results)
        assert "Table II" in out and "Table III" in out


class TestFig12:
    def test_power_figures_near_paper(self):
        res = fig12_power.run()
        assert abs(res["avg_machine_mw"] - 7.6) < 1.5
        assert abs(res["avg_gpu_w"] - 146.0) < 25.0
        assert 3500 < res["gpu_mflops_w"] < 7000
        assert 1200 < res["machine_mflops_w"] < 2800
        assert "MFLOPS/W" in fig12_power.report(res)


class TestTimeToSolution:
    def test_near_paper_numbers(self):
        res = time_to_solution.run()
        assert 50 < res["time_per_point_s"] < 200  # paper: 102 s
        assert res["sc_iteration_min"] < 10.0      # paper: < 10 min
        assert res["cpu_machine_slowdown"] > 2.0   # paper: 3x
        assert "102" in time_to_solution.report(res)
