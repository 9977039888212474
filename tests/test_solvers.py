"""Cross-validation of all four transport solvers.

The central invariant of the repo: SplitSolve == RGF == BCR == sparse
direct == dense solve on the same (E S - H - Sigma^RB) x = Inj system.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import BlockTridiagonalMatrix, ledger_scope
from repro.solvers import (
    SparseDirectSolver,
    SplitSolve,
    assemble_t,
    boundary_rhs,
    rgf_greens_blocks,
    solve_bcr,
    solve_direct,
    solve_rgf,
)
from repro.solvers.splitsolve import boundary_columns
from repro.utils.errors import ConfigurationError, ShapeError
from tests.helpers import make_confined_btd
from tests.test_blocktridiag import make_btd


def make_system(nb=8, bs=3, seed=0, hermitian=False):
    """Well-conditioned random test system (A, sigma_l, sigma_r, rhs)."""
    rng = np.random.default_rng(seed)
    a = make_btd([bs] * nb, seed=seed, cplx=True, hermitian=hermitian)
    for d in a.diag:
        d += 4 * bs * np.eye(bs)  # diagonal dominance
    sigma_l = 0.3 * (rng.standard_normal((bs, bs))
                     + 1j * rng.standard_normal((bs, bs)))
    sigma_r = 0.3 * (rng.standard_normal((bs, bs))
                     + 1j * rng.standard_normal((bs, bs)))
    b_top = rng.standard_normal((bs, 2)) + 1j * rng.standard_normal((bs, 2))
    b_bot = rng.standard_normal((bs, 1)) + 1j * rng.standard_normal((bs, 1))
    return a, sigma_l, sigma_r, b_top, b_bot


def dense_reference(a, sigma_l, sigma_r, b_top, b_bot):
    t = assemble_t(a, sigma_l, sigma_r)
    rhs = boundary_rhs(a.block_sizes, b_top, b_bot)
    return np.linalg.solve(t.to_dense(), rhs), t, rhs


class TestAssemble:
    def test_corners_modified_only(self):
        a, sl, sr, *_ = make_system()
        t = assemble_t(a, sl, sr)
        np.testing.assert_allclose(t.diag[0], a.diag[0] - sl)
        np.testing.assert_allclose(t.diag[-1], a.diag[-1] - sr)
        np.testing.assert_allclose(t.diag[1], a.diag[1])
        # original untouched
        assert not np.allclose(a.diag[0], t.diag[0])

    def test_shape_checks(self):
        a, sl, sr, *_ = make_system()
        with pytest.raises(ShapeError):
            assemble_t(a, np.eye(2), sr)
        with pytest.raises(ShapeError):
            boundary_rhs(a.block_sizes, np.zeros((2, 1)), np.zeros((3, 1)))

    def test_rhs_structure(self):
        rhs = boundary_rhs([2, 2, 2], np.ones((2, 1)), 2 * np.ones((2, 1)))
        assert rhs.shape == (6, 2)
        np.testing.assert_allclose(rhs[:2, 0], 1)
        np.testing.assert_allclose(rhs[4:, 1], 2)
        assert np.all(rhs[2:4, :] == 0)


class TestDirect:
    def test_matches_dense(self):
        a, sl, sr, bt, bb = make_system(seed=1)
        x_ref, t, rhs = dense_reference(a, sl, sr, bt, bb)
        x = solve_direct(t, rhs)
        np.testing.assert_allclose(x, x_ref, atol=1e-9)

    def test_reuse_factorization(self):
        a, sl, sr, bt, bb = make_system(seed=2)
        x_ref, t, rhs = dense_reference(a, sl, sr, bt, bb)
        solver = SparseDirectSolver(t)
        np.testing.assert_allclose(solver.solve(rhs), x_ref, atol=1e-9)
        np.testing.assert_allclose(solver.solve(2 * rhs), 2 * x_ref,
                                   atol=1e-9)

    def test_records_flops_and_fill(self):
        a, sl, sr, bt, bb = make_system(seed=3)
        t = assemble_t(a, sl, sr)
        with ledger_scope() as led:
            solver = SparseDirectSolver(t)
        assert led.flops_by_kernel["zlu_sparse"] > 0
        assert solver.fill_nnz >= t.to_sparse().nnz // 2


class TestRgf:
    def test_matches_dense(self):
        a, sl, sr, bt, bb = make_system(seed=4)
        x_ref, t, rhs = dense_reference(a, sl, sr, bt, bb)
        np.testing.assert_allclose(solve_rgf(t, rhs), x_ref, atol=1e-9)

    def test_vector_rhs(self):
        a, sl, sr, bt, bb = make_system(seed=5)
        x_ref, t, rhs = dense_reference(a, sl, sr, bt, bb)
        x = solve_rgf(t, rhs[:, 0])
        np.testing.assert_allclose(x, x_ref[:, 0], atol=1e-9)

    def test_nonuniform_blocks(self):
        a = make_btd([2, 4, 3, 2], seed=6, cplx=True)
        for d in a.diag:
            d += 10 * np.eye(d.shape[0])
        rhs = np.random.default_rng(7).standard_normal((11, 2))
        x = solve_rgf(a, rhs)
        np.testing.assert_allclose(a.to_dense() @ x, rhs, atol=1e-9)

    def test_shape_error(self):
        a, sl, sr, *_ = make_system()
        with pytest.raises(ShapeError):
            solve_rgf(a, np.ones(5))

    def test_greens_blocks_match_dense_inverse(self):
        a, sl, sr, bt, bb = make_system(nb=5, bs=2, seed=8)
        t = assemble_t(a, sl, sr)
        g = np.linalg.inv(t.to_dense())
        g_diag, g_first, g_last = rgf_greens_blocks(t)
        offs = t.block_offsets()
        for i in range(t.num_blocks):
            sl_i = slice(offs[i], offs[i + 1])
            np.testing.assert_allclose(g_diag[i], g[sl_i, offs[0]:offs[1]]
                                       if False else g[sl_i, sl_i],
                                       atol=1e-9)
            np.testing.assert_allclose(g_first[i], g[sl_i, offs[0]:offs[1]],
                                       atol=1e-9)
            np.testing.assert_allclose(g_last[i], g[sl_i, offs[-2]:offs[-1]],
                                       atol=1e-9)


class TestBcr:
    @pytest.mark.parametrize("nb", [1, 2, 3, 4, 7, 8, 16])
    def test_matches_dense_various_counts(self, nb):
        a, sl, sr, bt, bb = make_system(nb=max(nb, 1), bs=2, seed=nb)
        if nb == 1:
            a = BlockTridiagonalMatrix([a.diag[0]], [], [])
            t = a
            rhs = np.random.default_rng(0).standard_normal((2, 2)) + 0j
        else:
            a = make_btd([2] * nb, seed=nb, cplx=True)
            for d in a.diag:
                d += 8 * np.eye(2)
            t = assemble_t(a, sl[:2, :2] * 0, sr[:2, :2] * 0)
            rhs = np.random.default_rng(1).standard_normal((2 * nb, 2)) + 0j
        x = solve_bcr(t, rhs)
        np.testing.assert_allclose(t.to_dense() @ x, rhs, atol=1e-8)

    def test_full_system_with_sigma(self):
        a, sl, sr, bt, bb = make_system(nb=9, bs=3, seed=21)
        x_ref, t, rhs = dense_reference(a, sl, sr, bt, bb)
        np.testing.assert_allclose(solve_bcr(t, rhs), x_ref, atol=1e-8)

    def test_vector_rhs(self):
        a, sl, sr, bt, bb = make_system(nb=6, seed=22)
        x_ref, t, rhs = dense_reference(a, sl, sr, bt, bb)
        np.testing.assert_allclose(solve_bcr(t, rhs[:, 0]), x_ref[:, 0],
                                   atol=1e-8)


def _draw_support(draw, m, n):
    """Sorted ``(rows, cols)`` of an m x n coupling block: dense, empty,
    or a random subset of each."""
    kind = draw(st.sampled_from(["dense", "empty", "subset"]))
    if kind == "dense":
        return list(range(m)), list(range(n))
    if kind == "empty":
        return [], []
    return tuple(sorted(draw(st.sets(st.integers(0, size - 1), min_size=1,
                                     max_size=size)))
                 for size in (m, n))


class TestAlgorithm1:
    @pytest.mark.parametrize("which", ["first", "last"])
    def test_block_column_matches_dense(self, which):
        a, *_ = make_system(nb=6, bs=3, seed=30)
        first, last = boundary_columns(a)
        q = first if which == "first" else last
        inv = np.linalg.inv(a.to_dense())
        offs = a.block_offsets()
        col = slice(0, 3) if which == "first" else slice(offs[-2], offs[-1])
        for i in range(a.num_blocks):
            np.testing.assert_allclose(q[i], inv[offs[i]:offs[i + 1], col],
                                       atol=1e-9)

    def test_hermitian_path(self):
        a, *_ = make_system(nb=5, bs=3, seed=31, hermitian=True)
        assert a.hermitian_error() < 1e-10
        first, last = boundary_columns(a, hermitian=True)
        inv = np.linalg.inv(a.to_dense())
        np.testing.assert_allclose(first[0], inv[:3, :3], atol=1e-8)
        np.testing.assert_allclose(last[0], inv[:3, -3:], atol=1e-8)

    def test_single_block(self):
        a = BlockTridiagonalMatrix([np.eye(3) * 2.0], [], [])
        first, last = boundary_columns(a, [0, 2], [1])
        np.testing.assert_allclose(first[0], np.eye(3)[:, [0, 2]] / 2.0)
        np.testing.assert_allclose(last[0], np.eye(3)[:, [1]] / 2.0)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_both_columns_match_dense_inverse(self, data):
        """Both returned columns are the dense inverse's, on ragged
        blocks, any coupling supports (empty ones included), any column
        subsets, real or complex, Hermitian path or not."""
        draw = data.draw
        sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
        cplx, hermitian = draw(st.booleans()), draw(st.booleans())
        ups = [_draw_support(draw, m, n) for m, n in zip(sizes, sizes[1:])]
        if hermitian:
            a = make_confined_btd(sizes, [(u, u[::-1]) for u in ups],
                                  seed=len(sizes), cplx=cplx)
            a = BlockTridiagonalMatrix([d + d.conj().T for d in a.diag],
                                       a.upper,
                                       [u.conj().T for u in a.upper])
        else:
            lows = [_draw_support(draw, n, m)
                    for m, n in zip(sizes, sizes[1:])]
            a = make_confined_btd(sizes, list(zip(ups, lows)),
                                  seed=len(sizes), cplx=cplx)
        first_cols, last_cols = (
            np.array(sorted(draw(st.sets(st.integers(0, size - 1),
                                         max_size=size))), dtype=np.intp)
            for size in (sizes[0], sizes[-1]))
        first, last = boundary_columns(a, first_cols, last_cols,
                                       hermitian=hermitian)
        inv = np.linalg.inv(a.to_dense())
        offs = a.block_offsets()
        for i in range(len(sizes)):
            rows = inv[offs[i]:offs[i + 1]]
            np.testing.assert_allclose(first[i], rows[:, first_cols],
                                       rtol=0, atol=1e-10)
            np.testing.assert_allclose(
                last[i], rows[:, offs[-2] + last_cols], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("parts", [1, 2, 4])
    @pytest.mark.parametrize("hermitian", [False, True])
    def test_one_schur_factorization_per_block(self, parts, hermitian):
        """Step 1 of a solve factors each Schur block exactly once."""
        a, sl, sr, bt, bb = make_system(nb=8, bs=3, seed=33,
                                        hermitian=hermitian)
        with ledger_scope(trace=True) as led:
            SplitSolve(a, parts, hermitian=hermitian,
                       parallel=False).solve(sl, sr, bt, bb)
        schur = [ev for ev in led.events if ev.tag == "P1"
                 and ev.kernel in ("zgesv", "dgesv", "zhesv", "dsysv")]
        assert len(schur) == a.num_blocks
        assert {ev.kernel for ev in schur} == {
            "zhesv" if hermitian else "zgesv"}


class TestSplitSolve:
    @pytest.mark.parametrize("parts", [1, 2, 4])
    def test_matches_dense(self, parts):
        a, sl, sr, bt, bb = make_system(nb=8, bs=3, seed=40)
        x_ref, t, rhs = dense_reference(a, sl, sr, bt, bb)
        ss = SplitSolve(a, num_partitions=parts, parallel=False)
        x = ss.solve(sl, sr, bt, bb)
        np.testing.assert_allclose(x, x_ref, atol=1e-8)

    def test_parallel_matches_serial(self):
        a, sl, sr, bt, bb = make_system(nb=8, bs=3, seed=41)
        x_ser = SplitSolve(a, 4, parallel=False).solve(sl, sr, bt, bb)
        x_par = SplitSolve(a, 4, parallel=True).solve(sl, sr, bt, bb)
        np.testing.assert_allclose(x_ser, x_par, atol=1e-10)

    def test_q_columns_match_dense_inverse(self):
        a, *_ = make_system(nb=8, bs=2, seed=42)
        ss = SplitSolve(a, num_partitions=4, parallel=False).preprocess()
        inv = np.linalg.inv(a.to_dense())
        offs = a.block_offsets()
        # no boundary support given: Q holds every column of both blocks
        np.testing.assert_array_equal(ss.q.first_cols, [0, 1])
        np.testing.assert_array_equal(ss.q.last_cols, [0, 1])
        for i in range(a.num_blocks):
            rows = inv[offs[i]:offs[i + 1]]
            np.testing.assert_allclose(
                ss.q.first[i], rows[:, ss.q.first_cols], atol=1e-8)
            np.testing.assert_allclose(
                ss.q.last[i], rows[:, offs[-2] + ss.q.last_cols],
                atol=1e-8)

    def test_preprocess_reused_across_solves(self):
        """The Sigma-independence of Step 1: one preprocess, many solves."""
        a, sl, sr, bt, bb = make_system(nb=6, bs=3, seed=43)
        ss = SplitSolve(a, 2, parallel=False).preprocess()
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            sl2 = 0.2 * rng.standard_normal((3, 3)) + 0j
            sr2 = 0.2 * rng.standard_normal((3, 3)) + 0j
            x_ref, t, rhs = dense_reference(a, sl2, sr2, bt, bb)
            np.testing.assert_allclose(ss.solve(sl2, sr2, bt, bb), x_ref,
                                       atol=1e-8)

    def test_hermitian_autodetect(self):
        a, sl, sr, bt, bb = make_system(nb=6, bs=3, seed=44, hermitian=True)
        ss = SplitSolve(a, 2, parallel=False)
        assert ss.hermitian
        x_ref, *_ = dense_reference(a, sl, sr, bt, bb)
        np.testing.assert_allclose(ss.solve(sl, sr, bt, bb), x_ref,
                                   atol=1e-8)

    def test_device_attribution(self):
        a, sl, sr, bt, bb = make_system(nb=8, bs=2, seed=45)
        with ledger_scope() as led:
            SplitSolve(a, 2, parallel=False).solve(sl, sr, bt, bb)
        # 2 partitions = 4 simulated accelerators, all of them busy
        for d in range(4):
            assert led.flops_by_device.get(f"gpu{d}", 0) > 0

    def test_phase_timings_recorded(self):
        a, sl, sr, bt, bb = make_system(nb=8, bs=2, seed=46)
        ss = SplitSolve(a, 4, parallel=False)
        ss.solve(sl, sr, bt, bb)
        names = list(ss.timer.stages)
        assert names[0] == "P1-P4 local inversion"
        assert any(n.startswith("spike merge") for n in names)
        assert "postprocessing" in names

    def test_validation(self):
        a, sl, sr, bt, bb = make_system()
        with pytest.raises(ConfigurationError):
            SplitSolve(a, num_partitions=3)
        with pytest.raises(ConfigurationError):
            SplitSolve(a, num_partitions=16)  # more partitions than blocks
        ss = SplitSolve(a, 1, parallel=False)
        with pytest.raises(ShapeError):
            ss.solve(np.eye(2), sr, bt, bb)
        with pytest.raises(ShapeError):
            ss.solve(sl, sr, np.zeros((2, 1)), bb)

    def test_empty_rhs_columns(self):
        a, sl, sr, bt, bb = make_system(nb=4, seed=47)
        ss = SplitSolve(a, 1, parallel=False)
        x = ss.solve(sl, sr, bt, np.zeros((3, 0)))
        x_ref, t, rhs = dense_reference(a, sl, sr, bt, np.zeros((3, 0)))
        np.testing.assert_allclose(x, x_ref, atol=1e-8)


@settings(max_examples=15, deadline=None)
@given(nb=st.integers(2, 10), bs=st.integers(1, 4), seed=st.integers(0, 99),
       parts_exp=st.integers(0, 2))
def test_property_all_solvers_agree(nb, bs, seed, parts_exp):
    """SplitSolve == RGF == BCR == direct on random systems."""
    parts = 2 ** parts_exp
    if parts > nb:
        parts = 1
    a, sl, sr, bt, bb = make_system(nb=nb, bs=bs, seed=seed)
    x_ref, t, rhs = dense_reference(a, sl, sr, bt, bb)
    np.testing.assert_allclose(solve_rgf(t, rhs), x_ref, atol=1e-7)
    np.testing.assert_allclose(solve_bcr(t, rhs), x_ref, atol=1e-7)
    np.testing.assert_allclose(solve_direct(t, rhs), x_ref, atol=1e-7)
    x_ss = SplitSolve(a, parts, parallel=False).solve(sl, sr, bt, bb)
    np.testing.assert_allclose(x_ss, x_ref, atol=1e-7)
