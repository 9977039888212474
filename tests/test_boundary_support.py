"""SplitSolve's Q on the boundary support.

Sigma^RB and Inj are ``T10 @ ...`` / ``T01 @ ...``: zero outside the rows
the lead's coupling block reaches.  SplitSolve computes, merges and stores
only those columns of the first and last block columns of A^{-1} - and, on
a cut between partitions, only the columns the coupling block across it
contracts with.  These tests pin down that it still agrees with the dense
solvers over generated systems, that its Q is those columns of the dense
inverse, that operands reaching outside the support are refused, that the
cost models stay integer-exact against the ledger, and that full support
is the previous commit's result bit for bit.
"""

import hashlib

import numpy as np
import pytest
import scipy.linalg as sla

from repro.basis import tight_binding_set
from repro.hamiltonian import build_device
from repro.linalg import BlockTridiagonalMatrix, block_support, ledger_scope
from repro.observability.spans import tracing
from repro.perfmodel import splitsolve_byte_model, splitsolve_flop_model
from repro.pipeline import DeviceCache, TransportPipeline, get_solver
from repro.solvers import SplitSolve
from repro.solvers.splitsolve import PartitionColumns, merge_partitions
from repro.structure import silicon_nanowire
from repro.utils.errors import ShapeError

from tests.helpers import check_solver_agreement, make_confined_btd
from tests.test_coupling_support import open_energy, uniform_confined

#: ragged: first and last block differ from the interior and each other
SIZES = [5, 7, 6, 7, 6, 7, 6, 4]
COUPLING = (([0, 2], [1, 3]), ([1, 3], [0, 2]))

SUPPORTS = {
    "full": None,
    "interface": ([1, 3, 4], [0, 2]),
    "single row": ([2], [3]),
    "nothing on the right": ([0, 1, 4], []),
}


def generated(kind: str, seed: int = 0) -> BlockTridiagonalMatrix:
    """Ragged, interface-coupled A: general complex, Hermitian (a real
    energy), or Hermitian plus ``i eta`` (a complex energy)."""
    a = make_confined_btd(SIZES, [COUPLING] * (len(SIZES) - 1), seed=seed)
    if kind == "general":
        return a
    shift = 0.05j if kind == "complex energy" else 0.0
    diag = [(d + d.conj().T) / 2 + shift * np.eye(len(d)) for d in a.diag]
    return BlockTridiagonalMatrix(diag, a.upper,
                                  [u.conj().T for u in a.upper])


class TestAgreement:
    """SplitSolve (p = 1, 2, 4) == RGF == sparse-direct at 1e-10, and Q
    == the support's columns of the dense inverse (both asserted by
    ``check_solver_agreement``)."""

    @pytest.mark.parametrize("kind", ["general", "hermitian",
                                      "complex energy"])
    @pytest.mark.parametrize("support", list(SUPPORTS))
    def test_generated_systems(self, kind, support):
        a = generated(kind, seed=len(support))
        assert a.is_hermitian() == (kind == "hermitian")
        check_solver_agreement(a, boundary_support=SUPPORTS[support])

    @pytest.mark.parametrize("support", ["full", "interface"])
    @pytest.mark.parametrize("num_rhs", [(2, 0), (0, 2), (0, 0)],
                             ids=["left only", "right only", "no mode"])
    def test_injection_from_one_side_or_none(self, support, num_rhs):
        x = check_solver_agreement(generated("general", seed=3),
                                   boundary_support=SUPPORTS[support],
                                   num_rhs=num_rhs)
        assert x.shape == (sum(SIZES), sum(num_rhs))

    def test_dense_coupling_with_interface_boundary(self):
        a = make_confined_btd(SIZES, [None] * (len(SIZES) - 1), seed=5)
        check_solver_agreement(a, boundary_support=SUPPORTS["interface"])

    def test_superset_of_the_true_support_is_valid(self):
        """Sigma and Inj drawn on the interface rows, Q preprocessed for
        more: the extra columns meet zeros only."""
        a = generated("general", seed=8)
        rng = np.random.default_rng(9)
        rows_first, rows_last = (np.array(r) for r in SUPPORTS["interface"])
        sl = np.zeros((5, 5), dtype=complex)
        sl[rows_first] = rng.standard_normal((3, 5))
        sr = np.zeros((4, 4), dtype=complex)
        sr[rows_last] = rng.standard_normal((2, 4))
        bt = np.zeros((5, 2), dtype=complex)
        bt[rows_first] = rng.standard_normal((3, 2))
        bb = np.zeros((4, 1), dtype=complex)
        bb[rows_last] = rng.standard_normal((2, 1))
        exact = SplitSolve(a, 2, parallel=False,
                           boundary_support=(rows_first, rows_last))
        wider = SplitSolve(a, 2, parallel=False,
                           boundary_support=([0, 1, 3, 4], [0, 2, 3]))
        full = SplitSolve(a, 2, parallel=False)
        want = full.solve(sl, sr, bt, bb)
        for ss in (exact, wider):
            np.testing.assert_allclose(ss.solve(sl, sr, bt, bb), want,
                                       atol=1e-13)

    def test_preprocess_is_reused_across_boundary_values(self):
        """Step 1 depends on the support, not on Sigma's values."""
        a = generated("hermitian", seed=4)
        support = SUPPORTS["interface"]
        ss = SplitSolve(a, 2, parallel=False,
                        boundary_support=support).preprocess()
        q = ss.q
        for seed in (1, 2):
            check = SplitSolve(a, 2, parallel=False,
                               boundary_support=support)
            rng = np.random.default_rng(seed)
            sl = np.zeros((5, 5), dtype=complex)
            sl[support[0]] = rng.standard_normal((3, 5))
            sr = np.zeros((4, 4), dtype=complex)
            sr[support[1]] = rng.standard_normal((2, 4))
            bt = np.zeros((5, 1), dtype=complex)
            bt[support[0]] = 1.0
            bb = np.zeros((4, 0), dtype=complex)
            np.testing.assert_array_equal(ss.solve(sl, sr, bt, bb),
                                          check.solve(sl, sr, bt, bb))
            assert ss.q is q

    def test_parallel_preprocess_matches_serial(self):
        a = generated("general", seed=6)
        support = SUPPORTS["interface"]
        serial = SplitSolve(a, 4, parallel=False,
                            boundary_support=support).preprocess()
        threaded = SplitSolve(a, 4, parallel=True,
                              boundary_support=support).preprocess()
        for i in range(a.num_blocks):
            np.testing.assert_array_equal(serial.q.first[i],
                                          threaded.q.first[i])
            np.testing.assert_array_equal(serial.q.last[i],
                                          threaded.q.last[i])


class TestDeviceSupport:
    def test_adapter_runs_on_the_lead_coupling_support(self):
        """The registry adapter reads the support the boundary is stored
        on, that of ``ob.t01``: Sigma and Inj vanish outside it, the cache
        reports the same rows, and the ledger records exactly what the
        models price with them."""
        device = build_device(silicon_nanowire(0.7, 4), tight_binding_set(),
                              4)
        cache = DeviceCache(device)
        energy = open_energy(device)
        ob = cache.boundary(energy, "dense")
        rows, cols = block_support(ob.t01)
        rows_first, rows_last = cache.boundary_support()
        np.testing.assert_array_equal(rows_first, cols)
        np.testing.assert_array_equal(rows_last, rows)
        assert 0 < rows_first.size < 48 and 0 < rows_last.size < 48
        inj = ob.injection_matrix(cache.num_blocks, cache.block_sizes)
        from_left = np.array([m.from_left for m in ob.injected])
        for block, inside in ((ob.sigma_l, rows_first),
                              (ob.sigma_r, rows_last),
                              (inj[:48, from_left], rows_first),
                              (inj[-48:, ~from_left], rows_last)):
            assert np.any(block != 0)
            assert not np.delete(block, inside, axis=0).any()
        a = cache.a_matrix(energy)
        widths = dict(
            coupling_widths=cache.structure().support.widths(),
            boundary_widths=(rows_first.size, rows_last.size))
        for parts in (1, 2):
            with ledger_scope() as led:
                get_solver("splitsolve")(a, ob, inj, num_partitions=parts)
            assert led.total_flops == splitsolve_flop_model(
                4, 48, inj.shape[1], num_partitions=parts,
                is_complex=False, hermitian=True, **widths)
            assert led.total_bytes == splitsolve_byte_model(
                4, 48, inj.shape[1], num_partitions=parts,
                is_complex=False, **widths)

    def test_generic_rhs_gets_every_row(self):
        """A right-hand side that is not one column per injected mode
        promises nothing about its rows."""
        device = build_device(silicon_nanowire(0.7, 4), tight_binding_set(),
                              4)
        cache = DeviceCache(device)
        energy = open_energy(device)
        ob = cache.boundary(energy, "dense")
        a = cache.a_matrix(energy)
        rng = np.random.default_rng(0)
        rhs = np.zeros((cache.num_orbitals, len(ob.injected) + 1),
                       dtype=complex)
        rhs[:48] = rng.standard_normal((48, rhs.shape[1]))
        x = get_solver("splitsolve")(a, ob, rhs)
        np.testing.assert_allclose(x, get_solver("rgf")(a, ob, rhs),
                                   atol=1e-10)

    def test_auto_prices_the_supports_it_runs_on(self, monkeypatch):
        from repro.pipeline import pipeline as pipeline_module
        seen = {}

        def spy(name, **kwargs):
            seen.update(kwargs)
            return "rgf"

        monkeypatch.setattr(pipeline_module, "resolve_solver_name", spy)
        device = build_device(silicon_nanowire(0.7, 4), tight_binding_set(),
                              4)
        pipe = TransportPipeline(obc_method="dense", solver="auto")
        cache = pipe.cache(device)
        pipe.solve_point(cache, open_energy(device))
        assert seen["coupling_widths"] == (16, 8, 8, 16)
        assert seen["boundary_widths"] == (8, 16)
        # an explicit solver name prices nothing
        seen.clear()
        TransportPipeline(obc_method="dense", solver="rgf").solve_point(
            cache, open_energy(device))
        assert "boundary_widths" not in seen


class TestTypedFailures:
    def system(self):
        a = generated("general", seed=2)
        support = (np.array([1, 3, 4]), np.array([0, 2]))
        sl = np.zeros((5, 5), dtype=complex)
        sl[support[0]] = 0.2
        sr = np.zeros((4, 4), dtype=complex)
        sr[support[1]] = 0.2
        bt = np.zeros((5, 1), dtype=complex)
        bt[support[0]] = 1.0
        bb = np.zeros((4, 1), dtype=complex)
        bb[support[1]] = 1.0
        ss = SplitSolve(a, 2, parallel=False, boundary_support=support)
        return ss, [sl, sr, bt, bb]

    @pytest.mark.parametrize("which,row,name", [
        (0, 2, "sigma_l"), (1, 3, "sigma_r"), (2, 0, "b_top"),
        (3, 1, "b_bottom")])
    def test_operand_outside_the_support_names_the_row(self, which, row,
                                                       name):
        ss, operands = self.system()
        ss.solve(*operands)                     # inside: fine
        operands[which][row, 0] = 1e-300        # != 0, no tolerance
        with pytest.raises(ShapeError, match=f"{name} is non-zero in row "
                                             f"{row}"):
            ss.solve(*operands)

    @pytest.mark.parametrize("rows", [[2, 1], [1, 1], [-1, 2], [0, 5],
                                      [0.5, 1.0], [[0, 1]]])
    def test_malformed_support_is_refused(self, rows):
        a = generated("general")
        with pytest.raises(ShapeError, match="sorted, distinct"):
            SplitSolve(a, 1, boundary_support=(rows, None))

    def test_merge_refuses_partitions_with_other_inner_columns(self):
        a = uniform_confined(4, 6, seed=1)
        ss = SplitSolve(a, 1, parallel=False).preprocess()
        full = np.arange(6)
        whole = PartitionColumns(first=ss.q.first[:2], last=ss.q.last[:2],
                                 devices=["gpu0"] * 2, first_cols=full,
                                 last_cols=full)
        with pytest.raises(ShapeError, match="row supports"):
            merge_partitions(whole, whole, a.upper[1], a.lower[1])
        with pytest.raises(ShapeError, match="columns wide"):
            PartitionColumns(first=ss.q.first[:2], last=ss.q.last[:2],
                             devices=["gpu0"] * 2, first_cols=full[:3],
                             last_cols=full).validate()


class TestExactModels:
    """Ledger == flop model == byte model, integer for integer, on
    uniform blocks for every partition count and support shape."""

    BOUNDARY = {
        "full": None,
        "interface": ([0, 1, 2], [3, 5]),
        "one-sided": ([1, 4], []),
    }

    @pytest.mark.parametrize("parts", [1, 2, 4])
    @pytest.mark.parametrize("hermitian", [False, True])
    @pytest.mark.parametrize("boundary", list(BOUNDARY))
    def test_ledger_equals_models(self, parts, hermitian, boundary):
        nb, s = 8, 6
        a = uniform_confined(nb, s, seed=11)
        support = self.BOUNDARY[boundary]
        rows_first, rows_last = support or (range(s), range(s))
        rng = np.random.default_rng(12)
        sl, sr = np.zeros((2, s, s), dtype=complex)
        sl[list(rows_first)] = rng.standard_normal((len(rows_first), s))
        sr[list(rows_last)] = rng.standard_normal((len(rows_last), s))
        bt, bb = np.zeros((s, 2), dtype=complex), \
            np.zeros((s, 1), dtype=complex)
        bt[list(rows_first)] = 1.0
        bb[list(rows_last)] = 1.0
        ss = SplitSolve(a, num_partitions=parts, parallel=False,
                        hermitian=hermitian, boundary_support=support)
        with ledger_scope() as led:
            ss.solve(0.3 * sl, 0.3 * sr, bt, bb)
        widths = dict(
            coupling_widths=a.coupling_support().widths(),
            boundary_widths=(len(rows_first), len(rows_last)))
        assert led.total_flops == splitsolve_flop_model(
            nb, s, 3, num_partitions=parts, hermitian=hermitian, **widths)
        assert led.total_bytes == splitsolve_byte_model(
            nb, s, 3, num_partitions=parts, **widths)
        if support is not None:
            # and it is the smaller number
            full = dict(widths, boundary_widths=None)
            assert led.total_flops < splitsolve_flop_model(
                nb, s, 3, num_partitions=parts, hermitian=hermitian, **full)
            assert led.total_bytes < splitsolve_byte_model(
                nb, s, 3, num_partitions=parts, **full)

    def test_default_boundary_widths_are_the_dense_model(self):
        for parts in (1, 2, 4):
            for model in (splitsolve_flop_model, splitsolve_byte_model):
                assert model(8, 5, 2, num_partitions=parts) == \
                    model(8, 5, 2, num_partitions=parts,
                          coupling_widths=(5,) * 4, boundary_widths=(5, 5))

    def test_merge_bytes_follow_the_columns_it_moves(self):
        """``splitsolve_merge_bytes`` counts the arrays a merge moves:
        coupling sub-blocks (3x2, 2x4), the four corner blocks at their
        held widths, the four update weights."""
        a = uniform_confined(8, 6, seed=11)

        def moved(boundary_support):
            with tracing() as tracer:
                SplitSolve(a, 2, parallel=False,
                           boundary_support=boundary_support).preprocess()
            assert tracer.metrics.counter("splitsolve_merges").value == 1
            return tracer.metrics.counter("splitsolve_merge_bytes").value

        def expected(f, l, s=6, ru=3, cu=2, rl=2, cl=4):
            elements = (ru * cu + rl * cl            # Bc, Cc
                        + s * f + s * ru             # top: first, last
                        + s * rl + s * l             # bottom: first, last
                        + (ru + rl) * (f + l))       # update weights
            return 16 * elements

        assert moved(None) == expected(6, 6) == 2816
        assert moved(([0, 1, 2], [3, 5])) == expected(3, 2) == 1584
        # full-width corners and inner columns (the old count) were more
        assert moved(None) < 16 * (3 * 2 + 2 * 4 + 4 * 36 + 5 * 12)


class TestFullSupportIsThePreviousCommit:
    """Full support runs the same lines on the same operand shapes as
    the default, and explicit full support is bit for bit the implicit
    one.  The digests below are of the solutions of the one-sweep
    Algorithm 1, whose arithmetic differs from the two mirror-image
    sweeps before it by design; ``PINNED_HEX`` keeps the values computed
    before the boundary support existed (3216bb2), now checked at
    rel 1e-12.

    Stored bits are only comparable under the BLAS/LAPACK build that
    produced them, so the test first checks a digest of plain
    scipy/numpy arithmetic taken on the same host and skips elsewhere.
    """

    HOST = "7de42cb0e22c14cfd309438c5ff6fbb59a2c9c49"
    PINNED = {
        ("dense", 1): "d0d04c3abdb8890934327db236df12b8e35e1b15",
        ("dense", 2): "79fad2396ea4abd7cb79d72ebaa4432865a302b8",
        ("dense", 4): "6c8b11b068afad1dfd50ebd36f08b0463af68588",
        # p = 1 has no cut, hence no inner column set to narrow
        ("confined", 1): "2c1a78ce9fce475756f20151201695161c371fd2",
    }
    #: x[:6, 0] of ("dense", 2): real parts, then imaginary parts
    PINNED_HEX = [
        '0x1.949c9af638dbap-5', '-0x1.07cc4356975c2p-7',
        '0x1.e15edfa5d6358p-8', '-0x1.70becfb257a60p-9',
        '0x1.131f36671a989p-7', '-0x1.4fe788bdd5010p-9',
        '0x1.9d4f068ec40d4p-6', '0x1.22494a1f6a393p-4',
        '-0x1.fa36a177dfd67p-6', '-0x1.90a1eee2b5660p-6',
        '0x1.54333c087e381p-5', '0x1.9d1aa64a77d83p-9']

    @staticmethod
    def digest(x) -> str:
        return hashlib.sha1(np.ascontiguousarray(x).tobytes()).hexdigest()

    @pytest.fixture(scope="class", autouse=True)
    def same_arithmetic_as_the_pinning_host(self):
        rng = np.random.default_rng(2015)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        if self.digest(sla.solve(a + 12 * np.eye(6), b) @ b.conj().T) \
                != self.HOST:
            pytest.skip("another BLAS/LAPACK build than the pinned bits'")

    @staticmethod
    def system(coupling):
        supports = [None] * 7 if coupling == "dense" else \
            [(([0, 2], [1, 3]), ([1, 2, 3], [0, 4]))] * 7
        a = make_confined_btd([5, 6, 6, 6, 6, 6, 6, 4], supports, seed=16)
        rng = np.random.default_rng(61)

        def draw(m, n):
            return rng.standard_normal((m, n)) \
                + 1j * rng.standard_normal((m, n))

        return a, 0.3 * draw(5, 5), 0.3 * draw(4, 4), draw(5, 2), draw(4, 1)

    @pytest.mark.parametrize("coupling,parts", list(PINNED))
    def test_bit_for_bit(self, coupling, parts):
        a, *operands = self.system(coupling)
        x = SplitSolve(a, parts, parallel=False).solve(*operands)
        assert self.digest(x) == self.PINNED[coupling, parts]
        explicit = SplitSolve(a, parts, parallel=False, boundary_support=(
            np.arange(5), np.arange(4))).solve(*operands)
        assert self.digest(explicit) == self.PINNED[coupling, parts]
        if (coupling, parts) == ("dense", 2):
            col = x[:6, 0]
            np.testing.assert_allclose(
                np.concatenate([col.real, col.imag]),
                [float.fromhex(h) for h in self.PINNED_HEX],
                rtol=1e-12, atol=0)

    def test_narrower_inner_columns_agree_to_round_off(self):
        """With confined coupling and p > 1 the inner column sets are
        narrower than before: not the same bits, the same numbers."""
        a, *operands = self.system("confined")
        one = SplitSolve(a, 1, parallel=False).solve(*operands)
        for parts in (2, 4):
            x = SplitSolve(a, parts, parallel=False).solve(*operands)
            np.testing.assert_allclose(x, one, rtol=0, atol=1e-14)
