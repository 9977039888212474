"""SplitSolve on the coupling blocks' interface support.

In a localized basis only the interface orbitals of two slabs couple, so
``A[i, i+-1]`` is dense storage around a small non-zero sub-block.  These
tests pin down the exact support the containers carry, that SplitSolve on
it agrees with the dense solvers over generated systems, that the cost
models stay integer-exact against the ledger, and that a device cache's
support covers every ``A(E)`` whatever the energy or potential.
"""

import tracemalloc

import numpy as np
import pytest

from repro.basis import tight_binding_set
from repro.core.energygrid import lead_band_structure
from repro.hamiltonian import build_device
from repro.linalg import (BlockStructure, CouplingSupport, block_support,
                          ledger_scope)
from repro.linalg import blocktridiag
from repro.observability.spans import tracing
from repro.perfmodel import splitsolve_byte_model, splitsolve_flop_model
from repro.pipeline import DeviceCache, TransportPipeline, get_solver
from repro.pipeline.cache import DeviceFamily
from repro.solvers import SplitSolve
from repro.structure import silicon_nanowire, silicon_utb_film
from repro.utils.errors import ShapeError

from tests.helpers import (check_solver_agreement, make_confined_btd,
                           stage_spans)
from tests.test_blocktridiag import make_btd


def uniform_confined(nb=8, s=6, seed=0):
    """Uniform blocks, one rectangular support (rows != cols) everywhere:
    upper 3 x 2, lower 2 x 4 - the shape the uniform cost models price."""
    support = (([0, 1, 2], [4, 5]), ([3, 5], [0, 1, 2, 3]))
    return make_confined_btd([s] * nb, [support] * (nb - 1), seed=seed)


def wire(num_cells=4):
    return build_device(silicon_nanowire(0.7, num_cells),
                        tight_binding_set(), num_cells)


def open_energy(device, above=0.3):
    return float(lead_band_structure(device.lead, 11)[1].min()) + above


def inside(block, support):
    """Every non-zero of ``block`` lies in ``support = (rows, cols)``."""
    rows, cols = block_support(block)
    return set(rows) <= set(support[0]) and set(cols) <= set(support[1])


class TestSupportContainers:
    def test_block_support_is_exact_and_unions(self):
        a = np.zeros((4, 5))
        a[1, 3] = 1e-300         # != 0, no tolerance
        b = np.zeros((4, 5), dtype=complex)
        b[2, 0] = 1j
        rows, cols = block_support(a)
        assert rows.tolist() == [1] and cols.tolist() == [3]
        rows, cols = block_support(a, b)
        assert rows.tolist() == [1, 2] and cols.tolist() == [0, 3]
        rows, cols = block_support(np.zeros((3, 3)))
        assert rows.size == 0 and cols.size == 0

    def test_matrix_derives_its_own_support(self):
        a = uniform_confined(nb=4)
        assert a.structure is None
        sup = a.coupling_support()
        assert a.coupling_support() is sup
        for (rows, cols) in sup.upper:
            assert rows.tolist() == [0, 1, 2] and cols.tolist() == [4, 5]
        for (rows, cols) in sup.lower:
            assert rows.tolist() == [3, 5] and cols.tolist() == [0, 1, 2, 3]
        assert sup.widths() == (3, 2, 2, 4)
        assert not a.is_hermitian()
        assert make_btd([3, 3], cplx=True, hermitian=True).is_hermitian()

    def test_dense_blocks_have_full_support(self):
        sup = make_btd([3, 4, 2], cplx=True).coupling_support()
        assert [len(r) for r, _ in sup.upper] == [3, 4]
        assert [len(c) for _, c in sup.upper] == [4, 2]
        assert sup.widths() == (4, 4, 4, 4)

    def test_block_range_slices_the_support(self):
        supports = [(([i], [0]), ([1], [i])) for i in range(4)]
        a = make_confined_btd([5] * 5, supports)
        sub = a.block_range(1, 4)
        assert sub.num_blocks == 3
        assert sub.diag[0] is a.diag[1]
        sup = sub.coupling_support()
        assert [r.tolist() for r, _ in sup.upper] == [[1], [2]]
        assert [c.tolist() for _, c in sup.lower] == [[1], [2]]

    def test_union_over_spanning_matrices(self):
        h = make_confined_btd([4] * 3, [(([0], [1]), ([2], [3]))] * 2)
        s = make_confined_btd([4] * 3, [(([1], [1]), ([2], [0]))] * 2,
                              seed=1)
        sup = CouplingSupport.of(h, s)
        assert sup.upper[0][0].tolist() == [0, 1]
        assert sup.upper[0][1].tolist() == [1]
        assert sup.lower[1][1].tolist() == [0, 3]
        shared = BlockStructure(h, s)
        a = s.scale_add(0.7 + 0j, h, -1.0, structure=shared)
        assert a.coupling_support() is shared.support
        for blk, support in zip(a.upper + a.lower, sup.upper + sup.lower):
            assert inside(blk, support)

    def test_first_spanning_offer_stands(self):
        h, s = uniform_confined(nb=3), uniform_confined(nb=3, seed=1)
        st = BlockStructure().spanned_by(h, s)
        st.spanned_by(make_btd([6] * 3))
        assert st.support.widths() == (3, 2, 2, 4)
        with pytest.raises(ShapeError):
            BlockStructure().support


#: generated systems: name -> (block sizes, supports)
_RECT = (([0, 1, 2], [4, 5]), ([3, 5], [0, 1, 2, 3]))
GENERATED = {
    "rectangular": ([6] * 8, [_RECT] * 7),
    "ragged sizes": ([5, 7, 4, 6, 6, 3, 5, 8],
                     [(([0, 1], [2]), ([0, 2], [1, 2]))] * 7),
    "per-block supports": ([6] * 8,
                           [((list(range(1 + i % 3)), [i % 6]),
                             ([5 - i % 4], list(range(i % 5 + 1))))
                            for i in range(7)]),
    "one zero coupling": ([6] * 8, [_RECT] * 3 + [(([], []), ([], []))]
                          + [_RECT] * 3),
    "one-sided zero": ([6] * 8, [_RECT] * 2 + [(([], []), _RECT[1])]
                       + [_RECT] * 4),
    "full support": ([6] * 8, [None] * 7),
    "dense and confined": ([6] * 8, [None, _RECT] * 3 + [None]),
}


class TestSolverAgreement:
    @pytest.mark.parametrize("name", sorted(GENERATED))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_generated_systems(self, name, seed):
        sizes, supports = GENERATED[name]
        check_solver_agreement(make_confined_btd(sizes, supports, seed=seed),
                               seed=seed)

    def test_real_blocks(self):
        sizes, supports = GENERATED["rectangular"]
        check_solver_agreement(make_confined_btd(sizes, supports,
                                                 cplx=False))

    def test_hermitian_path(self):
        """Confined Hermitian system: the zhesv Schur path is autodetected
        and reads one triangle of blocks updated on a sub-block only."""
        h = make_confined_btd([6] * 8, [(_RECT[0], ([], []))] * 7, seed=3)
        for i, u in enumerate(h.upper):
            h.lower[i] = u.conj().T
        for i, d in enumerate(h.diag):
            h.diag[i] = d + d.conj().T
        assert SplitSolve(h).hermitian
        check_solver_agreement(h)

    def test_nanowire(self):
        device = wire()
        check_solver_agreement(device, energy=open_energy(device))

    def test_potential_through_with_potential(self):
        device = wire(6)
        rng = np.random.default_rng(5)
        v = np.zeros(device.structure.num_atoms)
        interior = (device.atom_slab >= 2) & (device.atom_slab <= 3)
        v[interior] = 0.05 * rng.standard_normal(int(interior.sum()))
        check_solver_agreement(device.with_potential(v),
                               energy=open_energy(device))

    def test_complex_blocks_off_gamma(self):
        family = DeviceFamily(silicon_utb_film(0.8, 4), tight_binding_set(),
                              4, num_k=2)
        device = family.devices[0]
        assert device.kpoint[1] != 0.0
        cache = family.cache(0)
        assert np.iscomplexobj(cache.h_blocks().upper[0])
        check_solver_agreement(cache, energy=open_energy(device))


class TestExactModels:
    @pytest.mark.parametrize("parts", [1, 2, 4])
    @pytest.mark.parametrize("hermitian", [False, True])
    def test_ledger_equals_models_on_confined_support(self, parts,
                                                      hermitian):
        """Same claim as the dense exact-model tests, on thin operands:
        the support widths are all the models need to know."""
        nb, s, m = 8, 6, 3
        a = uniform_confined(nb, s, seed=11)
        rng = np.random.default_rng(12)
        sl, sr = rng.standard_normal((2, s, s)) * 0.3 + 0j
        bt, bb = rng.standard_normal((s, 2)) + 0j, \
            rng.standard_normal((s, 1)) + 0j
        ss = SplitSolve(a, num_partitions=parts, parallel=False,
                        hermitian=hermitian)
        with ledger_scope() as led:
            ss.solve(sl, sr, bt, bb)
        widths = a.coupling_support().widths()
        assert led.total_flops == splitsolve_flop_model(
            nb, s, m, num_partitions=parts, hermitian=hermitian,
            coupling_widths=widths)
        assert led.total_bytes == splitsolve_byte_model(
            nb, s, m, num_partitions=parts, coupling_widths=widths)
        # and it is the smaller number
        assert led.total_flops < splitsolve_flop_model(
            nb, s, m, num_partitions=parts, hermitian=hermitian)

    def test_default_widths_are_the_dense_model(self):
        for parts in (1, 2):
            assert splitsolve_flop_model(8, 5, 2, num_partitions=parts) == \
                splitsolve_flop_model(8, 5, 2, num_partitions=parts,
                                      coupling_widths=(5, 5, 5, 5))
            assert splitsolve_byte_model(8, 5, 2, num_partitions=parts) == \
                splitsolve_byte_model(8, 5, 2, num_partitions=parts,
                                      coupling_widths=(5, 5, 5, 5))

    def test_zero_width_coupling_is_priced(self):
        a = make_confined_btd([4] * 4, [(([], []), ([], []))] * 3)
        ss = SplitSolve(a, parallel=False, hermitian=False)
        z = np.zeros((4, 4), dtype=complex)
        with ledger_scope() as led:
            ss.solve(z, z, np.eye(4, 1) + 0j, np.eye(4, 1) + 0j)
        assert led.total_flops == splitsolve_flop_model(
            4, 4, 2, coupling_widths=(0, 0, 0, 0))


class TestDeviceCacheStructure:
    def test_support_covers_every_energy_and_potential(self):
        """The family's one structure, evaluated from whichever cache is
        asked first, is a superset of ``A(E) != 0`` for all of them."""
        nc = 6
        family = DeviceFamily(silicon_nanowire(0.7, nc), tight_binding_set(),
                              nc)
        device = family.devices[0]
        rng = np.random.default_rng(2)
        potentials = [None]
        for _ in range(2):
            v = np.zeros(device.structure.num_atoms)
            interior = (device.atom_slab >= 2) & (device.atom_slab <= 3)
            v[interior] = rng.uniform(-0.3, 0.3, int(interior.sum()))
            potentials.append(v)
        # ask a cache with a potential first: the facts do not depend on it
        caches = [family.cache(0, v) for v in reversed(potentials)]
        sup = caches[0].structure().support
        assert sup.widths() == (16, 8, 8, 16)
        assert sup.widths() < (48,) * 4
        e0 = open_energy(device, 0.0)
        for cache in caches:
            assert cache.structure() is caches[0].structure()
            for energy in (e0 - 1.0, e0 + 0.137, e0 + 0.5, e0 + 2.0):
                a = cache.a_matrix(energy)
                assert a.structure is cache.structure()
                for blk, s in zip(a.upper + a.lower, sup.upper + sup.lower):
                    assert np.any(blk != 0) and inside(blk, s)
                assert cache.structure().hermitian == \
                    (a.hermitian_error() < 1e-10)
            batch = cache.a_matrix_batch([e0 + 0.1, e0 + 0.2])
            assert batch.point(1).structure is cache.structure()
        # a cache outside the family works the same facts out for itself
        own = DeviceCache(device).structure()
        assert own is not caches[0].structure()
        assert own.support.widths() == sup.widths()

    def test_facts_are_evaluated_once_per_cache(self, monkeypatch):
        device = wire()
        cache = DeviceCache(device)
        calls = {"support": 0, "hermitian": 0}
        of = CouplingSupport.of
        herm = blocktridiag.BlockTridiagonalMatrix.hermitian_error

        def counting_of(*matrices):
            calls["support"] += 1
            return of(*matrices)

        def counting_herm(self):
            calls["hermitian"] += 1
            return herm(self)

        monkeypatch.setattr(CouplingSupport, "of",
                            staticmethod(counting_of))
        monkeypatch.setattr(blocktridiag.BlockTridiagonalMatrix,
                            "hermitian_error", counting_herm)
        pipe = TransportPipeline(obc_method="dense", solver="splitsolve",
                                 num_partitions=2)
        e0 = open_energy(device, 0.0)
        for energy in (e0 + 0.2, e0 + 0.3, e0 + 0.4):
            pipe.solve_point(cache, energy)
        # one support union, one Hermiticity check each of H and S
        assert calls == {"support": 1, "hermitian": 2}

    def test_rgf_reads_the_structure_once_a_block_pair_at_a_time(
            self, monkeypatch):
        """RGF sweeps on the coupling support, so it evaluates the
        k-point's structure - once, whatever the energies - and the
        evaluation reads H from its sparse form block by block: it never
        holds more than one block pair of H (with the temporaries that
        compare it), not the whole H cut into dense blocks."""
        calls = []
        of = CouplingSupport.of

        def counting_of(*matrices):
            calls.append(1)
            return of(*matrices)

        monkeypatch.setattr(CouplingSupport, "of", staticmethod(counting_of))
        device = wire()
        e0 = open_energy(device, 0.0)
        pipe = TransportPipeline(obc_method="dense", solver="rgf")
        cache = pipe.cache(device)
        pipe.solve_point(cache, e0 + 0.3)
        pipe.solve_batch(cache, [e0 + 0.2, e0 + 0.3])
        assert len(calls) == 1

        long = build_device(silicon_nanowire(1.2, 12), tight_binding_set(),
                            12)
        fresh = DeviceCache(long)
        fresh.operator()            # S's blocks are kept anyway
        block = max(long.block_sizes) ** 2 * long.hmat.dtype.itemsize
        tracemalloc.start()
        try:
            fresh.structure().hermitian
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) == 2
        # H cut whole is 3 * 12 - 2 = 34 blocks
        assert peak < 4 * (2 * block), peak / block


class TestPredictedSolveBytes:
    def test_predicted_solve_bytes_prices_pipeline_partition_count(self):
        """Regression: ``_predicted_solve_bytes`` priced ``"splitsolve"``
        with one partition whatever the pipeline ran with, so byte drift
        on SplitSolve batches with p > 1 compared against the wrong
        model.  It now prices the pipeline's partition count on the
        cache's coupling and boundary supports - exactly what the ledger
        records."""
        device = wire()
        e0 = open_energy(device, 0.0)
        for parts in (1, 2):
            pipe = TransportPipeline(obc_method="dense",
                                     solver="splitsolve",
                                     num_partitions=parts)
            cache = pipe.cache(device)
            with tracing() as tracer:
                results = pipe.solve_batch(cache, [e0 + 0.2, e0 + 0.3])
            widths = cache.structure().support.widths()
            boundary = tuple(len(r) for r in cache.boundary_support())
            assert boundary == (8, 16)
            solves = stage_spans(tracer, "SOLVE")
            assert len(solves) == 2
            for res, st in zip(results, solves):
                assert st.attrs["solver"] == "splitsolve"
                want = splitsolve_byte_model(
                    device.num_blocks, 48, st.attrs["num_rhs"],
                    num_partitions=parts, is_complex=False,
                    coupling_widths=widths, boundary_widths=boundary)
                assert st.attrs["predicted_bytes"] == want
                ob = res.boundary
                inj = ob.injection_matrix(cache.num_blocks,
                                          cache.block_sizes)
                with ledger_scope() as led:
                    get_solver("splitsolve")(cache.a_matrix(res.energy), ob,
                                             inj, num_partitions=parts)
                assert led.total_bytes == want
        assert splitsolve_byte_model(4, 48, 2, num_partitions=2,
                                     coupling_widths=widths) != \
            splitsolve_byte_model(4, 48, 2, num_partitions=1,
                                  coupling_widths=widths)
