"""A(E) = E*S - H is paid per energy only where S is non-zero.

Three properties of :class:`repro.linalg.EnergyOperator` and the caches
built on it:

* every ``A(E)`` constructor returns the bytes of the per-block
  ``E*S_blk - H_blk`` (signed zeros included) on generated block
  structures with zero, identity and dense S blocks;
* what a :class:`DeviceCache` or :class:`DeviceFamily` hands out is
  read-only, is never written by a solver, and its energy-free blocks
  are shared by every potential;
* S = I stores nothing, and a cache keeps one H-sized set of blocks.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.basis import tight_binding_set
from repro.core.energygrid import lead_band_structure
from repro.hamiltonian import build_device
from repro.hamiltonian.device import DeviceMatrices
from repro.linalg import (BlockTridiagonalMatrix, EnergyOperator,
                          build_a_batch, energy_scalars, identity_block,
                          stored_nbytes, zero_block)
from repro.obc import compute_open_boundary
from repro.pipeline import SOLVERS, DeviceCache, DeviceFamily
from repro.solvers import assemble_t, assemble_t_batched
from repro.structure import silicon_nanowire

from tests.test_arithmetic import assert_same_bits, blocks

#: energies of both signs, signed zeros, and one that is not finite
REAL_ENERGIES = [0.7, -1.3, 0.0, -0.0, 1e-300, -1e-300, 2.5, np.inf]
#: complex energies with +-0 imaginary parts and of every sign class
COMPLEX_ENERGIES = [0.7 + 0.0j, complex(0.7, -0.0), complex(-0.0, 0.0),
                    complex(0.0, -0.0), -1.3 + 1e-6j, 0.4 - 2e-3j,
                    complex(-0.0, -0.0)]


def _dense(rng, shape, cplx):
    out = rng.standard_normal(shape)
    out[rng.random(shape) < 0.4] = 0.0
    if cplx:
        out = out + 1j * rng.standard_normal(shape)
    return out


@st.composite
def block_devices(draw):
    """A hand-made device: random block sizes, H blocks with scattered
    zeros, each S block zero, identity (diagonal only) or dense."""
    nb = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, 4), min_size=nb, max_size=nb))
    h_cplx = draw(st.booleans())
    s_cplx = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    offs = np.concatenate([[0], np.cumsum(sizes)])
    n = offs[-1]
    h = np.zeros((n, n), dtype=complex if h_cplx else float)
    s = np.zeros((n, n), dtype=complex if s_cplx else float)
    for i in range(nb):
        for j in range(max(0, i - 1), min(nb, i + 2)):
            rows, cols = slice(offs[i], offs[i + 1]), slice(offs[j],
                                                             offs[j + 1])
            h[rows, cols] = _dense(rng, (sizes[i], sizes[j]), h_cplx)
            kind = draw(st.sampled_from(
                ["zero", "identity", "dense"] if i == j
                else ["zero", "dense"]))
            if kind == "identity":
                s[rows, cols] = np.eye(sizes[i])
            elif kind == "dense":
                s[rows, cols] = _dense(rng, (sizes[i], sizes[j]), s_cplx)
    hmat, smat = sp.csr_matrix(h), sp.csr_matrix(s)
    return DeviceMatrices(
        structure=None, basis=None, kpoint=(0.0, 0.0), hmat=hmat,
        smat=smat, cell_sizes=np.asarray(sizes), block_sizes=list(sizes),
        lead=None, atom_slab=np.arange(nb), orbital_offsets=offs)


def reference(device, energies, j=0):
    """Per block ``E*S_blk - H_blk`` at ``energies[j]``, the blocks cut
    densely as the parent cut them, E in the dtype of A(E) of the whole
    ``energies``."""
    offs = np.concatenate([[0], np.cumsum(device.block_sizes)])
    h, s = device.hmat.toarray(), device.smat.toarray()
    e = energy_scalars(energies, device.hmat, device.smat)[j]
    nb = device.num_blocks

    def cut(i, j):
        rows, cols = slice(offs[i], offs[i + 1]), slice(offs[j], offs[j + 1])
        return e * s[rows, cols] - h[rows, cols]
    return BlockTridiagonalMatrix(
        [cut(i, i) for i in range(nb)],
        [cut(i, i + 1) for i in range(nb - 1)],
        [cut(i + 1, i) for i in range(nb - 1)])


class TestBitwise:
    @settings(max_examples=60, deadline=None)
    @given(block_devices(), st.lists(st.sampled_from(REAL_ENERGIES),
                                     min_size=1, max_size=4))
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_real_energies_every_constructor(self, device, energies):
        cache = DeviceCache(device)
        h, s = device.h_blocks(), device.s_blocks()
        batch = cache.a_matrix_batch(energies)
        loose = build_a_batch(h, s, energies)
        for j, e in enumerate(energies):
            want = reference(device, [e])
            assert_same_bits(batch.point(j), want)
            assert_same_bits(loose.point(j), want)
            assert_same_bits(cache.a_matrix(e), want)
            assert_same_bits(device.a_matrix(e), want)
            assert_same_bits(s.scale_add(energy_scalars(e, h, s), h, -1.0),
                             want)

    @settings(max_examples=40, deadline=None)
    @given(block_devices(), st.lists(st.sampled_from(COMPLEX_ENERGIES),
                                     min_size=1, max_size=4))
    def test_complex_energies(self, device, energies):
        batch = build_a_batch(device.h_blocks(), device.s_blocks(),
                              energies)
        for j, e in enumerate(energies):
            assert_same_bits(device.a_matrix(e), reference(device, [e]))
            assert_same_bits(batch.point(j), reference(device, energies, j))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_the_sign_classes_are_the_only_energy_dependence(self):
        """``E*0 - H`` at every energy of a class is its shared block."""
        h = BlockTridiagonalMatrix.from_sparse(
            sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -2.0]])), [1, 1])
        s = BlockTridiagonalMatrix([np.ones((1, 1))] * 2, [zero_block(
            (1, 1), float)], [zero_block((1, 1), float)])
        op = EnergyOperator(s, h)
        assert op.free == (2, 3) and op.touched == (0, 1)
        assert op.free_blocks(np.float64(0.3)) is \
            op.free_blocks(np.float64(1e-300))
        assert op.free_blocks(np.float64(-0.0)) is \
            op.free_blocks(np.float64(-7.0))
        assert op.free_blocks(np.float64(0.0)) is not \
            op.free_blocks(np.float64(-0.0))
        nan = op.free_blocks(np.float64(np.inf))
        assert nan is not op.free_blocks(np.float64(np.inf))
        assert np.isnan(nan[0]).all()


@pytest.fixture(scope="module")
def family():
    structure = silicon_nanowire(0.7, 4)
    return DeviceFamily(structure, tight_binding_set(), 4)


def potential(family, scale):
    rng = np.random.default_rng(7)
    v = scale * rng.standard_normal(family.structure.num_atoms)
    v[family.devices[0].atom_slab == 0] = 0.0
    v[family.devices[0].atom_slab == family.num_cells - 1] = 0.0
    return v


def energy(family, shift=0.0):
    """Inside the lowest lead band: propagating modes."""
    bands = lead_band_structure(family.devices[0].lead, 11)[1]
    return float(bands.min()) + 0.3 + shift


class TestSharedAndReadOnly:
    def test_potentials_share_the_energy_free_blocks(self, family):
        e = energy(family)
        caches = [family.cache(0, potential(family, x)) for x in (0.1, 0.2)]
        a = [c.a_matrix(e) for c in caches]
        op = caches[0].operator()
        assert op is caches[1].operator()
        assert op.free, "the TB wire's couplings do not depend on E"
        for p in op.free:
            first, second = a[0].blocks()[p], a[1].blocks()[p]
            assert np.shares_memory(first, second)
            assert not first.flags.writeable
        for p in op.touched:
            assert not np.shares_memory(a[0].blocks()[p], a[1].blocks()[p])
        for cache, got in zip(caches, a):
            assert_same_bits(got, reference(cache.device, [e]))

    def test_everything_handed_out_is_read_only(self, family):
        cache = family.cache(0, potential(family, 0.1))
        cache.a_matrix(energy(family))
        op = cache.operator()
        handed = (blocks(cache.s_blocks()) + cache.kept_blocks()
                  + op.free_blocks(np.float64(energy(family))))
        assert all(not b.flags.writeable for b in handed)

    @pytest.mark.parametrize("solver,parts", [
        ("rgf", 1), ("splitsolve", 1), ("splitsolve", 2), ("bcr", 1),
        ("direct", 1)])
    def test_no_solver_writes_into_the_cache(self, family, solver, parts):
        cache = family.cache(0, potential(family, 0.1))
        energies = [energy(family), energy(family, 0.01)]
        a_batch = cache.a_matrix_batch(energies)
        op = cache.operator()
        inputs = (blocks(cache.s_blocks()) + cache.kept_blocks()
                  + op.free_blocks(np.float64(energies[0])))
        before = [b.tobytes() for b in inputs]
        obs = [compute_open_boundary(cache.lead, e, method="dense")
               for e in energies]
        injs = [ob.injection_matrix(cache.num_blocks, cache.block_sizes)
                for ob in obs]
        for j, (ob, inj) in enumerate(zip(obs, injs)):
            a = a_batch.point(j)
            a_bytes = [b.tobytes() for b in blocks(a)]
            SOLVERS.get(solver)(a, ob, inj, num_partitions=parts)
            assemble_t(a, ob.sigma_l, ob.sigma_r)
            assert [b.tobytes() for b in blocks(a)] == a_bytes
        if solver == "rgf":
            from repro.solvers import solve_rgf_batched
            t = assemble_t_batched(
                a_batch, np.stack([ob.sigma_l for ob in obs]),
                np.stack([ob.sigma_r for ob in obs]))
            assert injs[0].shape == injs[1].shape
            solve_rgf_batched(t, np.stack(injs))
        assert [b.tobytes() for b in inputs] == before


class TestMemory:
    @pytest.fixture(scope="class")
    def wire(self):
        return build_device(silicon_nanowire(1.0, 16), tight_binding_set(),
                            16)

    def test_s_of_an_orthogonal_basis_owns_no_bytes(self, wire):
        s = wire.s_blocks()
        eyes = {id(identity_block(n, s.dtype)) for n in s.block_sizes}
        for i, b in enumerate(blocks(s)):
            assert id(b) in eyes if i < s.num_blocks else not any(b.strides)
        own = [b for b in blocks(s) if id(b) not in eyes]
        assert stored_nbytes(own) == 0
        assert s.stored_nbytes() == sum(
            identity_block(n, s.dtype).nbytes for n in set(s.block_sizes))

    def test_a_cache_keeps_one_h_sized_set(self, wire):
        cache = DeviceCache(wire)
        cache.a_matrix_batch([1.0])
        cache.a_matrix_batch([1.01])
        h = wire.h_blocks()
        assert cache.stored_nbytes() == sum(b.nbytes for b in blocks(h))

    def test_one_energy_allocates_only_its_diagonal(self, wire):
        cache = DeviceCache(wire)
        e = 1.0
        cache.a_matrix_batch([e + 0.01])       # kept and class blocks
        diag_bytes = sum(n * n * 8 for n in wire.block_sizes)
        tracemalloc.start()
        try:
            a = cache.a_matrix_batch([e])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert a.diag[0].dtype == np.float64
        assert peak <= diag_bytes + 64 * 1024, (peak, diag_bytes)


class TestStoredBytes:
    def test_shared_arrays_count_once_and_zero_views_not_at_all(self):
        a = np.ones((3, 4))
        assert stored_nbytes([a, a, zero_block((5, 5), float)]) == a.nbytes
        stack = np.broadcast_to(a, (7, 3, 4))
        assert stored_nbytes([stack]) == a.nbytes
        d = np.ones((3, 3))
        m = BlockTridiagonalMatrix([d, d], [d], [zero_block((3, 3), float)])
        assert m.stored_nbytes() == d.nbytes
        assert m.nnz == 4 * d.size
