"""The dtype rule (DESIGN, "Arithmetic").

``A(E) = E*S - H`` is built in the dtype of ``(H, S)``; SplitSolve's
Step 1 (Algorithm 1 + SPIKE) never sees a self-energy and runs in it,
so a real device has a real Q; the complex Sigma and Inj meet that Q
only in the boundary-support-sized postprocessing.  RGF, BCR and
sparse-direct fold Sigma into their first block: they promote, and the
promotion is the complex assembly of the parent bit for bit.
"""

import numpy as np
import pytest

from repro.basis import tight_binding_set
from repro.core.runner import compute_spectrum
from repro.hamiltonian import build_device
from repro.linalg import (BlockTridiagonalMatrix, build_a_batch,
                          energy_scalars, global_ledger, ledger_scope)
from repro.perfmodel import splitsolve_byte_model, splitsolve_flop_model
from repro.pipeline import DeviceCache, DeviceFamily, TransportPipeline
from repro.solvers import (SplitSolve, assemble_t, assemble_t_batched,
                           solve_rgf)
from repro.structure import silicon_nanowire, silicon_utb_film
from repro.utils.errors import SingularMatrixError

from tests.helpers import (check_solver_agreement, make_confined_btd,
                           promote_to_complex)
from tests.test_coupling_support import open_energy, wire

#: upper 3 x 2, lower 2 x 4: the rectangular support the uniform cost
#: models price
RECT = (([0, 1, 2], [4, 5]), ([3, 5], [0, 1, 2, 3]))
#: ragged sizes with an interface coupling, as in test_boundary_support
SIZES = [5, 7, 6, 7, 6, 7, 6, 4]
COUPLING = (([0, 2], [1, 3]), ([1, 3], [0, 2]))
BOUNDARY = {"full": None, "interface": ([1, 3, 4], [0, 2])}


def blocks(m):
    return m.diag + m.upper + m.lower


def assert_same_bits(got, want):
    """Equal dtype and bytes, block for block (signed zeros included)."""
    for g, w in zip(blocks(got), blocks(want), strict=True):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


def film_off_gamma():
    family = DeviceFamily(silicon_utb_film(0.8, 4), tight_binding_set(), 4,
                          num_k=2)
    assert family.devices[0].kpoint[1] != 0.0
    return family.devices[0]


def boundary_operands(a, support, seed=12, num_rhs=(2, 1)):
    """Complex Sigma and right-hand sides confined to ``support``."""
    rng = np.random.default_rng(seed)
    out = []
    for size, rows, cols in ((a.block_sizes[0], 0, None),
                             (a.block_sizes[-1], 1, None),
                             (a.block_sizes[0], 0, num_rhs[0]),
                             (a.block_sizes[-1], 1, num_rhs[1])):
        rows = np.arange(size) if support is None else list(support[rows])
        block = np.zeros((size, size if cols is None else cols),
                         dtype=complex)
        block[rows] = 0.3 * (rng.standard_normal((len(rows), block.shape[1]))
                             + 1j * rng.standard_normal((len(rows),
                                                         block.shape[1])))
        out.append(block)
    return out


class TestDtypeOfA:
    def test_real_device_builds_float64_at_all_three_sites(self):
        device = wire()
        cache = DeviceCache(device)
        assert not cache.is_complex()
        e0 = open_energy(device)
        batch = cache.a_matrix_batch([e0 - 0.1, e0, e0 + 0.2])
        point = cache.a_matrix(e0)
        assert point.dtype == np.float64
        assert_same_bits(batch.point(1), point)
        assert_same_bits(device.a_matrix(e0), point)

    def test_complex_blocks_or_energy_build_complex128(self):
        device = film_off_gamma()
        cache = DeviceCache(device)
        assert cache.is_complex()
        energy = open_energy(device)
        point = cache.a_matrix(energy)
        assert point.dtype == np.complex128
        assert_same_bits(cache.a_matrix_batch([energy, 0.1]).point(0), point)
        assert_same_bits(device.a_matrix(energy), point)
        # a real device at a complex energy: the parent's assembly
        real = wire()
        h, s = real.h_blocks(), real.s_blocks()
        z = open_energy(real) + 1e-6j
        assert energy_scalars(z, h, s).dtype == np.complex128
        assert_same_bits(real.a_matrix(z), s.scale_add(z, h, -1.0))
        batch = build_a_batch(h, s, [z.real, z])
        assert_same_bits(batch.point(1), real.a_matrix(z))

    def test_promotion_is_the_complex_assembly_bit_for_bit(self):
        """What RGF, BCR and sparse-direct are handed: ``assemble_t``
        promotes the real A(E), and the promoted blocks are the ones
        ``scale_add(complex(E), H, -1)`` used to build - same real
        multiply-add, imaginary part +0."""
        device = wire()
        cache = DeviceCache(device)
        h, s = cache.h_blocks(), cache.s_blocks()
        energies = [open_energy(device), open_energy(device, -0.4)]
        rng = np.random.default_rng(3)
        sigma = 0.1 * (rng.standard_normal((2, 2, 48, 48))
                       + 1j * rng.standard_normal((2, 2, 48, 48)))
        batch = cache.a_matrix_batch(energies)
        t_batch = assemble_t_batched(batch, sigma[0], sigma[1])
        for j, e in enumerate(energies):
            a = cache.a_matrix(e)
            parent = s.scale_add(complex(e), h, -1.0)
            assert_same_bits(promote_to_complex(a), parent)
            t = assemble_t(a, sigma[0, j], sigma[1, j])
            assert_same_bits(t, assemble_t(parent, sigma[0, j], sigma[1, j]))
            assert_same_bits(t_batch.point(j), t)
            rhs = rng.standard_normal((cache.num_orbitals, 2)) + 0j
            assert solve_rgf(t, rhs).tobytes() == solve_rgf(
                assemble_t(parent, sigma[0, j], sigma[1, j]), rhs).tobytes()


class TestStepOne:
    @pytest.mark.parametrize("boundary", list(BOUNDARY))
    @pytest.mark.parametrize("num_rhs", [(2, 1), (0, 2), (0, 0)],
                             ids=["both sides", "right only", "no mode"])
    def test_real_matrix_has_a_real_q(self, boundary, num_rhs):
        """``check_solver_agreement`` asserts the float64 Q, its
        agreement with the promoted matrix's, and SplitSolve == RGF ==
        sparse-direct with the complex Sigma stacked against it."""
        a = make_confined_btd(SIZES, [COUPLING] * (len(SIZES) - 1), seed=4,
                              cplx=False)
        assert a.dtype == np.float64
        x = check_solver_agreement(a, boundary_support=BOUNDARY[boundary],
                                   num_rhs=num_rhs)
        assert x.dtype == np.complex128

    def test_symmetric_real_matrix_takes_the_dsysv_path(self):
        a = make_confined_btd([6] * 8, [RECT] * 7, seed=6, cplx=False)
        a = BlockTridiagonalMatrix([d + d.T for d in a.diag], a.upper,
                                   [u.T for u in a.upper])
        assert a.is_hermitian()
        check_solver_agreement(a, partitions=(2,))
        with ledger_scope() as led:
            SplitSolve(a, 2, parallel=False).preprocess()
        assert set(led.flops_by_kernel) == {"dsysv", "dgesv", "dgemm"}

    @pytest.mark.parametrize("parts", [1, 2])
    def test_mixed_blocks_take_the_promoted_path_bit_for_bit(self, parts):
        """A complex A is solved as the parent solved it: every operand
        of Step 1 in complex128, whatever the dtype of its own block."""
        a = make_confined_btd([6] * 8, [RECT] * 7, seed=7)
        mixed = BlockTridiagonalMatrix(
            a.diag, [u.real.copy() for u in a.upper], a.lower)
        assert mixed.dtype == np.complex128
        assert mixed.upper[0].dtype == np.float64
        sl, sr, bt, bb = boundary_operands(mixed, None)
        results = []
        for m in (mixed, promote_to_complex(mixed)):
            ss = SplitSolve(m, parts, parallel=False)
            with ledger_scope() as led:
                x = ss.solve(sl, sr, bt, bb)
            results.append((x, led))
        (x, led), (x_ref, led_ref) = results
        assert x.tobytes() == x_ref.tobytes()
        assert led.as_snapshot() == led_ref.as_snapshot()


class TestModels:
    @pytest.mark.parametrize("parts", [1, 2])
    @pytest.mark.parametrize("boundary", [None, ([0, 2, 3], [1, 4])],
                             ids=["full", "interface"])
    @pytest.mark.parametrize("hermitian", [False, True])
    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_ledger_equals_models_in_both_dtypes(self, cplx, hermitian,
                                                 boundary, parts):
        nb, s = 8, 6
        a = make_confined_btd([s] * nb, [RECT] * (nb - 1), seed=11,
                              cplx=cplx)
        sl, sr, bt, bb = boundary_operands(a, boundary)
        ss = SplitSolve(a, parts, parallel=False, hermitian=hermitian,
                        boundary_support=boundary)
        with ledger_scope() as led:
            ss.solve(sl, sr, bt, bb)
        priced = dict(
            num_partitions=parts, is_complex=cplx,
            coupling_widths=a.coupling_support().widths(),
            boundary_widths=None if boundary is None
            else tuple(len(r) for r in boundary))
        assert led.total_flops == splitsolve_flop_model(
            nb, s, 3, hermitian=hermitian, **priced)
        assert led.total_bytes == splitsolve_byte_model(nb, s, 3, **priced)
        if not cplx:
            complex_price = dict(priced, is_complex=True)
            assert 2 * led.total_flops < splitsolve_flop_model(
                nb, s, 3, hermitian=hermitian, **complex_price)
            assert led.total_bytes < splitsolve_byte_model(
                nb, s, 3, **complex_price)

    def test_pipeline_prices_the_dtype_of_the_cache(self):
        assert TransportPipeline._splitsolve_pricing(
            DeviceCache(wire()))["is_complex"] is False
        assert TransportPipeline._splitsolve_pricing(
            DeviceCache(film_off_gamma()))["is_complex"] is True


class TestParallelLedger:
    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_pool_threads_record_into_the_callers_ledger(self, cplx):
        """``SplitSolve(parallel=True)`` used to lose the flops of its
        pool threads to the global ledger."""
        a = make_confined_btd([12] * 8, [None] * 7, seed=2, cplx=cplx)
        sl, sr, bt, bb = boundary_operands(a, None)
        snapshots = []
        for parallel in (False, True):
            before = global_ledger().as_snapshot()
            with ledger_scope() as led:
                SplitSolve(a, 2, parallel=parallel).solve(sl, sr, bt, bb)
            assert global_ledger().as_snapshot() == before
            snapshots.append(led.as_snapshot())
        assert snapshots[0]["flops_by_device"]
        assert snapshots[0] == snapshots[1]


class TestHostileInput:
    def test_nan_in_the_potential_is_a_typed_error(self):
        """ROADMAP 6c: not a NaN T(E), and not LAPACK's "illegal
        argument" either."""
        structure = silicon_nanowire(0.7, 4)
        basis = tight_binding_set()
        device = build_device(structure, basis, 4)
        potential = np.zeros(structure.num_atoms)
        potential[structure.num_atoms // 2] = np.nan
        with pytest.raises(SingularMatrixError, match="non-finite"):
            compute_spectrum(structure, basis, 4, [open_energy(device)],
                             potential=potential, obc_method="dense",
                             solver="splitsolve")
