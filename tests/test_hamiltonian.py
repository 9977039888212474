"""Tests for the Hamiltonian generator (CP2K substitute)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.basis import gaussian_3sp_set, tight_binding_set
from repro.basis.shells import BasisSet, Shell, SpeciesBasis
from repro.hamiltonian import (
    assemble_k,
    block_bandwidth,
    block_sizes_from_slabs,
    build_device,
    build_matrices,
    fold_block_sizes,
    fold_lead_blocks,
    sparsity_report,
    to_block_tridiagonal,
    transverse_k_grid,
)
from repro.hamiltonian.sparsity import nnz_ratio
from repro.structure import (
    assign_slabs,
    linear_chain,
    order_by_slab,
    silicon_nanowire,
    silicon_utb_film,
)
from repro.utils.errors import ConfigurationError, ShapeError


def single_s_basis(cutoff=0.27, energy=0.0, decay=0.2):
    """Single-orbital chain basis: the analytic anchor."""
    sb = SpeciesBasis("X", (Shell(l=0, energy=energy, decay=decay),))
    return BasisSet(name="1s", species={"X": sb}, cutoff=cutoff,
                    energy_scale=1.0, overlap_scale=0.0)


class TestBuilder:
    def test_chain_matrix_structure(self):
        chain = linear_chain(5, 0.25)
        rsm = build_matrices(chain, single_s_basis())
        h, s = rsm.home
        assert h.shape == (5, 5)
        # nearest-neighbour hopping only
        d = h.toarray()
        t = d[0, 1]
        assert t < 0  # ss-sigma bonding
        np.testing.assert_allclose(np.diag(d, 1), t)
        np.testing.assert_allclose(np.diag(d, -1), t)
        assert np.count_nonzero(np.triu(d, 2)) == 0
        np.testing.assert_allclose(s.toarray(), np.eye(5))

    def test_h_symmetric(self):
        wire = silicon_nanowire(1.0, 2)
        rsm = build_matrices(wire, tight_binding_set())
        h, _ = rsm.home
        err = abs(h - h.T).max()
        assert err < 1e-12

    def test_s_symmetric_and_positive_definite(self):
        wire = silicon_nanowire(1.0, 2)
        rsm = build_matrices(wire, gaussian_3sp_set())
        _, s = rsm.home
        sd = s.toarray()
        np.testing.assert_allclose(sd, sd.T, atol=1e-12)
        w = np.linalg.eigvalsh(sd)
        assert w.min() > 0.05, f"overlap nearly singular: min eig {w.min()}"

    def test_onsite_energies_on_diagonal(self):
        chain = linear_chain(3, 0.25)
        rsm = build_matrices(chain, single_s_basis(energy=1.5))
        h, _ = rsm.home
        np.testing.assert_allclose(h.diagonal(), 1.5)

    def test_empty_structure_rejected(self):
        from repro.structure import Structure
        empty = Structure(np.zeros((0, 3)), np.array([]), np.eye(3))
        with pytest.raises(ConfigurationError):
            build_matrices(empty, single_s_basis())

    def test_transverse_images_present_for_utb(self):
        film = silicon_utb_film(0.8, 2)
        rsm = build_matrices(film, tight_binding_set())
        assert (0, 1) in rsm.images and (0, -1) in rsm.images
        h_p, _ = rsm.images[(0, 1)]
        h_m, _ = rsm.images[(0, -1)]
        np.testing.assert_allclose(h_p.toarray(), h_m.toarray().T, atol=1e-12)

    def test_coincident_atoms_rejected(self):
        """Two atoms at one point are an error naming both and the
        image, not a silently uncoupled pair."""
        from repro.structure import Structure
        chain = linear_chain(4, 0.25)
        twin = Structure(np.vstack([chain.positions, chain.positions[2]]),
                         np.append(chain.species, "X"), chain.cell,
                         chain.periodic)
        with pytest.raises(ConfigurationError,
                           match=r"atoms 2 and 4 coincide in image \(0, 0\)"):
            build_matrices(twin, single_s_basis())
        # an atom on its neighbour's periodic image
        film = silicon_utb_film(0.8, 2)
        pos = film.positions.copy()
        pos[1] = pos[0] + film.cell[2]
        shifted = Structure(pos, film.species, film.cell, film.periodic)
        with pytest.raises(ConfigurationError,
                           match=r"atoms (0 and 1|1 and 0) coincide in image"):
            build_matrices(shifted, tight_binding_set())

    def test_no_x_wraparound(self):
        """Transport direction must never be wrapped periodically."""
        chain = linear_chain(4, 0.25)  # periodic[0] is True
        rsm = build_matrices(chain, single_s_basis())
        h, _ = rsm.home
        assert h.toarray()[0, 3] == 0.0


class TestKspace:
    def test_gamma_point_real(self):
        film = silicon_utb_film(0.8, 2)
        rsm = build_matrices(film, tight_binding_set())
        hk, sk = assemble_k(rsm, (0.0, 0.0))
        assert hk.dtype == np.float64
        err = abs(hk - hk.T).max()
        assert err < 1e-12

    def test_finite_k_hermitian(self):
        film = silicon_utb_film(0.8, 2)
        rsm = build_matrices(film, tight_binding_set())
        hk, sk = assemble_k(rsm, (0.0, 0.3))
        assert np.iscomplexobj(hk.toarray())
        err = abs(hk - hk.conj().T).max()
        assert err < 1e-12
        err_s = abs(sk - sk.conj().T).max()
        assert err_s < 1e-12

    def test_k_changes_spectrum(self):
        film = silicon_utb_film(0.8, 2)
        rsm = build_matrices(film, tight_binding_set())
        h0, _ = assemble_k(rsm, (0.0, 0.0))
        hk, _ = assemble_k(rsm, (0.0, 0.25))
        w0 = np.linalg.eigvalsh(h0.toarray())
        wk = np.linalg.eigvalsh(hk.toarray())
        assert not np.allclose(w0, wk)

    def test_k_grid_weights(self):
        g = transverse_k_grid(21)
        assert g[:, 1].sum() == pytest.approx(1.0)
        assert np.all(g[:, 0] >= 0)  # reduced by time reversal
        full = transverse_k_grid(21, reduced=False)
        assert len(full) == 21
        assert full[:, 1].sum() == pytest.approx(1.0)

    def test_k_grid_invalid(self):
        with pytest.raises(ConfigurationError):
            transverse_k_grid(0)


class TestPartition:
    def test_block_sizes(self):
        chain = linear_chain(6, 0.25)
        slab = assign_slabs(chain, 3)
        ordered, _, slab = order_by_slab(chain, slab)
        offsets = build_matrices(ordered, single_s_basis()).offsets
        sizes = block_sizes_from_slabs(offsets, slab, 3)
        np.testing.assert_array_equal(sizes, [2, 2, 2])

    def test_block_sizes_requires_order(self):
        chain = linear_chain(4, 0.25)
        with pytest.raises(ConfigurationError):
            block_sizes_from_slabs(np.arange(5), np.array([1, 0, 1, 0]), 2)

    def test_empty_slab_rejected(self):
        chain = linear_chain(2, 0.25)
        with pytest.raises(ConfigurationError):
            block_sizes_from_slabs(np.arange(3), np.array([0, 2]), 3)

    def test_bandwidth_nearest_neighbour(self):
        chain = linear_chain(6, 0.25)
        rsm = build_matrices(chain, single_s_basis())
        h, _ = rsm.home
        assert block_bandwidth(h, [1] * 6) == 1
        assert block_bandwidth(h, [2, 2, 2]) == 1

    def test_bandwidth_second_neighbour(self):
        chain = linear_chain(6, 0.25)
        rsm = build_matrices(chain, single_s_basis(cutoff=0.51))
        h, _ = rsm.home
        assert block_bandwidth(h, [1] * 6) == 2

    def test_to_btd_strict_raises_on_wide_band(self):
        chain = linear_chain(6, 0.25)
        rsm = build_matrices(chain, single_s_basis(cutoff=0.51))
        h, _ = rsm.home
        with pytest.raises(ShapeError):
            to_block_tridiagonal(h, [1] * 6)
        # after folding it must pass
        btd = to_block_tridiagonal(h, fold_block_sizes([1] * 6, 2))
        np.testing.assert_allclose(btd.to_dense(), h.toarray())


class TestFolding:
    def test_fold_sizes_exact(self):
        assert fold_block_sizes([1, 1, 1, 1], 2) == [2, 2]

    def test_fold_sizes_remainder(self):
        assert fold_block_sizes([1, 1, 1, 1, 1], 2) == [2, 3]

    def test_fold_sizes_invalid(self):
        with pytest.raises(ConfigurationError):
            fold_block_sizes([1, 1], 0)
        with pytest.raises(ConfigurationError):
            fold_block_sizes([1, 1], 3)

    def test_fold_lead_blocks_matches_direct_supercell(self):
        """Folding per-cell NBW=2 blocks must equal building with
        2-atom cells directly."""
        basis = single_s_basis(cutoff=0.51)
        chain = linear_chain(8, 0.25)
        rsm = build_matrices(chain, basis)
        h = rsm.home[0].toarray()
        # per-cell (1-atom) lead blocks from the bulk interior
        h_cells = [h[2:3, 2 + l:3 + l] for l in range(3)]
        h00, h01 = fold_lead_blocks(h_cells, 2)
        # direct supercell: cut 2x2 blocks
        np.testing.assert_allclose(h00, h[2:4, 2:4])
        np.testing.assert_allclose(h01, h[2:4, 4:6])

    def test_fold_lead_blocks_validation(self):
        with pytest.raises(ConfigurationError):
            fold_lead_blocks([np.eye(2), np.eye(2), np.eye(2)], 1)
        with pytest.raises(ConfigurationError):
            fold_lead_blocks([np.eye(2), np.eye(3)], 2)


class TestDevice:
    def test_chain_device(self):
        chain = linear_chain(8, 0.25)
        dev = build_device(chain, single_s_basis(), num_cells=8)
        assert dev.num_orbitals == 8
        assert dev.lead.nbw == 1
        assert dev.block_sizes == [1] * 8
        # lead hopping equals the bulk hopping
        t = dev.hmat.toarray()[3, 4]
        np.testing.assert_allclose(dev.lead.h01, [[t]])

    def test_device_folds_nbw2(self):
        chain = linear_chain(8, 0.25)
        dev = build_device(chain, single_s_basis(cutoff=0.51), num_cells=8)
        assert dev.lead.nbw == 2
        assert dev.block_sizes == [2, 2, 2, 2]
        assert dev.lead.folded_size == 2

    def test_a_matrix(self):
        chain = linear_chain(6, 0.25)
        dev = build_device(chain, single_s_basis(), num_cells=6)
        a = dev.a_matrix(0.5)
        expect = 0.5 * dev.smat.toarray() - dev.hmat.toarray()
        np.testing.assert_allclose(a.to_dense(), expect)

    def test_nanowire_device_blocks(self):
        wire = silicon_nanowire(1.0, 4)
        dev = build_device(wire, tight_binding_set(), num_cells=4)
        assert dev.lead.nbw == 1
        assert sum(dev.block_sizes) == dev.num_orbitals
        h = dev.h_blocks()
        assert h.residual_outside_band(dev.hmat.toarray()) == 0.0

    def test_with_potential_orthogonal(self):
        chain = linear_chain(6, 0.25)
        dev = build_device(chain, single_s_basis(), num_cells=6)
        v = np.linspace(0, 0.5, 6)
        dev2 = dev.with_potential(v)
        np.testing.assert_allclose(
            dev2.hmat.diagonal() - dev.hmat.diagonal(), v)

    def test_with_potential_nonorthogonal_stays_hermitian(self):
        wire = silicon_nanowire(1.0, 4)
        dev = build_device(wire, gaussian_3sp_set(), num_cells=4)
        v = np.linspace(-0.2, 0.2, wire.num_atoms)
        dev2 = dev.with_potential(v)
        h = dev2.hmat
        assert abs(h - h.conj().T).max() < 1e-12

    def test_with_potential_shape_check(self):
        chain = linear_chain(6, 0.25)
        dev = build_device(chain, single_s_basis(), num_cells=6)
        with pytest.raises(ConfigurationError):
            dev.with_potential(np.zeros(3))

    def test_too_few_cells(self):
        chain = linear_chain(2, 0.25)
        with pytest.raises(ConfigurationError):
            build_device(chain, single_s_basis(), num_cells=1)
        chain3 = linear_chain(3, 0.25)
        with pytest.raises(ConfigurationError):
            build_device(chain3, single_s_basis(cutoff=0.51), num_cells=3)


class TestSparsity:
    def test_dft_vs_tb_ratio(self):
        """Fig. 3: the DFT basis carries ~100x more non-zeros than TB.

        At our laptop-scale wire the surface-to-volume ratio is higher
        than in the paper's UTB, so the ratio is smaller but must still be
        dramatic (>= 20x).
        """
        wire = silicon_nanowire(1.2, 4)
        tb = build_matrices(wire, tight_binding_set()).home[0]
        dft = build_matrices(wire, gaussian_3sp_set()).home[0]
        rep_tb = sparsity_report(tb, wire, tight_binding_set())
        rep_dft = sparsity_report(dft, wire, gaussian_3sp_set())
        ratio = nnz_ratio(rep_dft, rep_tb)
        assert ratio > 20.0, f"DFT/TB nnz ratio only {ratio:.1f}"

    def test_report_fields(self):
        chain = linear_chain(5, 0.25)
        basis = single_s_basis()
        h = build_matrices(chain, basis).home[0]
        rep = sparsity_report(h, chain, basis, cell_sizes=[1] * 5)
        assert rep.num_orbitals == 5
        assert rep.nnz == 8  # 4+4 hoppings; zero onsite energies drop out
        assert rep.block_bandwidth == 1
        assert "nnz" in rep.row()

    def test_ratio_rejects_different_structures(self):
        chain = linear_chain(5, 0.25)
        chain2 = linear_chain(6, 0.25)
        basis = single_s_basis()
        r1 = sparsity_report(build_matrices(chain, basis).home[0],
                             chain, basis)
        r2 = sparsity_report(build_matrices(chain2, basis).home[0],
                             chain2, basis)
        with pytest.raises(ValueError):
            nnz_ratio(r1, r2)
