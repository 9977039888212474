"""Tests for basis sets and Slater-Koster matrix elements."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.basis import (
    BasisSet,
    Shell,
    functional_shift,
    gaussian_3sp_set,
    tight_binding_set,
)
from repro.basis.shells import SpeciesBasis
from repro.hamiltonian.slater_koster import (
    ETA_HAMILTONIAN,
    ETA_OVERLAP,
    atom_pair_blocks,
    bond_lengths,
    onsite_energies,
    radial,
)
from repro.hamiltonian import build_matrices
from repro.structure import linear_chain, silicon_nanowire
from repro.utils.errors import ConfigurationError
from tests.helpers import reference_pair_block


class TestShells:
    def test_orbital_counts(self):
        assert Shell(l=0, energy=0.0, decay=0.1).num_orbitals == 1
        assert Shell(l=1, energy=0.0, decay=0.1).num_orbitals == 3

    def test_rejects_bad_l(self):
        with pytest.raises(ConfigurationError):
            Shell(l=2, energy=0.0, decay=0.1)

    def test_rejects_bad_decay(self):
        with pytest.raises(ConfigurationError):
            Shell(l=0, energy=0.0, decay=0.0)

    def test_species_basis_labels(self):
        sb = SpeciesBasis("Si", (Shell(0, -5.0, 0.1), Shell(1, 1.0, 0.1)))
        assert sb.num_orbitals == 4
        assert sb.orbital_labels() == ["0s", "1px", "1py", "1pz"]


class TestSets:
    def test_tb_si_has_4_orbitals(self):
        assert tight_binding_set().for_species("Si").num_orbitals == 4

    def test_3sp_si_has_12_orbitals(self):
        """Paper: NSS = 12 x N_atoms (e.g. 122 880 for 10 240 atoms)."""
        assert gaussian_3sp_set().for_species("Si").num_orbitals == 12

    def test_tb_orthogonal_3sp_not(self):
        assert tight_binding_set().is_orthogonal
        assert not gaussian_3sp_set().is_orthogonal

    def test_functional_shift_ordering(self):
        """HSE06 opens the gap relative to LDA (Fig. 1b)."""
        assert functional_shift("lda") == 0.0
        assert functional_shift("hse06") > functional_shift("pbe") > 0.0

    def test_functional_shifts_p_onsite(self):
        lda = tight_binding_set("lda").for_species("Si")
        hse = tight_binding_set("hse06").for_species("Si")
        assert hse.shells[1].energy - lda.shells[1].energy == pytest.approx(
            functional_shift("hse06"))
        assert hse.shells[0].energy == lda.shells[0].energy

    def test_unknown_functional(self):
        with pytest.raises(ConfigurationError):
            functional_shift("b3lyp")

    def test_unknown_species(self):
        with pytest.raises(ConfigurationError):
            tight_binding_set().for_species("Uuo")

    def test_orbitals_per_atom(self):
        """The builder's orbital offsets: 12 orbitals per 3SP atom."""
        s = silicon_nanowire(1.0, 2)
        offsets = build_matrices(s, gaussian_3sp_set()).offsets
        assert np.all(np.diff(offsets) == 12)
        assert offsets[-1] == 12 * s.num_atoms

    def test_basisset_validation(self):
        with pytest.raises(ConfigurationError):
            BasisSet(name="x", species={}, cutoff=-1.0)
        with pytest.raises(ConfigurationError):
            BasisSet(name="x", species={}, cutoff=1.0, overlap_scale=1.5)




class TestSlaterKoster:
    """The stacked kernel: one call builds the blocks of a stack of bonds
    (a single bond is a stack of one)."""

    SH_S = Shell(l=0, energy=-5.0, decay=0.15)
    SH_P = Shell(l=1, energy=1.0, decay=0.15)

    def test_radial_decays_monotonically(self):
        rs = np.linspace(0.1, 0.6, 20)
        vals = radial(rs, self.SH_S, self.SH_P)
        assert np.all(np.diff(vals) < 0)
        assert vals[3] == radial(float(rs[3]), self.SH_S, self.SH_P)

    def test_ss_block_isotropic(self):
        deltas = np.array([[0.2, 0, 0], [0, 0.2, 0], [0, 0, -0.2]])
        blk = atom_pair_blocks((self.SH_S,), (self.SH_S,), deltas, 1.0,
                               ETA_HAMILTONIAN)
        assert blk.shape == (3, 1, 1)
        np.testing.assert_allclose(blk, blk[0, 0, 0])
        assert blk[0, 0, 0] < 0  # bonding ss-sigma is negative

    def test_sp_block_antisymmetric_under_reversal(self):
        """H must come out symmetric: block(j,i) = block(i,j)^T."""
        deltas = np.random.default_rng(1).uniform(-0.3, 0.3, (16, 3))
        sp_ = atom_pair_blocks((self.SH_S,), (self.SH_P,), deltas, 1.0,
                               ETA_HAMILTONIAN)
        ps = atom_pair_blocks((self.SH_P,), (self.SH_S,), -deltas, 1.0,
                              ETA_HAMILTONIAN)
        np.testing.assert_array_equal(ps, sp_.transpose(0, 2, 1))

    def test_pp_block_symmetric_under_reversal(self):
        deltas = np.random.default_rng(2).uniform(-0.3, 0.3, (16, 3))
        ij = atom_pair_blocks((self.SH_P,), (self.SH_P,), deltas, 1.0,
                              ETA_HAMILTONIAN)
        ji = atom_pair_blocks((self.SH_P,), (self.SH_P,), -deltas, 1.0,
                              ETA_HAMILTONIAN)
        np.testing.assert_array_equal(ji, ij.transpose(0, 2, 1))
        np.testing.assert_array_equal(ij, ij.transpose(0, 2, 1))

    def test_pp_eigenvalues_are_sigma_pi(self):
        """Along any bond direction the pp block has eigenvalues
        (V_ppsigma, V_pppi, V_pppi)."""
        delta = np.array([[0.1, 0.1, 0.1]])
        blk = atom_pair_blocks((self.SH_P,), (self.SH_P,), delta, 1.0,
                               ETA_HAMILTONIAN)[0]
        w = np.sort(np.linalg.eigvalsh(blk))
        rad = radial(np.linalg.norm(delta), self.SH_P, self.SH_P)
        expect = np.sort([ETA_HAMILTONIAN[("pp", "sigma")] * rad,
                          ETA_HAMILTONIAN[("pp", "pi")] * rad,
                          ETA_HAMILTONIAN[("pp", "pi")] * rad])
        np.testing.assert_allclose(w, expect, atol=1e-12)

    def test_atom_pair_block_shape(self):
        shells = (self.SH_S, self.SH_P)
        one = atom_pair_blocks(shells, shells, np.array([[0.2, 0, 0]]),
                               1.0, ETA_OVERLAP)
        assert one.shape == (1, 4, 4)
        many = atom_pair_blocks(shells, (self.SH_S,), np.ones((5, 3)),
                                1.0, ETA_OVERLAP)
        assert many.shape == (5, 4, 1)
        empty = atom_pair_blocks(shells, shells, np.zeros((0, 3)), 1.0,
                                 ETA_OVERLAP)
        assert empty.shape == (0, 4, 4)

    def test_onsite_block(self):
        np.testing.assert_array_equal(
            onsite_energies((self.SH_S, self.SH_P)), [-5.0, 1.0, 1.0, 1.0])
        np.testing.assert_array_equal(onsite_energies((self.SH_S,)), [-5.0])

    def test_bond_lengths_are_per_row_norms_bitwise(self):
        """One ``ddot`` per row, as ``np.linalg.norm`` of each row."""
        deltas = np.random.default_rng(3).uniform(-0.8, 0.8, (4096, 3))
        want = np.array([np.linalg.norm(d) for d in deltas])
        np.testing.assert_array_equal(bond_lengths(deltas), want)

    def test_stack_is_bitwise_the_per_bond_blocks(self):
        shells = gaussian_3sp_set().for_species("Si").shells
        deltas = np.random.default_rng(4).uniform(-0.5, 0.5, (64, 3))
        for scale, eta, decay in ((4.2, ETA_HAMILTONIAN, 1.0),
                                  (0.12, ETA_OVERLAP, 0.65)):
            got = atom_pair_blocks(shells, shells, deltas, scale, eta, decay)
            want = [reference_pair_block(shells, shells, d, scale, eta, decay)
                    for d in deltas]
            np.testing.assert_array_equal(got, want)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 1000))
def test_property_atom_block_reversal_symmetry(seed):
    """For random geometry every atom-pair block of a drawn batch, built in
    one call, satisfies B(j,i; -delta) = B(i,j; delta)^T — the requirement
    for symmetric H (bit for bit: reversing a bond only flips signs)."""
    rng = np.random.default_rng(seed)
    deltas = rng.uniform(-0.3, 0.3, (8, 3))
    deltas[np.linalg.norm(deltas, axis=1) < 0.05] = [0.2, 0.0, 0.0]
    shells_a = (Shell(0, -3.0, 0.12), Shell(1, 2.0, 0.18, weight=0.7))
    shells_b = (Shell(1, 1.0, 0.15, weight=0.4), Shell(0, -1.0, 0.2))
    for sa, sb in ((shells_a, shells_a), (shells_a, shells_b)):
        fwd = atom_pair_blocks(sa, sb, deltas, 1.3, ETA_HAMILTONIAN)
        bwd = atom_pair_blocks(sb, sa, -deltas, 1.3, ETA_HAMILTONIAN)
        np.testing.assert_array_equal(bwd, fwd.transpose(0, 2, 1))
