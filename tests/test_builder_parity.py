"""The stacked Hamiltonian builder is bitwise the per-pair loop.

``build_matrices`` groups an image's bonds by (species, species) and
builds each group's blocks in one call; ``DeviceFamily`` builds H_R / S_R
once and assembles every k-point from them.  Both must hand the solvers
exactly the matrices of the frozen per-pair reference
(``tests.helpers.reference_build_matrices``, one ``build_device`` per
k-point): equal CSR ``indptr`` / ``indices`` / ``data`` bit for bit in
every image, and an equal ``device_content_hash`` for every device of a
family - so a result store written before the stacked builder still
serves the same keys.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.basis import gaussian_3sp_set, tight_binding_set
from repro.cache.keys import device_content_hash
from repro.hamiltonian import build_device, build_matrices
from repro.pipeline.cache import DeviceFamily
from repro.structure import (Structure, lithiated_sno_anode, linear_chain,
                             silicon_nanowire, silicon_utb_film)
from repro.utils.errors import ConfigurationError
from tests.helpers import reference_build_matrices
from tests.test_hamiltonian import single_s_basis

BASES = {
    "tb": tight_binding_set,
    "3sp-0.40": lambda: gaussian_3sp_set(cutoff=0.40),
    "3sp-0.75": gaussian_3sp_set,
}

#: name -> (structure, num_cells, num_k); the film's even grid puts its
#: k-point off Gamma and makes ``gamma_device`` assemble a second one
STRUCTURES = {
    "nanowire": (lambda: silicon_nanowire(0.7, 4), 4, 1),
    "film": (lambda: silicon_utb_film(0.8, 4), 4, 2),
    "anode": (lambda: lithiated_sno_anode(600.0, cells_x=8, cells_yz=1,
                                          contact_cells=3, seed=0), 8, 1),
    "chain": (lambda: linear_chain(8, 0.25), 8, 1),
}

CASES = [(s, b) for s in STRUCTURES for b in BASES] + [("chain", "1s")]


def _basis(name):
    return single_s_basis() if name == "1s" else BASES[name]()


def assert_same_matrices(got, want):
    """Same images in the same order, same offsets, and every H_R / S_R
    equal in ``indptr``, ``indices`` and the bits of ``data``."""
    assert list(got.images) == list(want.images)
    np.testing.assert_array_equal(got.offsets, want.offsets)
    assert got.offsets.dtype == want.offsets.dtype
    for shift in want.images:
        for g, w in zip(got.images[shift], want.images[shift]):
            g, w = g.tocsr(), w.tocsr()
            g.sort_indices()
            w.sort_indices()
            where = f"image {shift}"
            np.testing.assert_array_equal(g.indptr, w.indptr, err_msg=where)
            np.testing.assert_array_equal(g.indices, w.indices, err_msg=where)
            assert g.data.dtype == w.data.dtype, where
            np.testing.assert_array_equal(g.data.view(np.uint64),
                                          w.data.view(np.uint64),
                                          err_msg=where)


@pytest.mark.parametrize("structure_name,basis_name", CASES)
def test_matrices_bitwise_equal_to_per_pair_loop(structure_name,
                                                 basis_name):
    structure = STRUCTURES[structure_name][0]()
    basis = _basis(basis_name)
    assert_same_matrices(build_matrices(structure, basis),
                         reference_build_matrices(structure, basis))


@pytest.mark.parametrize("structure_name,basis_name", CASES)
def test_family_devices_hash_equal_to_per_k_reference(
        structure_name, basis_name, monkeypatch):
    """Every device of a family (and its Gamma device) is the one a
    reference-built ``build_device`` makes at that k-point."""
    make, cells, num_k = STRUCTURES[structure_name]
    structure, basis = make(), _basis(basis_name)
    built = {}

    def frozen(ordered, basis_):
        # one reference build per structure: every k-point reuses it
        if "rsm" not in built:
            built["rsm"] = reference_build_matrices(ordered, basis_)
        return built["rsm"]

    try:
        family = DeviceFamily(structure, basis, cells, num_k)
    except ConfigurationError as err:
        # contact cells too short for this basis's NBW: the reference
        # must refuse the structure in the same words
        monkeypatch.setattr("repro.hamiltonian.device.build_matrices", frozen)
        with pytest.raises(ConfigurationError, match=re.escape(str(err))):
            build_device(structure, basis, cells)
        return
    monkeypatch.setattr("repro.hamiltonian.device.build_matrices", frozen)
    devices = list(zip(family.kgrid[:, 0], family.devices))
    devices.append((0.0, family.gamma_device()))
    for kz, dev in devices:
        want = build_device(structure, basis, cells, kpoint=(0.0, kz))
        assert device_content_hash(dev) == device_content_hash(want), kz
        np.testing.assert_array_equal(dev.orbital_offsets,
                                      want.orbital_offsets)
        np.testing.assert_array_equal(dev.atom_slab, want.atom_slab)
    if num_k % 2 == 0:
        assert family.gamma_device() is not family.devices[0]
        assert family.devices[0].hmat.dtype == np.complex128


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), jitter=st.floats(0.0, 0.02),
       cutoff=st.floats(0.24, 0.6), on_a_bond=st.booleans(),
       basis_name=st.sampled_from(["tb", "3sp"]),
       film=st.booleans())
def test_generated_structures_bitwise_equal(seed, jitter, cutoff, on_a_bond,
                                            basis_name, film):
    """Jittered wires and films over the basis / cutoff axis; with
    ``on_a_bond`` the cutoff is exactly one pair's distance, so the k-d
    tree's boundary and the ``r <= cutoff`` filter are both exercised."""
    base = silicon_utb_film(0.8, 2) if film else silicon_nanowire(0.7, 2)
    rng = np.random.default_rng(seed)
    pos = base.positions + rng.normal(scale=jitter, size=base.positions.shape)
    structure = Structure(pos, base.species, base.cell, base.periodic)
    if on_a_bond:
        dist = np.linalg.norm(pos[:, None] - pos[None], axis=-1)
        cutoff = float(rng.choice(dist[(dist > 0.2) & (dist < 0.6)]))
    basis = tight_binding_set(cutoff=cutoff) if basis_name == "tb" \
        else gaussian_3sp_set(cutoff=cutoff)
    assert_same_matrices(build_matrices(structure, basis),
                         reference_build_matrices(structure, basis))
