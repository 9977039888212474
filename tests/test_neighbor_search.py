"""The numpy neighbour search finds exactly the k-d tree's pairs.

``repro.structure.lattice.neighbor_search`` is the one pair search of the
package: ``build_matrices`` runs it once per periodic image and
``Structure.neighbor_pairs`` (wire pruning, slab locality) runs it with no
shift.  Its oracle is ``tests.helpers.reference_neighbor_pairs`` (a
``scipy.spatial.cKDTree``, which only the tests import).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.basis import tight_binding_set
from repro.hamiltonian import build_matrices
from repro.hamiltonian.builder import _transverse_image_shifts
from repro.structure import (Structure, assign_slabs, order_by_slab,
                             silicon_nanowire, silicon_utb_film)
from repro.structure.lattice import bond_lengths, neighbor_search
from repro.utils.errors import ConfigurationError
from tests.helpers import reference_neighbor_pairs


def _check_image(pos, cutoff, shift):
    i, j, delta, r = neighbor_search(pos, cutoff, shift)
    assert np.all(np.lexsort((j, i)) == np.arange(len(i))), "not (i, j)"
    want = reference_neighbor_pairs(pos, cutoff, shift)
    assert set(zip(i.tolist(), j.tolist())) == want
    assert len(i) == len(want)
    np.testing.assert_array_equal(delta, pos[j] + shift - pos[i])
    np.testing.assert_array_equal(r, bond_lengths(delta))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(0, 40),
       lattice=st.booleans(), periodic=st.sampled_from(
           [(False, False), (True, False), (False, True), (True, True)]),
       shell=st.sampled_from(["random", "on", "near"]),
       rel=st.floats(-1e-12, 1e-12), duplicates=st.integers(0, 3))
def test_pairs_equal_kdtree_oracle(seed, n, lattice, periodic, shell, rel,
                                   duplicates):
    """Random or lattice atoms in a box, y/z periodic or not, a cutoff at,
    next to or away from a shell distance, some atoms doubled: every
    image's pair set is the oracle's, sorted, with its exact separations."""
    rng = np.random.default_rng(seed)
    box = rng.uniform(0.4, 1.5, size=3)
    if lattice:
        grid = np.stack(np.meshgrid(*[np.arange(3)] * 3), -1).reshape(-1, 3)
        pos = (grid[:n] * box / 3).astype(float)
    else:
        pos = rng.uniform(0.0, 1.0, size=(n, 3)) * box
    if duplicates and len(pos):
        pos = np.vstack([pos, pos[rng.integers(0, len(pos), duplicates)]])
    cutoff = float(rng.uniform(0.1, 0.9))
    if shell != "random" and len(pos) > 1:
        dist = bond_lengths((pos[:, None] - pos[None]).reshape(-1, 3))
        cutoff = float(rng.choice(dist[dist > 0.05])) if (dist > 0.05).any() \
            else cutoff
        if shell == "near":
            cutoff *= 1.0 + rel
    structure = Structure(pos, np.array(["Si"] * len(pos)), np.diag(box),
                          np.array([False, *periodic]))
    for ny, nz in _transverse_image_shifts(structure, cutoff):
        _check_image(pos, cutoff, ny * structure.cell[1]
                     + nz * structure.cell[2])
    pairs, _ = structure.neighbor_pairs(cutoff)
    assert {tuple(p) for p in pairs.tolist()} \
        == reference_neighbor_pairs(pos, cutoff)
    if duplicates and len(pos):
        with pytest.raises(ConfigurationError, match="coincide"):
            build_matrices(structure, tight_binding_set(cutoff=cutoff))


def test_empty_and_single_atom():
    for n in (0, 1):
        i, j, delta, r = neighbor_search(np.zeros((n, 3)), 0.5)
        assert i.shape == j.shape == r.shape == (0,)
        assert delta.shape == (0, 3)
    # an atom meets its own periodic image
    i, j, _, r = neighbor_search(np.zeros((1, 3)), 0.5, (0.0, 0.4, 0.0))
    assert (i.tolist(), j.tolist(), r.tolist()) == ([0], [0], [0.4])


@pytest.mark.parametrize("make,num_cells", [
    (lambda: silicon_nanowire(0.7, 4), 4),
    (lambda: silicon_nanowire(1.2, 48), 48),
    (lambda: silicon_utb_film(1.6, 8), 8),
])
def test_generated_structures_equal_with_oracle_search(make, num_cells,
                                                       monkeypatch):
    """Wire pruning and slab ordering give the same atoms, species and
    slabs whether ``neighbor_pairs`` is the numpy search or the oracle."""
    got = make()

    def oracle_pairs(self, cutoff):
        pairs = sorted(reference_neighbor_pairs(self.positions, cutoff))
        pairs = np.array(pairs, dtype=int).reshape(-1, 2)
        return pairs, self.positions[pairs[:, 1]] - self.positions[pairs[:, 0]]

    monkeypatch.setattr(Structure, "neighbor_pairs", oracle_pairs)
    want = make()
    assert got.positions.tobytes() == want.positions.tobytes()
    np.testing.assert_array_equal(got.species, want.species)
    ordered, _, slabs = order_by_slab(got, assign_slabs(got, num_cells))
    ordered_want, _, slabs_want = order_by_slab(
        want, assign_slabs(want, num_cells))
    assert ordered.positions.tobytes() == ordered_want.positions.tobytes()
    np.testing.assert_array_equal(slabs, slabs_want)
