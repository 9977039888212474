"""What only an open boundary decides is built once, with the boundary.

The contacts of a Schroedinger-Poisson run are potential-frozen, so the
family's boundary memo hands one :class:`OpenBoundary` to every SCF
iteration (and bias point, and the final spectrum) that asks for its
(k, E).  The products that depend on nothing else - the injection rows of
Inj and the two outgoing flux bases of ANALYZE - are built the first time
a point asks and reused by every later one.  They stay O(boundary) in
size, never travel in a pickle or a result-store record, and reuse them
or not, every record is the same bytes.
"""

import pickle

import numpy as np
import pytest

from repro.basis import tight_binding_set
from repro.cache.store import encode_record, pack_result
from repro.core.energygrid import lead_band_structure
from repro.core.runner import compute_spectrum
from repro.negf import transmission
from repro.obc.selfenergy import OpenBoundary
from repro.pipeline.cache import DeviceFamily
from repro.poisson.scf import schroedinger_poisson
from repro.structure import silicon_nanowire

CELLS = 4
ITERATIONS = 3


@pytest.fixture(scope="module")
def wire():
    structure = silicon_nanowire(0.7, CELLS)
    basis = tight_binding_set()
    family = DeviceFamily(structure, basis, CELLS)
    e_lo = float(lead_band_structure(family.gamma_device().lead, 11)[1].min())
    return structure, basis, family, (e_lo + 0.1, e_lo + 0.6)


@pytest.fixture(scope="module")
def scf_run(wire):
    """A 3-iteration loop, counting every build of a boundary product."""
    structure, basis, family, window = wire
    built = {"rows": 0, "flux": 0}
    rows = OpenBoundary._injection_rows

    def counted_rows(ob):
        built["rows"] += 1
        return rows(ob)

    class CountedFluxBasis(transmission._FluxBasis):
        def __init__(self, *args):
            built["flux"] += 1
            super().__init__(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(OpenBoundary, "_injection_rows", counted_rows)
        mp.setattr(transmission, "_FluxBasis", CountedFluxBasis)
        result = schroedinger_poisson(
            structure, basis, CELLS, mu_l=window[0] + 0.2,
            mu_r=window[0] + 0.1, e_window=window, mixing=0.5,
            max_iter=ITERATIONS, tol=0.0, density_scale=0.05,
            family=family)
    return result, built, len(family.memo)


def _boundaries(family):
    return list(family.memo._entries.values())


def _arrays(obj):
    """Every array a memoized product holds, however it is nested."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)
    elif isinstance(obj, dict):
        yield from _arrays(list(obj.values()))
    elif hasattr(obj, "__dict__"):
        for item in vars(obj).values():
            yield from _arrays(item)


def test_products_are_built_once_per_boundary(scf_run):
    result, built, distinct = scf_run
    points = ITERATIONS * len(result.spectrum.results)
    assert result.iterations == ITERATIONS
    assert distinct < points            # the loop did reuse boundaries
    assert built["rows"] == distinct
    assert built["flux"] == 2 * distinct    # one per lead side


def test_no_memoized_array_has_a_device_length_axis(wire, scf_run):
    _structure, _basis, family, _window = wire
    device_length = family.gamma_device().num_orbitals
    boundary_size = family.gamma_device().lead.folded_size
    obs = _boundaries(family)
    assert all(set(ob.__dict__["_derived"]) == {"injection_rows",
                                                "flux_bases"}
               for ob in obs)
    arrays = [a for ob in obs
              for a in _arrays(list(ob.__dict__["_derived"].values()))]
    assert arrays
    assert max(max(a.shape, default=0) for a in arrays) < device_length
    # the rows, Q^H and R are boundary-sized; only the mode table the
    # boundary already holds may be wider (one column per mode)
    table = {id(ob.modes.vectors) for ob in obs}
    assert all(max(a.shape, default=0) <= boundary_size
               for a in arrays if id(a) not in table)


def test_a_served_boundary_pickles_without_its_products(wire, scf_run):
    _structure, _basis, family, _window = wire
    cache = family.cache(0)
    for ob in _boundaries(family)[:4]:
        assert "_derived" in ob.__dict__
        blob = pickle.dumps(ob)
        assert b"_derived" not in blob and b"injected" not in blob
        back = pickle.loads(blob)
        assert "_derived" not in back.__dict__
        np.testing.assert_array_equal(
            back.injection_matrix(cache.num_blocks, cache.block_sizes),
            ob.injection_matrix(cache.num_blocks, cache.block_sizes))


def test_records_are_the_same_bytes_with_products_reused(wire):
    """A spectrum served memoized boundaries (and their products) packs
    to the records of one that solves every boundary afresh."""
    structure, basis, family, window = wire
    energies = np.linspace(*window, 6)
    potential = np.linspace(0.0, -0.05, structure.num_atoms)
    kwargs = dict(obc_method="dense", solver="rgf", potential=potential)
    compute_spectrum(structure, basis, CELLS, energies, family=family,
                     **kwargs)
    reused = compute_spectrum(structure, basis, CELLS, energies,
                              family=family, **kwargs)
    fresh = compute_spectrum(structure, basis, CELLS, energies, **kwargs)
    assert all("_derived" in res.boundary.__dict__
               for res in reused.results)
    for a, b in zip(reused.results, fresh.results):
        ra, rb = pack_result(a), pack_result(b)
        assert encode_record("k", ra) == encode_record("k", rb)
        assert sum(np.asarray(v).nbytes for v in ra.values()) \
            == sum(np.asarray(v).nbytes for v in rb.values())


@pytest.mark.parametrize("method", ["dense", "feast"])
def test_a_memoized_boundary_is_stored_on_its_coupling_support(wire,
                                                               method):
    """The lead couples to 16 and 8 of its 48 folded orbitals: no array a
    memoized boundary holds - its Sigma, M and T01 blocks, the mode
    table, the products built with it - is n x n in size."""
    structure, basis, _family, window = wire
    family = DeviceFamily(structure, basis, CELLS)
    obc_kwargs = dict(r_outer=3.0, num_points=8, seed=0) \
        if method == "feast" else {}
    compute_spectrum(structure, basis, CELLS, np.linspace(*window, 4),
                     family=family, obc_method=method, solver="rgf",
                     obc_kwargs=obc_kwargs)
    n = family.gamma_device().lead.folded_size
    obs = _boundaries(family)
    assert len(obs) == 4
    for ob in obs:
        rows, cols = ob.support
        assert max(rows.size, cols.size) < n
        assert "_derived" in ob.__dict__
        sizes = [a.size for a in _arrays(ob)]
        assert sizes and max(sizes) < n * n
