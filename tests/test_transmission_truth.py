"""T(E), the charge and the bond current against physics, over the axis
the flux bug hid on: basis (S = I / S != I), NBW, and degenerate modes.

Every case runs :func:`tests.helpers.check_transmission_truth` or
:func:`tests.helpers.check_density_dos`.  Agreement between OBC methods
or solvers cannot see a wrong flux convention - they all share it - so
the references here are the band count, the Caroli formula on decimation
self-energies, the interface current of psi and the band slopes of
``eigh(H(k), S(k))``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.basis import gaussian_3sp_set, tight_binding_set
from repro.hamiltonian import build_device
from repro.hamiltonian.device import synthetic_device_from_lead
from repro.negf import qtbm_energy_point
from repro.obc import (PolynomialEVP, boundary_from_modes, classify_modes,
                       compute_open_boundary, fold_modes)
from repro.obc.modes import mode_flux
from repro.pipeline.cache import BoundaryMemo, DeviceCache
from repro.pipeline.registry import SOLVERS
from repro.structure import silicon_nanowire, silicon_utb_film
from repro.utils.errors import SingularMatrixError
from tests.helpers import (add_scatterer, check_density_dos,
                           check_transmission_truth, make_confined_lead,
                           make_two_chain_lead, open_energies)

BASES = {
    "tb": tight_binding_set,                               # S = I, NBW 1
    "3sp-0.40": lambda: gaussian_3sp_set(cutoff=0.40),     # S != I, NBW 1
    "3sp-0.55": lambda: gaussian_3sp_set(cutoff=0.55),     # S != I, NBW 1
    "3sp-0.75": gaussian_3sp_set,                          # S != I, NBW 2
}
#: energies that open >= 2 bands on at least one structure of the basis
WIRE_ENERGIES = {"tb": (-5.0, 5.5)}
FILM_ENERGIES = {"tb": (-4.5, -3.2), "3sp-0.75": (5.2,)}
ENERGIES_3SP = (5.0, 5.2)


@pytest.fixture(scope="module")
def memo():
    """One boundary memo for the module: the 4- and 6-cell wires of one
    basis share a lead, and so its dense and decimation boundaries."""
    return BoundaryMemo()


@pytest.mark.parametrize("basis", list(BASES))
class TestPerfectSilicon:
    """T(E) = bands open, on the paper's structures and bases."""

    def test_nanowire(self, basis, memo):
        dev = build_device(silicon_nanowire(0.7, 4), BASES[basis](), 4)
        results = check_transmission_truth(
            DeviceCache(dev, memo=memo), WIRE_ENERGIES.get(basis, ENERGIES_3SP))
        assert max(r.num_prop_left for row in results for r in row) >= 2
        assert dev.lead.nbw == (2 if basis == "3sp-0.75" else 1)
        for row in results:
            for res in row:
                assert_one_table(res)

    @pytest.mark.parametrize("kz", [0.0, 0.2])
    def test_utb_film(self, basis, kz):
        dev = build_device(silicon_utb_film(0.8, 4), BASES[basis](), 4,
                           kpoint=(0.0, kz))
        results = check_transmission_truth(
            DeviceCache(dev), FILM_ENERGIES.get(basis, ENERGIES_3SP))
        assert max(r.num_prop_left for row in results for r in row) >= 2


def test_shift_invert_on_the_3sp_wire():
    dev = build_device(silicon_nanowire(0.7, 4), BASES["3sp-0.40"](), 4)
    check_transmission_truth(dev, [5.2], methods=("shift_invert",))


@pytest.fixture(scope="module", params=["tb", "3sp-0.40", "3sp-0.75"])
def six_cell_wire(request):
    """``(energies, device)`` of the 6-cell thin wire: three folded
    blocks at NBW = 2, so one is neither contact."""
    return (WIRE_ENERGIES.get(request.param, ENERGIES_3SP),
            build_device(silicon_nanowire(0.7, 6), BASES[request.param](), 6))


class TestSixCellWire:
    def test_compact_barrier(self, six_cell_wire, memo):
        """0.25 eV on the atoms of the middle third: T < modes, and the
        contact cells stay lead cells.  ``dense`` only - what FEAST and
        shift-and-invert lose of a *scattered* wave to their annulus is
        ROADMAP item 4."""
        energies, dev = six_cell_wire
        barrier = 0.25 * ((dev.atom_slab == 2) | (dev.atom_slab == 3))
        results = check_transmission_truth(
            DeviceCache(dev.with_potential(barrier), memo=memo), energies,
            methods=("dense",), perfect=False)
        for (res,) in results:
            assert res.transmission_lr < res.num_prop_left - 1e-3

    def test_charge_is_the_band_dos(self, six_cell_wire, memo):
        energies, dev = six_cell_wire
        cache = DeviceCache(dev, memo=memo)
        for e in energies:
            check_density_dos(cache, e)


def assert_one_table(res):
    """``InjectedMode.velocity`` is the table entry of the same mode and
    ``EnergyPointResult.velocities`` its magnitude - the same floats."""
    ob, modes = res.boundary, res.boundary.modes
    rows = np.flatnonzero(modes.propagating)
    assert len(ob.injected) == len(rows)
    for col, (mode, i) in enumerate(zip(ob.injected, rows)):
        assert mode.velocity == modes.velocities[i]
        assert res.velocities[col] == abs(modes.velocities[i])
        assert mode.from_left == modes.right_going[i] == (mode.velocity > 0)
        assert np.array_equal(mode.vector, modes.vectors[:, i])
    assert np.array_equal(res.from_left, ob.from_left)
    return rows


def test_the_table_holds_the_flux_of_the_stored_vector():
    """... and that float is ``mode_flux`` of the folded vector as stored,
    on a non-orthogonal NBW = 2 lead (the 3SP wires assert the rest)."""
    lead = make_confined_lead(8, None, None, nbw=2, seed=1)
    dev = synthetic_device_from_lead(lead, 4)
    (energy,) = open_energies(lead, 1)
    res = qtbm_energy_point(dev, energy, obc_method="dense", solver="rgf")
    modes = res.boundary.modes
    rows = assert_one_table(res)
    assert len(rows) >= 2
    flux = mode_flux(modes.lambdas[rows], modes.vectors[:, rows],
                     [lead.h01 - energy * lead.s01])
    np.testing.assert_allclose(flux, modes.velocities[rows], rtol=1e-10)


# -- degenerate modes -------------------------------------------------------

def _two_chain_device(overlap):
    """Six cells of the two-chain lead; blocks 2-3 are shifted by 0.3 eV
    and couple the two chains (random 0.4 N), so the scattered wave mixes
    the modes of every degenerate pair."""
    lead = make_two_chain_lead(overlap=overlap)
    mix = 0.4 * np.random.default_rng(5).standard_normal((3, 3))
    delta = 0.3 * np.eye(6) + np.block([[np.zeros((3, 3)), mix],
                                        [mix.T, np.zeros((3, 3))]])
    return add_scatterer(synthetic_device_from_lead(lead, 6), (2, 3), delta)


def dense_rotated(lead, energy):
    """The ``dense`` boundary from vectors rotated by a random invertible
    2 x 2 inside each degenerate propagating pair: as legitimate an
    answer of an eigen-solver as the one ``zggev`` happens to give."""
    pevp = PolynomialEVP(lead.h_cells, lead.s_cells, energy)
    modes = fold_modes(classify_modes(pevp, *pevp.solve_dense()), lead.nbw)
    rng = np.random.default_rng(3)
    vectors = modes.vectors.copy()
    prop = list(np.flatnonzero(modes.propagating))
    pairs = 0
    while prop:
        i = prop.pop(0)
        for j in prop:
            if abs(modes.lambdas[i] - modes.lambdas[j]) < 1e-9:
                prop.remove(j)
                w = rng.standard_normal((2, 2)) \
                    + 1j * rng.standard_normal((2, 2))
                vectors[:, [i, j]] = modes.vectors[:, [i, j]] @ w
                pairs += 1
                break
    assert pairs >= 2
    return boundary_from_modes(
        lead, energy, dataclasses.replace(modes, vectors=vectors))


@pytest.mark.parametrize("overlap", [False, True], ids=["S=I", "S!=I"])
class TestDegenerateModes:
    """``sum |c|^2 flux`` needs flux-orthogonal modes; a degenerate
    eigenspace comes back in whatever basis the eigen-solver likes."""

    ENERGY = 2.1

    def test_scattering_between_degenerate_modes(self, overlap):
        results = check_transmission_truth(
            _two_chain_device(overlap), [self.ENERGY],
            methods=("dense", dense_rotated, "feast", "shift_invert"),
            perfect=False, tol=1e-8)
        for res in results[0]:
            assert res.num_prop_left == 6
            assert res.transmission_lr < 6 - 0.1        # it does scatter

    def test_shift_invert_counts_an_eigenspace_once(self, overlap):
        """Regression: ``_dedupe`` kept every vector not *parallel* to a
        kept one, so three shifts gave three vectors of one
        two-dimensional eigenspace (9 modes for 6, S != I)."""
        lead = make_two_chain_lead(overlap=overlap)
        dense = compute_open_boundary(lead, self.ENERGY, method="dense")
        other = compute_open_boundary(lead, self.ENERGY,
                                      method="shift_invert", seed=0)
        for ob in (dense, other):
            assert ob.modes.num_propagating_right == 3 * 2
            assert ob.modes.num_propagating_left == 3 * 2
        assert other.modes.num_modes == dense.modes.num_modes


# -- generated leads ----------------------------------------------------------

@st.composite
def generated_devices(draw):
    """A seeded synthetic device: confined-lead builder arguments and an
    optional Hermitian scatterer on one interior block."""
    n = draw(st.integers(4, 10))
    nbw = draw(st.sampled_from([1, 2]))
    width = draw(st.integers(0, n // 2))       # 0: dense coupling
    lead = make_confined_lead(
        n, *((None, None) if width == 0 else
             (list(range(n - width, n)), list(range(width)))),
        nbw=nbw, seed=draw(st.integers(0, 2 ** 16)),
        cplx=draw(st.booleans()), overlap=draw(st.booleans()))
    dev = synthetic_device_from_lead(lead, 4)
    strength = draw(st.sampled_from([0.0, 0.3, 1.0]))
    if strength:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        pert = rng.standard_normal((dev.block_sizes[0],) * 2)
        dev = add_scatterer(dev, (draw(st.sampled_from([1, 2])),),
                            strength * 0.5 * (pert + pert.T))
    return dev, not strength


@settings(max_examples=25, deadline=None, derandomize=True)
@given(generated_devices())
def test_generated_leads_read_the_truth(case):
    device, perfect = case
    results = check_transmission_truth(
        device, open_energies(device.lead, 2), methods=("dense",),
        perfect=perfect)
    assert all(res.num_prop_left >= 1 for (res,) in results)


# -- hostile input ------------------------------------------------------------

class TestNonFinitePsi:
    """A NaN in the device ends in a typed error from SOLVE, whatever the
    solver - not in scipy's ``ValueError`` from ANALYZE."""

    @pytest.mark.parametrize("solver", SOLVERS.names())
    def test_every_solver(self, solver):
        dev = build_device(silicon_nanowire(0.7, 4), tight_binding_set(), 4)
        potential = np.zeros(dev.structure.num_atoms)
        potential[len(potential) // 2] = np.nan
        with pytest.raises(SingularMatrixError):
            qtbm_energy_point(dev.with_potential(potential), -5.0,
                              obc_method="dense", solver=solver)

    def test_spectrum_names_solver_and_energy(self):
        from repro.core.runner import compute_spectrum
        wire = silicon_nanowire(0.7, 4)
        potential = np.zeros(wire.num_atoms)
        potential[20] = np.nan
        with pytest.raises(SingularMatrixError, match=r"'rgf'.*E = -5\.0"):
            compute_spectrum(wire, tight_binding_set(), 4, [-5.0],
                             obc_method="dense", solver="rgf",
                             potential=potential)
