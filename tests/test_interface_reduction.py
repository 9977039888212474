"""Lead modes on the interface orbitals.

``PolynomialFamily`` hands out the lead polynomial Schur-reduced to the
orbitals its coupling blocks touch; the eigen-solvers run on that, the
lifted modes are judged on the full polynomial, and an energy the
reduction cannot be trusted at is solved unreduced and counted.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from repro.basis import tight_binding_set
from repro.cache import keys as cache_keys
from repro.hamiltonian import build_device
from repro.hamiltonian.device import LeadBlocks, synthetic_device_from_lead
from repro.linalg import block_support, geig, ledger_scope
from repro.obc import (PolynomialEVP, PolynomialFamily,
                       compute_open_boundary, compute_open_boundary_batch,
                       feast_annulus, polynomial, selfenergy)
from repro.observability.spans import tracing
from repro.perfmodel import (dense_obc_kernels, feast_kernels,
                             interface_reduction_kernels, kernel_bytes,
                             kernel_flops)
from repro.pipeline import DeviceCache, TransportPipeline
from repro.structure import silicon_nanowire, silicon_utb_film
from tests.helpers import (assert_spectra_match, check_obc_agreement,
                           check_sigma_causal, check_sigma_dyson,
                           make_confined_lead, open_energies)


FEAST = dict(r_outer=3.0, num_points=8, seed=0)

#: name -> make_confined_lead arguments, and the interface it must find
GENERATED = {
    "rectangular": (dict(n=10, rows=[7, 8, 9], cols=[0, 1]),
                    [0, 1, 7, 8, 9]),
    "ragged": (dict(n=12, rows=[3, 8, 11], cols=[0, 5], seed=1),
               [0, 3, 5, 8, 11]),
    "overlapping": (dict(n=8, rows=[0, 5, 6, 7], cols=[0, 1, 7], seed=2),
                    [0, 1, 5, 6, 7]),
    "full": (dict(n=5, rows=None, cols=None, seed=3), [0, 1, 2, 3, 4]),
    "complex": (dict(n=10, rows=[7, 8, 9], cols=[0, 1, 2], cplx=True,
                     seed=4), [0, 1, 2, 7, 8, 9]),
    "no-overlap-matrix": (dict(n=9, rows=[6, 7, 8], cols=[0, 1],
                               overlap=False, seed=5), [0, 1, 6, 7, 8]),
    # supports are taken over all off-centre coefficients
    "nbw2": (dict(n=9, rows=[[6, 7, 8], [8]], cols=[[0, 1], [0]], nbw=2,
                  seed=6), [0, 1, 6, 7, 8]),
}


def _rectangular(seed=0):
    return make_confined_lead(10, [7, 8, 9], [0, 1], seed=seed)


def _interior_levels(lead):
    """Eigenvalues of the isolated interior pencil (H_II, S_II)."""
    family = PolynomialFamily(lead.h_cells, lead.s_cells)
    ii = np.ix_(family.interior, family.interior)
    return sla.eigvalsh(lead.h_cells[0][ii], lead.s_cells[0][ii])


def _sigma_error(ob, ref):
    return max(np.abs(ob.sigma_l - ref.sigma_l).max(),
               np.abs(ob.sigma_r - ref.sigma_r).max())


def _unreduced(lead, energy, method, **kwargs):
    return compute_open_boundary(
        lead, energy, method=method,
        pevp=PolynomialEVP(lead.h_cells, lead.s_cells, energy), **kwargs)


class TestAgreement:
    @pytest.mark.parametrize("name", sorted(GENERATED))
    def test_generated_leads(self, name):
        kwargs, interface = GENERATED[name]
        lead = make_confined_lead(**kwargs)
        family = PolynomialFamily(lead.h_cells, lead.s_cells)
        assert family.interface.tolist() == interface
        assert family.interface.size + family.interior.size == family.n
        obs = check_obc_agreement(lead, open_energies(lead))
        assert all(ob.injected for ob in obs)

    def test_nanowire_lead(self):
        lead = build_device(silicon_nanowire(0.7, 4), tight_binding_set(),
                            4).lead
        family = PolynomialFamily(lead.h_cells, lead.s_cells)
        assert (family.interface.size, family.n) == (24, 48)
        check_obc_agreement(lead, open_energies(lead, 2))

    def test_utb_lead_at_complex_k(self):
        lead = build_device(silicon_utb_film(0.8, 4), tight_binding_set(),
                            4, kpoint=(0.0, 0.7)).lead
        assert np.iscomplexobj(lead.h_cells[1])
        family = PolynomialFamily(lead.h_cells, lead.s_cells)
        assert 0 < family.interior.size
        check_obc_agreement(lead, open_energies(lead, 2))


class TestBatchParity:
    """Per-energy == batch spelling, bit for bit, on the reduced path."""

    @pytest.mark.parametrize("batch", [1, 3, 16])
    def test_feast_batch_is_hex_equal_to_per_energy(self, batch):
        lead = _rectangular()
        lo, hi = open_energies(lead, 2)
        energies = np.linspace(lo, hi, 16)[:batch]
        obs = compute_open_boundary_batch(lead, energies, method="feast",
                                          **FEAST)
        for e, ob in zip(energies, obs):
            ref = compute_open_boundary(lead, e, method="feast", **FEAST)
            for got, want in ((ob.sigma_l, ref.sigma_l),
                              (ob.sigma_r, ref.sigma_r)):
                assert [x.hex() for x in got.real.ravel()] \
                    == [x.hex() for x in want.real.ravel()]
                assert np.array_equal(got, want)
            assert [m.lam for m in ob.injected] \
                == [m.lam for m in ref.injected]
            assert ob.info["iterations"] == ref.info["iterations"]

    def test_cache_batch_of_dense_obc_equals_per_point(self):
        lead = _rectangular()
        energies = open_energies(lead, 3)
        pipe = TransportPipeline(obc_method="dense", solver="rgf")
        batch = pipe.solve_batch(synthetic_device_from_lead(lead, 3),
                                 energies)
        point = DeviceCache(synthetic_device_from_lead(lead, 3))
        for e, res in zip(energies, batch):
            ob, ref = res.boundary, point.boundary(e, "dense")
            assert np.array_equal(ob.sigma_l, ref.sigma_l)
            assert np.array_equal(ob.sigma_r, ref.sigma_r)


class TestHostileInputs:
    @pytest.mark.parametrize("offset", [0.0, 1e-13])
    @pytest.mark.parametrize("method", ["dense", "feast"])
    def test_energy_on_an_interior_level_is_solved_unreduced(self, offset,
                                                             method):
        lead = _rectangular(seed=3)
        kwargs = dict(r_outer=20.0, num_points=24, seed=0) \
            if method == "feast" else {}
        for level in _interior_levels(lead)[:3]:
            energy = float(level) + offset
            with tracing() as tracer:
                ob = compute_open_boundary(lead, energy, method=method,
                                           **kwargs)
            fallbacks = tracer.metrics.counter("obc_interface_fallbacks")
            assert fallbacks.value == 1
            ref = _unreduced(lead, energy, method, **kwargs)
            assert _sigma_error(ob, ref) <= 1e-8

    def test_exactly_singular_interior_falls_back_without_a_warning(self):
        """K_II = [[1, 2], [2, 4]] at E = 0 has an exactly zero pivot: the
        interior LU raises its typed error and the energy is solved
        unreduced, as for a NaN growth - not scipy's "Diagonal number 2
        is exactly zero" warning and a Schur complement of infinities."""
        h0 = np.array([[0.5, 0.3, 0.1], [0.3, 1.0, 2.0], [0.1, 2.0, 4.0]])
        h1 = np.zeros((3, 3))
        h1[0, 0] = -1.0
        family = PolynomialFamily([h0, h1], [np.eye(3), np.zeros((3, 3))])
        assert family.interior.tolist() == [1, 2]
        with tracing() as tracer, warnings.catch_warnings():
            warnings.simplefilter("error", sla.LinAlgWarning)
            pevp = family.at_energy(0.0)
            pevp_away = family.at_energy(0.25)
        assert pevp.reduction is None and pevp.n == 3
        assert pevp_away.reduction is not None and pevp_away.n == 1
        assert tracer.metrics.counter("obc_interface_fallbacks").value == 1

    def test_batch_solves_only_the_singular_energy_unreduced(self):
        lead = _rectangular(seed=3)
        level = float(_interior_levels(lead)[2])
        energies = [level - 0.02, level, level + 0.03]
        family = PolynomialFamily(lead.h_cells, lead.s_cells)
        with tracing() as tracer:
            sizes = [family.at_energy(e).n for e in energies]
            obs = compute_open_boundary_batch(lead, energies,
                                              method="feast", **FEAST)
        assert sizes == [family.interface.size, family.n,
                         family.interface.size]
        assert tracer.metrics.counter("obc_interface_fallbacks").value == 2
        for e, ob in zip(energies, obs):
            ref = compute_open_boundary(lead, e, method="feast", **FEAST)
            assert np.array_equal(ob.sigma_l, ref.sigma_l)
            assert np.array_equal(ob.sigma_r, ref.sigma_r)

    @pytest.mark.parametrize("method", ["dense", "feast"])
    def test_lifted_mode_failing_the_full_residual_is_resolved_unreduced(
            self, monkeypatch, method):
        # without the growth limit the reduction goes ahead right above an
        # interior level; its modes are then too inaccurate for the full
        # polynomial, which the residual check on the lifted vectors sees.
        # FEAST's are 1e-10 above the level (full residual 2.4e-4 there;
        # 6.8e-8 at 1e-9, too close to the 1e-7 test to rely on); the face
        # pencil's only 1e-12 above it (full residual 2.6e-6 there, 3.3e-9
        # at 1e-9)
        monkeypatch.setattr(polynomial, "_SCHUR_GROWTH_LIMIT", np.inf)
        lead = _rectangular(seed=3)
        energy = float(_interior_levels(lead)[1]) \
            + (1e-10 if method == "feast" else 1e-12)
        kwargs = dict(r_outer=1e3, num_points=48, seed=0) \
            if method == "feast" else {}
        with tracing() as tracer, ledger_scope() as led:
            ob = compute_open_boundary(lead, energy, method=method,
                                       **kwargs)
        assert tracer.metrics.counter("obc_interface_fallbacks").value == 1
        if method == "feast":
            ref = _unreduced(lead, energy, "feast", **kwargs)
            assert np.array_equal(ob.sigma_l, ref.sigma_l)
        else:
            ref = _unreduced(lead, energy, "dense")
            assert _sigma_error(ob, ref) == 0.0
            # the discarded reduced solve is still in the books
            lifted = PolynomialFamily(lead.h_cells, lead.s_cells) \
                .at_energy(energy).solve_dense()[0].size
            assert led.total_flops == kernel_flops([
                *dense_obc_kernels(10, faces_disjoint=True),
                *dense_obc_kernels(5, faces_disjoint=True),
                *interface_reduction_kernels(5, 5, lifted)])

    def test_all_zero_coupling_is_not_reduced(self):
        lead = make_confined_lead(6, [], [])
        family = PolynomialFamily(lead.h_cells, lead.s_cells)
        assert family.interior.size == 0
        assert family.at_energy(1.0).reduction is None
        ob = compute_open_boundary(lead, 1.0, method="dense")
        assert _sigma_error(ob, _unreduced(lead, 1.0, "dense")) == 0.0
        assert not ob.injected

    @pytest.mark.parametrize("method,kwargs", [("dense", {}),
                                               ("feast", FEAST),
                                               ("shift_invert",
                                                dict(seed=0))])
    def test_dense_coupling_is_the_unreduced_path_bit_for_bit(self, method,
                                                              kwargs):
        lead = make_confined_lead(5, None, None, seed=3)
        energy = open_energies(lead, 1)[0]
        family = PolynomialFamily(lead.h_cells, lead.s_cells)
        pevp = family.at_energy(energy)
        assert pevp.reduction is None and pevp.full is pevp
        direct = PolynomialEVP(lead.h_cells, lead.s_cells, energy)
        for c, c_ref in zip(pevp.coeffs, direct.coeffs):
            assert np.array_equal(c, c_ref)
        with ledger_scope() as led:
            ob = compute_open_boundary(lead, energy, method=method,
                                       **kwargs)
        with ledger_scope() as led_ref:
            ref = _unreduced(lead, energy, method, **kwargs)
        assert [x.hex() for x in ob.sigma_l.real.ravel()] \
            == [x.hex() for x in ref.sigma_l.real.ravel()]
        assert np.array_equal(ob.sigma_l, ref.sigma_l)
        assert np.array_equal(ob.sigma_r, ref.sigma_r)
        assert led.as_snapshot() == led_ref.as_snapshot()


def _padded_nullspace(mat):
    """Null space of a coupling block from that of its compact part:
    one unit vector per all-zero column completes it."""
    rows, cols = block_support(mat)
    compact = selfenergy._compact_nullspace(mat[np.ix_(rows, cols)])
    n, nc = mat.shape[1], compact.shape[1]
    zero_cols = np.setdiff1d(np.arange(n), cols)
    null = np.zeros((n, nc + zero_cols.size), dtype=complex)
    null[cols, :nc] = compact
    null[zero_cols, nc + np.arange(zero_cols.size)] = 1.0
    return null


class TestCompactNullSpace:
    @pytest.mark.parametrize("name", ["rectangular", "overlapping", "full",
                                      "nbw2"])
    def test_spans_the_null_space_of_the_full_svd(self, name):
        lead = make_confined_lead(**GENERATED[name][0])
        t01 = (1.3 * lead.s01 - lead.h01).astype(complex)
        for mat in (t01, t01.conj().T):
            null = _padded_nullspace(mat)
            _u, s, vh = np.linalg.svd(mat)
            rank = int(np.count_nonzero(s > 1e-10 * s[0]))
            ref = vh[rank:].conj().T
            assert null.shape == ref.shape
            np.testing.assert_allclose(null.conj().T @ null,
                                       np.eye(null.shape[1]), atol=1e-12)
            np.testing.assert_allclose(null @ null.conj().T,
                                       ref @ ref.conj().T, atol=1e-12)
            assert np.abs(mat @ null).max(initial=0.0) < 1e-12

    def test_all_zero_block(self):
        null = _padded_nullspace(np.zeros((4, 4), dtype=complex))
        assert np.array_equal(null, np.eye(4))


def _rank_deficient_lead():
    """4 x 3 compact coupling of rank 2."""
    rows, cols = [6, 7, 8, 9], [0, 1, 2]
    base = make_confined_lead(10, rows, cols, overlap=False, seed=8)
    h1 = np.zeros((10, 10))
    h1[np.ix_(rows, cols)] = np.outer([1.0, -0.5, 0.3, 0.8], [-0.7, 0.4, 0.9]) \
        + np.outer([0.2, 0.9, -0.6, 0.1], [0.5, 0.5, -0.3])
    zero = np.zeros((10, 10))
    return LeadBlocks(h_cells=[base.h00, h1], s_cells=[base.s00, zero],
                      h00=base.h00, h01=h1, s00=base.s00, s01=zero)


#: name -> (lead, interface size, NBW, dense modes from the face pencil?)
PHYSICS = {
    "faces-real": (_rectangular, 5, 1, True),
    "faces-complex": (lambda: make_confined_lead(**GENERATED["complex"][0]),
                      6, 1, True),
    "overlapping": (lambda: make_confined_lead(
        **GENERATED["overlapping"][0]), 5, 1, False),
    "nbw2": (lambda: make_confined_lead(**GENERATED["nbw2"][0]), 5, 2,
             False),
    "rank-deficient": (_rank_deficient_lead, 7, 1, True),
    "dense-coupling": (lambda: make_confined_lead(5, None, None, seed=3),
                       5, 1, False),
}


class TestDenseSelfEnergyPhysics:
    """Sigma of the exact solve is a causal Dyson fixed point whichever
    pencil its modes came from."""

    @pytest.mark.parametrize("name", sorted(PHYSICS))
    def test_dyson_fixed_point_and_causality(self, name):
        make, nb, nbw, face = PHYSICS[name]
        lead = make()
        for e in open_energies(lead):
            with ledger_scope() as led:
                ob = compute_open_boundary(lead, e, method="dense")
            assert led.flops_by_kernel["zggev"] == kernel_flops(
                dense_obc_kernels(nb, nbw, faces_disjoint=face))
            assert ob.injected
            check_sigma_dyson(lead, ob, tol=1e-10)
            check_sigma_causal(ob)

    def test_empty_mode_set(self):
        lead = make_confined_lead(6, [], [])
        ob = compute_open_boundary(lead, 1.0, method="dense")
        assert ob.modes.num_modes == 0
        assert not ob.sigma_l.any() and not ob.sigma_r.any()
        assert check_sigma_dyson(lead, ob) == (0.0, 0.0)
        check_sigma_causal(ob)

    def test_face_pencil_spectrum_is_the_companion_pencils(self):
        # every finite non-zero Bloch factor, the mirrored ones included
        for name in ("faces-real", "faces-complex", "rank-deficient"):
            lead = PHYSICS[name][0]()
            for e in open_energies(lead):
                pevp = PolynomialEVP(lead.h_cells, lead.s_cells, e)
                lams, us = pevp.solve_dense()
                w, _v = geig(*pevp.pencil())
                ref = w[np.isfinite(w) & (np.abs(w) > 1e-10)
                        & (np.abs(w) < 1e10)]
                assert len(lams) == len(ref)
                assert_spectra_match(lams[np.abs(lams) < 2.0],
                                     ref[np.abs(ref) < 2.0], atol=1e-9)
                assert_spectra_match(1.0 / lams[np.abs(lams) > 0.5],
                                     1.0 / ref[np.abs(ref) > 0.5], atol=1e-9)
                assert pevp.residuals(lams, us).max() < 1e-12


def _full_size_map(vectors, weights, coupling):
    """(Phi Lambda) pinv(Phi) on all n rows, Phi = [V | null(coupling)]."""
    null = _padded_nullspace(coupling)
    phi = np.hstack([vectors, null])
    lam = np.concatenate([weights, np.zeros(null.shape[1])])
    return (phi * lam) @ np.linalg.pinv(phi, rcond=1e-12)


class TestBoundaryMapOnTheCouplingSupport:
    """The fit on the columns T01 can see is the full-size fit."""

    def _sides(self, ob):
        """(V, weights, coupling, propagating mask) of the left and the
        right map."""
        left = ob.modes.select(~ob.modes.right_going)
        right = ob.modes.select(ob.modes.right_going)
        return ((left.vectors, 1.0 / left.lambdas, ob.t01, left.propagating),
                (right.vectors, right.lambdas, ob.t01.conj().T,
                 right.propagating))

    @staticmethod
    def _map(vectors, weights, coupling):
        """``_support_map`` at the support of ``coupling``, scattered into
        the n x n map (zero at the columns the coupling cannot see)."""
        rows, cols = block_support(coupling)
        out = np.zeros((vectors.shape[0],) * 2, dtype=complex)
        out[:, cols] = selfenergy._support_map(
            vectors, weights, coupling[np.ix_(rows, cols)], cols)
        return out

    def _assert_same_map(self, vectors, weights, coupling):
        got = self._map(vectors, weights, coupling)
        want = _full_size_map(vectors, weights, coupling)
        assert got.shape == want.shape
        assert np.abs(got - want).max() \
            <= 1e-11 * np.abs(want).max(initial=1e-300)

    @pytest.mark.parametrize("name", sorted(PHYSICS))
    def test_complete_truncated_and_duplicated_mode_sets(self, name):
        lead = PHYSICS[name][0]()
        rng = np.random.default_rng(5)
        for e in open_energies(lead):
            ob = compute_open_boundary(lead, e, method="dense")
            for vectors, weights, coupling, prop in self._sides(ob):
                self._assert_same_map(vectors, weights, coupling)
                # FEAST's annulus: random decaying modes removed
                kept = prop | (rng.random(prop.size) < 0.5)
                self._assert_same_map(vectors[:, kept], weights[kept],
                                      coupling)
                # the companion zggev's lambda ~ 0 / infinity directions:
                # null vectors once more, as modes of weight ~ 1e-17
                null = _padded_nullspace(coupling)
                self._assert_same_map(
                    np.hstack([vectors, null]),
                    np.concatenate([weights,
                                    np.full(null.shape[1], 1e-17 + 0j)]),
                    coupling)

    def test_no_modes_and_no_coupling(self):
        lead = _rectangular()
        t01 = (1.3 * lead.s01 - lead.h01).astype(complex)
        none = np.zeros((10, 0), dtype=complex)
        assert not self._map(none, np.zeros(0), t01).any()
        modes = np.eye(10, 3, dtype=complex)
        assert not self._map(
            modes, np.ones(3), np.zeros((10, 10), dtype=complex)).any()


class TestModels:
    """Ledger == model, integer-exact, on a confined-support lead."""

    def _lead(self):
        lead = make_confined_lead(12, [8, 9, 10, 11], [0, 1, 2], seed=7)
        family = PolynomialFamily(lead.h_cells, lead.s_cells)
        return lead, family, open_energies(lead, 3)

    def test_dense_obc(self):
        # one lead of each kind: two disjoint faces (zggev on the |B|-sized
        # face pencil) and an orbital coupling both ways (companion pencil)
        overlapping = make_confined_lead(**GENERATED["overlapping"][0])
        for lead, sizes, face in ((self._lead()[0], (5, 7), True),
                                  (overlapping, (3, 5), False)):
            family = PolynomialFamily(lead.h_cells, lead.s_cells)
            ni, nb = family.interior.size, family.interface.size
            assert (ni, nb) == sizes
            for e in open_energies(lead, 3):
                lifted = family.at_energy(e).solve_dense()[0].size
                kernels = [*interface_reduction_kernels(ni, nb, lifted),
                           *dense_obc_kernels(nb, faces_disjoint=face)]
                assert kernels[-1] == (1, "geig", (nb if face else 2 * nb,))
                with ledger_scope() as led:
                    compute_open_boundary(lead, e, method="dense")
                assert led.total_flops == kernel_flops(kernels)
                assert led.total_bytes == kernel_bytes(kernels)
                assert led.total_flops < kernel_flops(
                    dense_obc_kernels(family.n))

    def test_feast_obc(self):
        lead, family, energies = self._lead()
        ni, nb = family.interior.size, family.interface.size
        for e in energies:
            res = feast_annulus(family.at_energy(e), **FEAST)
            kernels = [*interface_reduction_kernels(ni, nb, res.num_modes),
                       *feast_kernels(nb, res.num_solves, res.solve_widths,
                                      res.rr_sizes)]
            with ledger_scope() as led:
                ob = compute_open_boundary(lead, e, method="feast", **FEAST)
            assert led.total_flops == kernel_flops(kernels)
            assert led.total_bytes == kernel_bytes(kernels)
            assert ob.info["predicted_bytes"] == led.total_bytes

    def test_feast_batch_predicts_its_bytes_with_a_fallback_in_it(self):
        lead = _rectangular(seed=3)
        level = float(_interior_levels(lead)[2])
        energies = [level - 0.02, level, level + 0.03, level + 0.05]
        with ledger_scope() as led:
            obs = compute_open_boundary_batch(lead, energies,
                                              method="feast", **FEAST)
        # the reduction is attempted at every energy; the singular one
        # then runs FEAST at full size and lifts nothing
        wasted = kernel_bytes(interface_reduction_kernels(5, 5, 0)) \
            - kernel_bytes([(1, "gemm", (5, 0, 5))])
        assert sum(ob.info["predicted_bytes"] for ob in obs) + wasted \
            == led.total_bytes

    def test_reduction_happens_inside_the_cache_lookup(self):
        # the OBC stage's ledger scope must see the reduction's kernels
        lead, family, energies = self._lead()
        cache = DeviceCache(synthetic_device_from_lead(lead, 3))
        with ledger_scope() as led:
            ob = cache.boundary(energies[0], "feast", **FEAST)
        assert ob.info["predicted_bytes"] == led.total_bytes


class TestResultStoreCompatibility:
    def test_key_schema_was_bumped_so_old_records_are_misses(self,
                                                             monkeypatch):
        args = dict(obc_method="feast", obc_kwargs=FEAST,
                    solver="splitsolve", num_partitions=1, kz=0.0,
                    energy=0.5)
        new = cache_keys.result_key("d" * 64, **args)
        monkeypatch.setattr(cache_keys, "KEY_SCHEMA_VERSION", 1)
        assert cache_keys.result_key("d" * 64, **args) != new


class TestHoistedProducts:
    def test_contour_rhs_is_the_horner_elimination(self):
        """rhs(z) = sum_d z^d R_d with one product per coefficient stack
        is what eliminating x_2..x_M with the Horner prefactors
        G_M = C_M, G_j = C_j + z G_{j+1} leaves, at every point."""
        lead = make_confined_lead(**GENERATED["nbw2"][0])
        pevp = PolynomialEVP(lead.h_cells, lead.s_cells, 2.0)
        m, n = pevp.degree, pevp.n
        stacks = pevp._coeff_stacks
        assert stacks is pevp._coeff_stacks
        assert [s.shape for s in stacks] == [(n, (m - d) * n)
                                             for d in range(m)]
        rng = np.random.default_rng(0)
        y = rng.standard_normal((pevp.size, 3)) \
            + 1j * rng.standard_normal((pevp.size, 3))
        zs = [0.7 + 0.2j, 3.0j, -1.0 / 3.0]
        for z, got in zip(zs, pevp.contour_rhs(zs, y)):
            g = pevp.coeffs[m]
            want = g @ y[(m - 1) * n:]
            for j in range(m - 1, 0, -1):
                g = pevp.coeffs[j] + z * g
                want = want + g @ y[(j - 1) * n:j * n]
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
