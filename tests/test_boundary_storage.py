"""An open boundary is stored on the support of its lead's coupling.

T01 = E S01 - H01 is zero outside the ``rows x cols`` support of the
folded (H01, S01), so Sigma_L = -T10 M_L lives on cols x cols, Sigma_R =
-T01 M_R on rows x rows, and M_L / M_R are non-zero at the columns cols /
rows alone.  An :class:`OpenBoundary` keeps those blocks; ``sigma_l``,
``sigma_r``, ``t01``, ``ml`` and ``mr`` are n x n views built from them.
Here the views are checked against the n x n formulas re-derived from the
lead and the boundary's own mode table, for every OBC method and coupling
shape, and the solve path is run with the views switched off.
"""

import numpy as np
import pytest

from repro.basis import tight_binding_set
from repro.core.energygrid import lead_band_structure
from repro.hamiltonian import build_device
from repro.obc import compute_open_boundary, sancho_rubio
from repro.obc.selfenergy import OpenBoundary
from repro.pipeline import DeviceCache, TransportPipeline
from repro.structure import silicon_nanowire
from tests.helpers import make_confined_lead, open_energies

OBC_KWARGS = {
    "dense": {},
    "feast": dict(r_outer=3.0, num_points=8, seed=0),
    "shift_invert": dict(keep_radius=3.0, seed=0),
    "decimation": {},
}

LEADS = {
    "confined": lambda: make_confined_lead(10, [7, 8, 9], [0, 1], seed=0),
    "dense": lambda: make_confined_lead(5, None, None, seed=3),
    "zero": lambda: make_confined_lead(6, [], [], seed=1),
    # NBW = 2, S != I: the folded coupling's support spans both cells
    "nbw2-overlap": lambda: make_confined_lead(
        9, [[6, 7, 8], [8]], [[0, 1], [0]], nbw=2, seed=6),
}

VIEWS = ("sigma_l", "sigma_r", "t01", "ml", "mr")


def _full_map(vectors, weights, coupling):
    """(Phi Lambda) pinv(Phi) on all n rows, Phi = [V | null(coupling)],
    the null space from an SVD of the whole n x n coupling."""
    _u, s, vh = np.linalg.svd(coupling)
    null = vh[int(np.count_nonzero(s > 1e-10 * s.max(initial=0.0))):]
    phi = np.hstack([vectors, null.conj().T])
    lam = np.concatenate([weights, np.zeros(null.shape[0])])
    return (phi * lam) @ np.linalg.pinv(phi, rcond=1e-12)


def _dense_formulas(lead, ob):
    """Sigma, M and T01 by the n x n formulas, from the lead and the
    boundary's own (flux-orthogonalised) mode table."""
    t01 = (ob.energy * lead.s01 - lead.h01).astype(complex)
    t10 = t01.conj().T
    if ob.modes is None:
        t00 = (ob.energy * lead.s00 - lead.h00).astype(complex)
        gl, gr, _ = sancho_rubio(t00, t01)
        return dict(t01=t01, sigma_l=t10 @ gl @ t01,
                    sigma_r=t01 @ gr @ t10, ml=None, mr=None)
    left = ob.modes.select(~ob.modes.right_going)
    right = ob.modes.select(ob.modes.right_going)
    ml = _full_map(left.vectors, 1.0 / left.lambdas, t01)
    mr = _full_map(right.vectors, right.lambdas, t10)
    return dict(t01=t01, sigma_l=-t10 @ ml, sigma_r=-t01 @ mr, ml=ml, mr=mr)


def _outside(view, rows, cols):
    """The entries of ``view`` outside ``rows x cols``."""
    mask = np.ones(view.shape, dtype=bool)
    mask[np.ix_(rows, cols)] = False
    return view[mask]


@pytest.mark.parametrize("method", sorted(OBC_KWARGS))
@pytest.mark.parametrize("shape", sorted(LEADS))
def test_dense_views_are_the_dense_formulas(method, shape):
    lead = LEADS[shape]()
    n = lead.folded_size
    rows, cols = lead.coupling_support
    every = np.arange(n)
    for energy in open_energies(lead, 2):
        ob = compute_open_boundary(lead, energy, method=method,
                                   **OBC_KWARGS[method])
        assert np.array_equal(ob.support[0], rows)
        assert np.array_equal(ob.support[1], cols)
        want = _dense_formulas(lead, ob)
        at = {"sigma_l": (cols, cols), "sigma_r": (rows, rows),
              "t01": (rows, cols), "ml": (every, cols), "mr": (every, rows)}
        for name in VIEWS:
            got = getattr(ob, name)
            if want[name] is None:
                assert got is None and method == "decimation"
                continue
            assert got.shape == (n, n)
            if name in ("ml", "mr") and not cols.size:
                # an all-zero coupling constrains no weight: the full
                # fit's min-norm answer is arbitrary, and Sigma = -T M = 0
                want[name] = np.zeros((n, n))
            assert not _outside(got, *at[name]).any(), name
            scale = np.abs(want[name]).max(initial=0.0) or 1.0
            assert np.abs(got - want[name]).max() <= 1e-9 * scale, \
                f"{name} at E = {energy}"
        if shape == "zero":
            assert rows.size == cols.size == 0
            assert not ob.sigma_l.any() and not ob.sigma_r.any()


@pytest.fixture(scope="module")
def wire():
    device = build_device(silicon_nanowire(0.7, 4), tight_binding_set(), 4)
    e_lo = float(lead_band_structure(device.lead, 11)[1].min())
    return device, [e_lo + 0.2, e_lo + 0.5]


def _no_dense_view(name):
    def view(self):
        raise AssertionError(f"the solve path read OpenBoundary.{name}")
    return property(view)


@pytest.mark.parametrize("obc_method", ["dense", "feast"])
def test_the_solve_path_reads_the_stored_blocks(wire, obc_method,
                                                monkeypatch):
    """Every solver solves every point with the n x n views switched
    off, and they agree on the transmission."""
    device, energies = wire
    lead = device.lead
    assert 0 < max(map(len, lead.coupling_support)) < lead.folded_size
    for name in VIEWS:
        monkeypatch.setattr(OpenBoundary, name, _no_dense_view(name))
    transmissions = {}
    for solver in ("rgf", "splitsolve", "bcr", "direct"):
        pipe = TransportPipeline(obc_method=obc_method, solver=solver,
                                 obc_kwargs=OBC_KWARGS[obc_method])
        results = pipe.solve_batch(DeviceCache(device), energies)
        assert all(r.psi.shape[1] > 0 for r in results)
        transmissions[solver] = np.array(
            [r.transmission_lr for r in results])
    for solver, t in transmissions.items():
        np.testing.assert_allclose(t, transmissions["rgf"], rtol=1e-8,
                                   err_msg=solver)
