"""Golden tests: the staged pipeline reproduces the seed solve path.

The pre-refactor solve path was a straight-line function: compute the
open boundary, extract A(E), build the injection, dispatch a solver,
analyze.  These tests re-create that path locally — *without* the
DeviceCache, PolynomialFamily, stage scopes, or registry resolution the
pipeline added — and assert the pipeline output is bit-for-bit identical
for every (obc_method, solver) combination, including the ``"auto"``
solver policy resolving to an explicit name.
"""

import numpy as np
import pytest

from repro.experiments.fig6_phases import _test_lead
from repro.hamiltonian.device import synthetic_device_from_lead
from repro.negf.transmission import analyze_solution, qtbm_energy_point
from repro.obc import compute_open_boundary
from repro.observability.spans import tracing
from repro.perfmodel.costmodel import choose_solver
from repro.pipeline import SOLVERS, TransportPipeline

from tests.helpers import stage_span, stage_spans

OBC_KWARGS = {
    "dense": {},
    "shift_invert": {},
    # the repro.api defaults for the FEAST annulus
    "feast": dict(r_outer=3.0, num_points=8, seed=0),
}

ENERGY = 2.0


@pytest.fixture(scope="module")
def device():
    return synthetic_device_from_lead(_test_lead(6, seed=3), 8)


def seed_path(device, energy, obc_method, solver, num_partitions=1):
    """The pre-pipeline solve path: no caching, no staging, no 'auto'."""
    ob = compute_open_boundary(device.lead, energy, method=obc_method,
                               **OBC_KWARGS[obc_method])
    a = device.a_matrix(energy)
    inj = ob.injection_matrix(device.num_blocks, device.block_sizes)
    from_left = np.array([m.from_left for m in ob.injected], dtype=bool)
    vels = np.array([abs(m.velocity) for m in ob.injected], dtype=float)
    psi = SOLVERS.get(solver)(a, ob, inj, num_partitions=num_partitions)
    return analyze_solution(device, ob, psi, from_left, vels)


def assert_bitwise_equal(got, want):
    assert got.transmission_lr == want.transmission_lr
    assert got.transmission_rl == want.transmission_rl
    assert got.reflection_l == want.reflection_l
    np.testing.assert_array_equal(got.psi, want.psi)
    np.testing.assert_array_equal(got.mode_transmissions,
                                  want.mode_transmissions)


@pytest.mark.parametrize("obc_method", ["dense", "feast", "shift_invert"])
@pytest.mark.parametrize("solver", ["rgf", "bcr", "direct", "splitsolve"])
def test_pipeline_matches_seed_path(device, obc_method, solver):
    nparts = 2 if solver == "splitsolve" else 1
    want = seed_path(device, ENERGY, obc_method, solver,
                     num_partitions=nparts)
    pipe = TransportPipeline(obc_method=obc_method, solver=solver,
                             num_partitions=nparts,
                             obc_kwargs=OBC_KWARGS[obc_method])
    got = pipe.solve_point(device, ENERGY)
    assert want.transmission_lr > 1.0  # a non-trivial point
    assert_bitwise_equal(got, want)
    # one driver: the point is a batch of one and a slice of a batch
    for batch in ([ENERGY], [1.6, ENERGY, 2.4]):
        with tracing() as tracer:
            sliced = pipe.solve_batch(device, batch)[batch.index(ENERGY)]
        assert_bitwise_equal(sliced, want)
        solve = stage_span(tracer, "SOLVE", batch.index(ENERGY))
        assert solve.attrs["solver"] == solver


@pytest.mark.parametrize("obc_method", ["dense", "feast", "shift_invert"])
def test_auto_matches_resolved_explicit_solver(device, obc_method):
    pipe = TransportPipeline(obc_method=obc_method, solver="auto",
                             obc_kwargs=OBC_KWARGS[obc_method])
    with tracing() as tracer:
        got = pipe.solve_point(device, ENERGY)
    resolved = stage_span(tracer, "SOLVE").attrs["solver"]
    num_rhs = got.psi.shape[1]
    assert resolved == choose_solver(device.num_blocks,
                                     int(max(device.block_sizes)), num_rhs)
    want = seed_path(device, ENERGY, obc_method, resolved)
    assert_bitwise_equal(got, want)


def test_qtbm_wrapper_matches_seed_path(device):
    want = seed_path(device, ENERGY, "dense", "rgf")
    got = qtbm_energy_point(device, ENERGY, obc_method="dense",
                            solver="rgf")
    assert_bitwise_equal(got, want)


def test_boundary_reuse_is_bitwise_neutral(device):
    """Passing a precomputed boundary must not perturb the result."""
    ob = compute_open_boundary(device.lead, ENERGY, method="dense")
    pipe = TransportPipeline(obc_method="dense", solver="rgf")
    with tracing() as tracer:
        fresh = pipe.solve_point(device, ENERGY)
        reused = pipe.solve_point(device, ENERGY, boundary=ob)
    fresh_obc, reused_obc = stage_spans(tracer, "OBC")
    assert reused_obc.attrs.get("reused") is True
    assert reused_obc.flops == 0   # nothing solved in it
    assert fresh_obc.flops > 0
    assert_bitwise_equal(reused, fresh)


def test_cached_device_matches_fresh_device(device):
    """Solving through one shared cache == fresh per-point extraction."""
    pipe = TransportPipeline(obc_method="dense", solver="rgf")
    cache = pipe.cache(device)
    energies = [1.6, 2.0, 2.4]
    cached = [pipe.solve_point(cache, e) for e in energies]
    for e, got in zip(energies, cached):
        want = seed_path(device, e, "dense", "rgf")
        assert_bitwise_equal(got, want)
