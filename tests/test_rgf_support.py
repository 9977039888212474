"""RGF on the coupling support.

``solve_rgf`` solves each Schur block only for the non-zero columns of
the coupling below it, updates with the coupling's non-zero sub-block
and folds Sigma into its two corner Schur blocks itself.  These tests
hold it to a dense solve on drawn systems (ragged blocks, supports from
empty to full, real and complex A, Sigma on drawn rows, 0-5 rhs), to
its cost model integer for integer, and - on the production wire - to
the dense sweep bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.basis import tight_binding_set
from repro.core.energygrid import (FINAL_GRID, adaptive_energy_grid,
                                   lead_band_structure)
from repro.hamiltonian import build_device
from repro.linalg import ledger_scope
from repro.perfmodel import kernel_bytes, kernel_flops, rgf_kernels
from repro.pipeline import TransportPipeline
from repro.solvers import assemble_t, solve_rgf
from repro.structure import silicon_nanowire

from tests.helpers import dense_rgf, make_confined_btd


@st.composite
def systems(draw):
    nb = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 5), min_size=nb, max_size=nb))

    def subset(n):
        return sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))

    supports = [((subset(sizes[i]), subset(sizes[i + 1])),
                 (subset(sizes[i + 1]), subset(sizes[i])))
                for i in range(nb - 1)]
    return dict(sizes=sizes, supports=supports,
                sigma_rows=(subset(sizes[0]), subset(sizes[-1])),
                sigma_form=draw(st.sampled_from(["pair", "dense", "none"])),
                num_rhs=draw(st.integers(0, 5)), cplx=draw(st.booleans()),
                seed=draw(st.integers(0, 2 ** 16)))


def _sigmas(rng, case):
    """``(sigma_l, sigma_r)`` in the drawn form, and both as dense
    corner blocks."""
    pairs, dense = [], []
    for rows, size in zip(case["sigma_rows"],
                          (case["sizes"][0], case["sizes"][-1])):
        rows = np.asarray(rows, dtype=int)
        block = 0.3 * (rng.standard_normal((rows.size, rows.size))
                       + 1j * rng.standard_normal((rows.size, rows.size)))
        full = np.zeros((size, size), dtype=complex)
        full[np.ix_(rows, rows)] = block
        pairs.append((rows, block))
        dense.append(full)
    form = case["sigma_form"]
    given_as = pairs if form == "pair" else dense if form == "dense" \
        else [None, None]
    if form == "none":
        dense = [np.zeros_like(d) for d in dense]
    return given_as, dense


@settings(max_examples=60, deadline=None, derandomize=True)
@given(systems())
def test_sweep_matches_a_dense_solve(case):
    sizes, m, cplx = case["sizes"], case["num_rhs"], case["cplx"]
    rng = np.random.default_rng(case["seed"])
    a = make_confined_btd(sizes, case["supports"], case["seed"], cplx)
    (sigma_l, sigma_r), (dense_l, dense_r) = _sigmas(rng, case)
    n = sum(sizes)
    b = rng.standard_normal((n, m))
    if cplx:
        b = b + 1j * rng.standard_normal((n, m))

    with ledger_scope() as led:
        x = solve_rgf(a, b, sigma_l, sigma_r)

    t = assemble_t(a, dense_l, dense_r).to_dense()
    ref = np.linalg.solve(t, b)
    assert x.shape == (n, m) and x.dtype == np.complex128
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    # priced on the support the matrix carries, integer for integer
    kernels = list(rgf_kernels(sizes, m,
                               a.coupling_support().block_widths()))
    assert (led.total_flops, led.total_bytes) == (kernel_flops(kernels),
                                                  kernel_bytes(kernels))
    # the drawn coupling support is an upper bound of what is swept
    for (ru, uc, rl, lc), ((dur, duc), (dlr, dlc)) in zip(
            a.coupling_support().block_widths(), case["supports"]):
        assert ru <= len(dur) and uc <= len(duc)
        assert rl <= len(dlr) and lc <= len(dlc)


def test_production_wire_psi_is_the_dense_sweep_bit_for_bit():
    """The 0.7 nm wire of the production bias point, over its final
    grid: the pipeline's psi is bitwise the dense sweep's (every column
    of every coupling solved, 48 x 48 gemms, every block promoted) on
    ``assemble_t``'s T - skipping exact zeros reorders no sum."""
    device = build_device(silicon_nanowire(0.7, 4), tight_binding_set(), 4)
    e_lo = float(lead_band_structure(device.lead, 11)[1].min())
    grid = adaptive_energy_grid(device.lead, e_lo + 0.1, e_lo + 1.0,
                                **FINAL_GRID)
    pipe = TransportPipeline(obc_method="dense", solver="rgf")
    cache = pipe.cache(device)
    results = pipe.solve_batch(cache, grid)
    solved = 0
    for energy, result in zip(grid, results):
        ob = result.boundary
        inj = ob.injection_matrix(cache.num_blocks, cache.block_sizes)
        if inj.shape[1] == 0:
            continue
        rows, cols = ob.support
        t = assemble_t(cache.a_matrix(energy), (cols, ob.sigma_l_block),
                       (rows, ob.sigma_r_block))
        assert result.psi.tobytes() == dense_rgf(t, inj).tobytes(), energy
        solved += 1
    assert solved > len(grid) // 2      # the rest is closed: no modes
