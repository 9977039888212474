"""Shared test utilities."""

import numpy as np


def assert_spectra_match(got, want, atol=1e-8):
    """Assert two eigenvalue multisets coincide (order-free, greedy pair)."""
    got = list(np.asarray(got, dtype=complex))
    want = list(np.asarray(want, dtype=complex))
    assert len(got) == len(want), (
        f"eigenvalue counts differ: {len(got)} vs {len(want)}\n"
        f"got={got}\nwant={want}")
    for g in got:
        dists = [abs(g - w) for w in want]
        j = int(np.argmin(dists))
        assert dists[j] < atol, (
            f"eigenvalue {g} has no partner within {atol}; "
            f"closest {want[j]} at {dists[j]:.2e}")
        want.pop(j)


def make_confined_btd(block_sizes, supports, seed=0, cplx=True):
    """Diagonally dominant block-tridiagonal matrix with interface-confined
    coupling: block ``i``'s couplings are zero outside ``supports[i] =
    ((upper rows, upper cols), (lower rows, lower cols))``, index sequences
    local to the blocks they address.  ``None`` for an entry means a dense
    coupling pair, empty sequences an all-zero block.
    """
    from repro.linalg import BlockTridiagonalMatrix
    rng = np.random.default_rng(seed)

    def blk(m, n, support=None):
        b = rng.standard_normal((m, n))
        if cplx:
            b = b + 1j * rng.standard_normal((m, n))
        if support is None:
            return b
        rows, cols = (np.asarray(idx, dtype=int) for idx in support)
        out = np.zeros_like(b)
        out[np.ix_(rows, cols)] = b[np.ix_(rows, cols)]
        return out

    sizes = list(block_sizes)
    diag = [blk(s, s) + 4 * max(sizes) * np.eye(s) for s in sizes]
    pairs = [(None, None) if sup is None else sup for sup in supports]
    upper = [blk(sizes[i], sizes[i + 1], pairs[i][0])
             for i in range(len(sizes) - 1)]
    lower = [blk(sizes[i + 1], sizes[i], pairs[i][1])
             for i in range(len(sizes) - 1)]
    return BlockTridiagonalMatrix(diag, upper, lower)


def check_solver_agreement(system, energy=None, partitions=(1, 2, 4),
                           tol=1e-10, seed=0):
    """SplitSolve at every partition count == RGF == sparse-direct.

    ``system`` is a :class:`~repro.linalg.BlockTridiagonalMatrix` (random
    self-energies and boundary right-hand sides are drawn from ``seed``)
    or a ``DeviceMatrices``/``DeviceCache``, solved at ``energy`` with
    its dense open boundary and injection vectors through the registered
    solvers.  Solutions must agree to ``tol`` relative to the largest
    entry of the RGF one, which is returned.
    """
    from repro.linalg import BlockTridiagonalMatrix
    from repro.pipeline import get_solver
    from repro.pipeline.cache import as_cache
    from repro.solvers import (SplitSolve, assemble_t, boundary_rhs,
                               solve_direct, solve_rgf)

    solutions = {}
    if isinstance(system, BlockTridiagonalMatrix):
        a = system
        rng = np.random.default_rng(seed)
        s1, s2 = a.block_sizes[0], a.block_sizes[-1]

        def draw(m, n):
            return rng.standard_normal((m, n)) \
                + 1j * rng.standard_normal((m, n))

        sigma_l, sigma_r = 0.3 * draw(s1, s1), 0.3 * draw(s2, s2)
        b_top, b_bot = draw(s1, 2), draw(s2, 1)
        t = assemble_t(a, sigma_l, sigma_r)
        rhs = boundary_rhs(a.block_sizes, b_top, b_bot)
        solutions["rgf"] = solve_rgf(t, rhs)
        solutions["direct"] = solve_direct(t, rhs)
        for p in partitions:
            solutions[f"splitsolve p={p}"] = SplitSolve(
                a, num_partitions=p, parallel=False).solve(
                    sigma_l, sigma_r, b_top, b_bot)
    else:
        cache = as_cache(system)
        ob = cache.boundary(energy, "dense")
        a = cache.a_matrix(energy)
        inj = ob.injection_matrix(cache.num_blocks, cache.block_sizes)
        assert inj.shape[1] > 0, f"no open channel at E = {energy}"
        for name in ("rgf", "direct"):
            solutions[name] = get_solver(name)(a, ob, inj)
        for p in partitions:
            solutions[f"splitsolve p={p}"] = get_solver("splitsolve")(
                a, ob, inj, num_partitions=p)

    ref = solutions["rgf"]
    scale = np.abs(ref).max()
    for name, x in solutions.items():
        err = np.abs(x - ref).max() / scale
        assert err < tol, f"{name} differs from rgf by {err:.2e}"
    return ref
