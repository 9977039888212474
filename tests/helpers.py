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


def promote_to_complex(a):
    """``a`` with every block complex128 (the matrix the parent of the
    dtype rule solved, whatever the blocks held)."""
    from repro.linalg import BlockTridiagonalMatrix, as_complex
    return BlockTridiagonalMatrix(*([as_complex(b) for b in side]
                                    for side in (a.diag, a.upper, a.lower)))


def dense_rgf(t, b):
    """The block-Thomas sweep on dense coupling blocks: every column of
    ``T[i+1, i]`` solved, ``s x s`` gemms, every block promoted - the
    reference the support sweep of :func:`repro.solvers.solve_rgf` is
    held to, bit for bit, on the production wire.  ``t`` already holds
    Sigma (``assemble_t``)."""
    import numpy as np
    from repro.linalg import as_complex, gemm, lu_factor, lu_solve

    offs = t.block_offsets()
    nb = t.num_blocks
    b = as_complex(b)
    upper = [as_complex(u) for u in t.upper]
    lower = [as_complex(l) for l in t.lower]
    facs, xi_up, yi = [None] * nb, [None] * nb, [None] * nb
    carry = b[offs[nb - 1]:offs[nb]].copy()
    facs[nb - 1] = lu_factor(t.diag[nb - 1].astype(complex))
    for i in range(nb - 2, -1, -1):
        sol = lu_solve(facs[i + 1], np.hstack([lower[i], carry]))
        ncol = lower[i].shape[1]
        xi_up[i + 1], yi[i + 1] = sol[:, :ncol], sol[:, ncol:]
        schur = t.diag[i] - gemm(upper[i], xi_up[i + 1])
        carry = b[offs[i]:offs[i + 1]] - gemm(upper[i], yi[i + 1])
        facs[i] = lu_factor(schur)
    x = np.empty(b.shape, dtype=complex)
    x[offs[0]:offs[1]] = lu_solve(facs[0], carry)
    for i in range(1, nb):
        x[offs[i]:offs[i + 1]] = yi[i] - gemm(xi_up[i],
                                              x[offs[i - 1]:offs[i]])
    return x


def check_solver_agreement(system, energy=None, partitions=(1, 2, 4),
                           tol=1e-10, seed=0, boundary_support=None,
                           num_rhs=(2, 1)):
    """SplitSolve at every partition count == RGF == BCR == sparse-direct.

    ``system`` is a :class:`~repro.linalg.BlockTridiagonalMatrix` (random
    self-energies and boundary right-hand sides are drawn from ``seed``)
    or a ``DeviceMatrices``/``DeviceCache``, solved at ``energy`` with
    its dense open boundary and injection vectors through the registered
    solvers.  Solutions must agree to ``tol`` relative to the largest
    entry of the RGF one, which is returned.

    For a matrix, ``boundary_support = (rows_first, rows_last)`` confines
    the drawn self-energies and right-hand sides to those rows of the end
    blocks (``None``: every row) and is what SplitSolve is preprocessed
    for - its Q must then be those columns of the dense inverse, to the
    same ``tol`` - and ``num_rhs = (top, bottom)`` sets the number of
    columns injected from each side (either may be 0).  A device's
    support and columns come from its open boundary.

    A real matrix is solved in real arithmetic: its Q is float64 and the
    real part of the Q of the same matrix promoted to complex128, whose
    imaginary part is round-off (both to 1e-12 of the largest entry).
    """
    from repro.linalg import BlockTridiagonalMatrix
    from repro.pipeline import get_solver
    from repro.pipeline.cache import as_cache
    from repro.solvers import (SplitSolve, assemble_t, boundary_rhs,
                               solve_bcr, solve_direct, solve_rgf)

    solutions = {}
    if isinstance(system, BlockTridiagonalMatrix):
        a = system
        rng = np.random.default_rng(seed)
        s1, s2 = a.block_sizes[0], a.block_sizes[-1]
        rows_first, rows_last = (
            np.arange(size) if rows is None else np.asarray(rows, dtype=int)
            for rows, size in zip(boundary_support or (None, None),
                                  (s1, s2)))

        def draw(m, n, rows):
            """Non-zero in ``rows`` only."""
            out = np.zeros((m, n), dtype=complex)
            out[rows] = rng.standard_normal((len(rows), n)) \
                + 1j * rng.standard_normal((len(rows), n))
            return out

        sigma_l = 0.3 * draw(s1, s1, rows_first)
        sigma_r = 0.3 * draw(s2, s2, rows_last)
        b_top = draw(s1, num_rhs[0], rows_first)
        b_bot = draw(s2, num_rhs[1], rows_last)
        t = assemble_t(a, sigma_l, sigma_r)
        rhs = boundary_rhs(a.block_sizes, b_top, b_bot)
        solutions["rgf"] = solve_rgf(t, rhs)
        solutions["bcr"] = solve_bcr(t, rhs)
        solutions["direct"] = solve_direct(t, rhs)
        inverse = np.linalg.inv(a.to_dense())
        offs = a.block_offsets()
        real = a.dtype.kind != "c"
        promoted = promote_to_complex(a) if real else None
        for p in partitions:
            ss = SplitSolve(a, num_partitions=p, parallel=False,
                            boundary_support=(rows_first, rows_last))
            solutions[f"splitsolve p={p}"] = ss.solve(
                sigma_l, sigma_r, b_top, b_bot)
            if real:
                assert all(b.dtype == np.float64
                           for b in ss.q.first + ss.q.last)
                ref = SplitSolve(promoted, num_partitions=p, parallel=False,
                                 boundary_support=(rows_first, rows_last))
                ref.preprocess()
                for held, cplx in ((ss.q.first, ref.q.first),
                                   (ss.q.last, ref.q.last)):
                    held, cplx = np.vstack(held), np.vstack(cplx)
                    assert cplx.dtype == np.complex128
                    bound = 1e-12 * np.abs(cplx).max(initial=0.0)
                    assert np.abs(cplx.imag).max(initial=0.0) <= bound
                    assert np.abs(held - cplx.real).max(initial=0.0) <= bound
            np.testing.assert_array_equal(ss.q.first_cols, rows_first)
            np.testing.assert_array_equal(ss.q.last_cols, rows_last)
            for held, want in (
                    (np.vstack(ss.q.first), inverse[:, rows_first]),
                    (np.vstack(ss.q.last), inverse[:, offs[-2] + rows_last])):
                err = np.abs(held - want).max(initial=0.0) \
                    / np.abs(inverse).max()
                assert err < tol, \
                    f"Q (p={p}) differs from the dense inverse by {err:.2e}"
    else:
        cache = as_cache(system)
        ob = cache.boundary(energy, "dense")
        a = cache.a_matrix(energy)
        inj = ob.injection_matrix(cache.num_blocks, cache.block_sizes)
        assert inj.shape[1] > 0, f"no open channel at E = {energy}"
        for name in ("rgf", "bcr", "direct"):
            solutions[name] = get_solver(name)(a, ob, inj)
        for p in partitions:
            solutions[f"splitsolve p={p}"] = get_solver("splitsolve")(
                a, ob, inj, num_partitions=p)

    ref = solutions["rgf"]
    scale = np.abs(ref).max(initial=0.0) or 1.0
    for name, x in solutions.items():
        assert x.shape == ref.shape, f"{name}: {x.shape} != {ref.shape}"
        err = np.abs(x - ref).max(initial=0.0) / scale
        assert err < tol, f"{name} differs from rgf by {err:.2e}"
    return ref


def make_confined_lead(n, rows, cols, nbw=1, seed=0, cplx=False,
                       overlap=True):
    """Lead whose unit cell is a chain of ``n`` orbitals (onsite 2, hopping
    -1, a small random Hermitian perturbation) coupled to the next cell
    only through ``rows x cols``: ``h_cells[l]``/``s_cells[l]``, l >= 1, are
    zero outside that support (``None`` = dense), so the interior orbitals
    see no other cell.  ``rows``/``cols`` may be one pair for every l or a
    list of ``nbw`` pairs; ``cplx`` draws complex blocks (a k != 0 lead).
    """
    from repro.hamiltonian import fold_lead_blocks
    from repro.hamiltonian.device import LeadBlocks
    rng = np.random.default_rng(seed)

    def draw(scale):
        b = rng.standard_normal((n, n))
        if cplx:
            b = b + 1j * rng.standard_normal((n, n))
        return scale * b

    def confine(b, support):
        if support[0] is None:
            return b
        out = np.zeros_like(b)
        ix = np.ix_(np.asarray(support[0], dtype=int),
                    np.asarray(support[1], dtype=int))
        out[ix] = b[ix]
        return out

    per_l = nbw > 1 and rows is not None and len(rows) > 0 \
        and not np.isscalar(rows[0])
    supports = list(zip(rows, cols)) if per_l else [(rows, cols)] * nbw
    pert = draw(0.05)
    h0 = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1) \
        + 0.5 * (pert + pert.conj().T)
    spert = draw(0.01) if overlap else np.zeros((n, n))
    s0 = np.eye(n) + 0.5 * (spert + spert.conj().T)
    h_cells, s_cells = [h0], [s0]
    for l, support in enumerate(supports, start=1):
        h_cells.append(confine(-np.ones((n, n)) * 0.7 ** l
                               + draw(0.2 * 0.5 ** l), support))
        s_cells.append(confine(draw(0.02 * 0.5 ** l) if overlap
                               else np.zeros((n, n)), support))
    h00, h01 = fold_lead_blocks(h_cells, nbw)
    s00, s01 = fold_lead_blocks(s_cells, nbw)
    return LeadBlocks(h_cells=h_cells, s_cells=s_cells,
                      h00=h00, h01=h01, s00=s00, s01=s01)


def check_sigma_dyson(lead, ob, tol=1e-8):
    """The boundary self-energies are the fixed point of the Dyson
    recursion of the semi-infinite lead: with A = E S - H,
    Sigma = T g(Sigma) T^H, g(Sigma) = (A00 - Sigma)^-1, T = T01^H on the
    left and T01 on the right, to ``tol`` of the largest entry of Sigma.
    For complete mode sets only (``dense``): a truncated set defines
    Sigma on the kept modes alone.  Returns the (left, right) residuals.
    """
    a00 = (ob.energy * lead.s00 - lead.h00).astype(complex)
    t10 = ob.t01.conj().T
    residuals = []
    for side, sigma, t in (("left", ob.sigma_l, t10),
                           ("right", ob.sigma_r, ob.t01)):
        fixed = t @ np.linalg.solve(a00 - sigma, t.conj().T)
        res = np.abs(sigma - fixed).max() \
            / (np.abs(sigma).max(initial=0.0) or 1.0)
        assert res <= tol, \
            f"E={ob.energy}: {side} Sigma misses its Dyson fixed point " \
            f"by {res:.1e}"
        residuals.append(res)
    return tuple(residuals)


def check_sigma_causal(ob, tol=1e-10):
    """Retarded self-energies broaden, never amplify: the anti-Hermitian
    part (Sigma - Sigma^H) / 2i has no eigenvalue above ``tol ||Sigma||_2``."""
    for side, sigma in (("left", ob.sigma_l), ("right", ob.sigma_r)):
        top = np.linalg.eigvalsh((sigma - sigma.conj().T) / 2j).max()
        assert top <= tol * np.linalg.norm(sigma, 2), \
            f"E={ob.energy}: {side} Sigma is not causal, eigenvalue {top:.1e}"


def check_obc_agreement(lead, energies, r_outer=3.0):
    """Reduced == unreduced lead modes, the dense self-energies pass the
    physics checks, and the four OBC methods agree.

    At every energy: the interface-reduced polynomial of ``lead`` has the
    finite spectrum of the full one inside the annulus (matched to 1e-10)
    and its lifted vectors solve the full polynomial (residual <= 1e-9);
    ``dense`` == ``decimation`` self-energies to rel 1e-4 (the decimation
    broadening), and ``feast`` / ``shift_invert`` agree with ``dense`` on
    their own outgoing modes to rel 1e-6 (a truncated mode set only fixes
    Sigma there).  Returns the dense boundaries.
    """
    from repro.obc import (PolynomialEVP, PolynomialFamily,
                           compute_open_boundary)

    family = PolynomialFamily(lead.h_cells, lead.s_cells)
    dense = []
    for e in energies:
        full = PolynomialEVP(lead.h_cells, lead.s_cells, e)
        pevp = family.at_energy(e)
        lam_full, _ = full.solve_dense()
        lam, us = pevp.solve_dense()
        inside = (np.abs(lam) < r_outer) & (np.abs(lam) > 1.0 / r_outer)
        assert_spectra_match(
            lam[inside],
            lam_full[(np.abs(lam_full) < r_outer)
                     & (np.abs(lam_full) > 1.0 / r_outer)], atol=1e-10)
        lifted = pevp.lift(us[:, inside])
        for i, lam_i in enumerate(lam[inside]):
            res = full.residual(lam_i, lifted[:, i])
            assert res <= 1e-9, f"lifted mode {lam_i}: residual {res:.1e}"

        ob = compute_open_boundary(lead, e, method="dense")
        # 1e-8: what zggev resolves on an sp3d5s* lead far above its bands
        check_sigma_dyson(lead, ob, tol=1e-8)
        check_sigma_causal(ob, tol=1e-8)
        scale = max(np.abs(ob.sigma_l).max(), np.abs(ob.sigma_r).max())
        dec = compute_open_boundary(lead, e, method="decimation")
        for got, want in ((dec.sigma_l, ob.sigma_l),
                          (dec.sigma_r, ob.sigma_r)):
            err = np.abs(got - want).max() / scale
            assert err < 1e-4, f"E={e}: decimation vs dense {err:.1e}"
        for method, kwargs in (
                ("feast", dict(r_outer=r_outer, num_points=16, seed=0)),
                ("shift_invert", dict(keep_radius=r_outer, seed=0,
                                      shift_radii=(1.05, 2.0, 0.5)))):
            other = compute_open_boundary(lead, e, method=method, **kwargs)
            m = other.modes
            assert m.num_propagating_right == ob.modes.num_propagating_right
            assert m.num_propagating_left == ob.modes.num_propagating_left
            for got, want, phi in (
                    (other.sigma_l, ob.sigma_l, m.vectors[:, ~m.right_going]),
                    (other.sigma_r, ob.sigma_r, m.vectors[:, m.right_going])):
                err = np.abs((got - want) @ phi).max(initial=0.0) / scale
                assert err < 1e-6, \
                    f"E={e}: {method} vs dense on outgoing modes {err:.1e}"
        dense.append(ob)
    return dense


def open_energies(lead, count=3):
    """``count`` energies at which ``lead`` conducts: band energies at
    generic k (away from 0 and pi, so away from most band edges), spread
    over the bands."""
    from repro.core.energygrid import lead_band_structure
    _ks, bands = lead_band_structure(lead, 7)
    picks = np.linspace(0, bands.shape[1] - 1, count).round().astype(int)
    return [float(bands[2 + (j % 3), b]) for j, b in enumerate(picks)]


# --------------------------------------------------------------------------
# Physics truth: what agreement between algorithms cannot see.
# --------------------------------------------------------------------------

#: keyword arguments of the truncating OBC methods in the truth checks
#: (FEAST's annulus and the shift-and-invert keep radius coincide)
_TRUTH_OBC_KWARGS = {
    "dense": None,
    "feast": dict(r_outer=3.0, num_points=8, seed=0),
    "shift_invert": dict(keep_radius=3.0, seed=0),
}


def check_transmission_truth(device, energies, methods=("dense", "feast"),
                             perfect=True, tol=None):
    """QTBM == Caroli == bond current (== band count on a perfect device).

    At every energy and for every OBC ``method`` - a registry name, or a
    callable ``(lead, energy) -> OpenBoundary`` - the QTBM point (RGF
    solve) is held against three routes that share no flux bookkeeping
    with it: the Caroli transmission on decimation self-energies
    (``negf_transmission``, one per energy), every entry of
    ``bond_current_profile`` (the interface current of psi over the
    injected flux: no mode decomposition), and, with ``perfect`` (no
    scatterer: T(E) counts the open bands), the integer
    ``num_prop_left``.

    ``perfect``: ``T_lr == T_rl == num_prop_left == Caroli == bond
    current`` to ``tol`` = 1e-8 and ``conserved < tol`` (``feast``:
    1e-7, what its annulus leaves out).  Otherwise: ``T_lr == T_rl ==
    Caroli == bond current`` to ``tol`` = 1e-6 (the decimation
    broadening eta = 1e-8 bounds that reference), ``0 <= T <= modes``
    and ``conserved < tol``; ``dense`` only unless the mode set a
    truncating method keeps is known to be complete.  In a gap all of
    them read 0.  Returns the results, ``[energy][method]``.
    """
    from repro.negf import (bond_current_profile, negf_transmission,
                            qtbm_energy_point)
    from repro.pipeline.cache import as_cache

    cache = as_cache(device)
    out = []
    for e in energies:
        caroli = negf_transmission(
            cache, e, boundary=cache.boundary(e, "decimation", eta=1e-8))
        row = []
        for method in methods:
            if callable(method):
                label = getattr(method, "__name__", "callable")
                res = qtbm_energy_point(cache, e, solver="rgf",
                                        boundary=method(cache.lead, e))
            else:
                label = method
                res = qtbm_energy_point(
                    cache, e, obc_method=method, solver="rgf",
                    obc_kwargs=_TRUTH_OBC_KWARGS[method])
            eps = tol if tol is not None else (
                1e-6 if not perfect else 1e-7 if method == "feast" else 1e-8)
            where = f"E={e}, {label}"
            modes = res.num_prop_left
            assert res.num_prop_right == modes, where
            want = {"transmission_rl": res.transmission_rl, "Caroli": caroli}
            if perfect:
                want["band count"] = modes
            else:
                assert -eps <= res.transmission_lr <= modes + eps, \
                    f"{where}: T = {res.transmission_lr!r} of {modes} modes"
            for name, value in want.items():
                assert abs(res.transmission_lr - value) < eps, \
                    f"{where}: transmission_lr {res.transmission_lr!r} " \
                    f"!= {name} {value!r}"
            profile = bond_current_profile(res, cache)
            err = np.abs(profile - res.transmission_lr).max()
            assert err < eps, \
                f"{where}: bond current misses T by {err:.1e}: {profile}"
            assert res.conserved < eps, \
                f"{where}: |T + R - modes| / modes = {res.conserved:.1e}"
            row.append(res)
        out.append(row)
    return out


def check_density_dos(device, energy, rtol=1e-6):
    """Charge == band density of states on a perfect device.

    With every scattering state occupied once, the Mulliken charge
    ``orbital_density`` puts on the middle folded block (``dense`` +
    RGF) is ``sum 1 / |dE/dK|`` over the lead bands crossing ``energy``
    in either direction: a unit-amplitude Bloch state holds
    ``U^H S(K) U`` per block and is weighted by one over its flux.  The
    slopes come from Hellmann-Feynman on ``eigh(H(K), S(K))`` of the
    folded lead at K = arg Lambda (degenerate bands: the eigenvalues of
    the slope operator in their eigenspace) - nothing of ``repro.obc``
    but the Bloch factors.  Returns (charge, reference).
    """
    import scipy.linalg

    from repro.negf import orbital_density, qtbm_energy_point
    from repro.pipeline.cache import as_cache

    cache = as_cache(device)
    assert cache.num_blocks >= 3, "the middle block needs both neighbours"
    res = qtbm_energy_point(cache, energy, obc_method="dense", solver="rgf")
    modes = res.boundary.modes
    dens = orbital_density(res, cache.device.smat, mu_l=energy + 1.0,
                           mu_r=energy + 1.0, temperature_k=0.0)
    offs = np.concatenate([[0], np.cumsum(cache.block_sizes)])
    mid = cache.num_blocks // 2
    charge = dens[offs[mid]:offs[mid + 1]].sum()

    lead = cache.lead
    ht01 = lead.h01 - energy * lead.s01
    slopes = []
    for k in np.unique(np.angle(modes.lambdas[modes.propagating]).round(7)):
        phase = np.exp(1j * k)
        w, c = scipy.linalg.eigh(
            lead.h00 + phase * lead.h01 + np.conj(phase) * lead.h01.conj().T,
            lead.s00 + phase * lead.s01 + np.conj(phase) * lead.s01.conj().T)
        c = c[:, np.abs(w - energy) < 1e-6]
        slope = 1j * phase * c.conj().T @ ht01 @ c
        slopes.extend(np.linalg.eigvalsh(slope + slope.conj().T))
    assert len(slopes) == np.count_nonzero(modes.propagating) > 0, \
        f"E={energy}: {len(slopes)} band crossings for " \
        f"{np.count_nonzero(modes.propagating)} propagating modes"
    want = np.sum(1.0 / np.abs(slopes))
    assert abs(charge - want) <= rtol * want, \
        f"E={energy}: block charge {charge!r} != band DOS {want!r} " \
        f"(ratio {charge / want:.6f})"
    return charge, want


def add_scatterer(device, blocks, delta):
    """``device`` with the Hermitian ``delta`` (one folded block wide)
    added to H on each of the diagonal ``blocks``: a compact scatterer as
    long as the first and last block stay out of ``blocks``."""
    import dataclasses

    import scipy.sparse as sp
    where = np.zeros(device.num_blocks)
    where[list(blocks)] = 1.0
    return dataclasses.replace(
        device, hmat=(device.hmat + sp.kron(sp.diags(where), delta)).tocsr())


def make_two_chain_lead(overlap=False, seed=3):
    """Lead whose cell is two uncoupled copies of one random 3-orbital
    chain (h = 2 + 0.1 sym N, t = -1 + 0.1 N): every band exactly twice,
    so every Bloch factor is doubly degenerate and an eigen-solver may
    return any basis of each pair.  ``overlap`` adds a block-diagonal
    S != I, the same for both copies.  (Seed 3: a draw on which three
    shifts of shift-and-invert each find their own basis of a pair, with
    and without overlap.)"""
    from repro.hamiltonian.device import LeadBlocks
    rng = np.random.default_rng(seed)
    draw = lambda: rng.standard_normal((3, 3))      # noqa: E731
    pert, hop, spert, shop = draw(), draw(), draw(), draw()
    cells = [[2.0 * np.eye(3) + 0.05 * (pert + pert.T),
              -np.eye(3) + 0.1 * hop],
             [np.eye(3) + 0.02 * (spert + spert.T) * overlap,
              0.03 * shop * overlap]]
    (h0, h1), (s0, s1) = ([np.kron(np.eye(2), b) for b in pair]
                          for pair in cells)
    return LeadBlocks(h_cells=[h0, h1], s_cells=[s0, s1],
                      h00=h0, h01=h1, s00=s0, s01=s1)


# --------------------------------------------------------------------------
# Frozen reference: the per-pair Hamiltonian builder.
# --------------------------------------------------------------------------

def _reference_shell_block(sh_i, sh_j, delta, scale, eta, decay_factor):
    """One shell pair of one bond, the per-bond Slater-Koster formula."""
    r = float(np.linalg.norm(delta))
    d = delta / r
    d2 = (sh_i.decay ** 2 + sh_j.decay ** 2) * decay_factor ** 2
    rad = scale * (sh_i.weight * sh_j.weight * np.exp(-r * r / (2.0 * d2)))
    if sh_i.l == 0 and sh_j.l == 0:
        return np.array([[eta[("ss", "sigma")] * rad]])
    if sh_i.l == 0:
        return (eta[("sp", "sigma")] * rad * d)[None, :]
    if sh_j.l == 0:
        return (-eta[("sp", "sigma")] * rad * d)[:, None]
    ddt = np.outer(d, d)
    return rad * (eta[("pp", "sigma")] * ddt
                  + eta[("pp", "pi")] * (np.eye(3) - ddt))


def reference_pair_block(shells_i, shells_j, delta, scale, eta,
                         decay_factor=1.0):
    """All shells of A against all shells of B for one bond ``delta``."""
    return np.block([[_reference_shell_block(a, b, delta, scale, eta,
                                             decay_factor)
                      for b in shells_j] for a in shells_i])


def reference_neighbor_pairs(positions, cutoff, shift=(0.0, 0.0, 0.0)):
    """The pairs ``neighbor_search`` must find, by a k-d tree: the set of
    ``(i, j)`` with ``bond_lengths(positions[j] + shift - positions[i]) <=
    cutoff``, each pair once (``i < j``) when ``shift`` is zero.  The tree
    is queried a hair wider than the cutoff and its candidates filtered
    by that length, so its own rounding cannot drop a pair on the cutoff.
    """
    from scipy.spatial import cKDTree

    from repro.structure.lattice import bond_lengths

    pos = np.asarray(positions, dtype=float)
    shift = np.asarray(shift, dtype=float)
    if len(pos) == 0:
        return set()
    radius = cutoff * (1.0 + 1e-9) + 1e-9
    tree = cKDTree(pos)
    if not shift.any():
        i, j = tree.query_pairs(radius, output_type="ndarray").T
    else:
        neigh = tree.query_ball_point(pos + shift, radius)
        i = np.array([a for lst in neigh for a in lst], dtype=int)
        j = np.repeat(np.arange(len(pos)), [len(lst) for lst in neigh])
    r = bond_lengths(pos[j] + shift - pos[i])
    return {(int(a), int(b)) for a, b, d in zip(i, j, r) if d <= cutoff}


def reference_build_matrices(structure, basis):
    """``build_matrices`` as one loop over atoms and one over atom pairs,
    one block per pair: the builder the stacked one must equal bit for
    bit.  Coincident atoms are skipped, as that builder did."""
    import scipy.sparse as sp
    from scipy.spatial import cKDTree

    from repro.hamiltonian.builder import (RealSpaceMatrices,
                                           _transverse_image_shifts)
    from repro.hamiltonian.slater_koster import ETA_HAMILTONIAN, ETA_OVERLAP

    n = structure.num_atoms
    shells = [basis.for_species(sym).shells for sym in structure.species]
    norbs = np.array([sum(sh.num_orbitals for sh in s) for s in shells])
    offsets = np.concatenate([[0], np.cumsum(norbs)])
    norb = int(offsets[-1])
    cutoff = basis.cutoff
    pos = structure.positions
    tree = cKDTree(pos)
    images = {}
    for (ny, nz) in _transverse_image_shifts(structure, cutoff):
        if (ny, nz) in images:
            continue
        home = (ny, nz) == (0, 0)
        shift_vec = ny * structure.cell[1] + nz * structure.cell[2]
        rows, cols, hvals, svals = [], [], [], []
        if home:
            for i in range(n):
                diag = np.array([sh.energy for sh in shells[i]
                                 for _ in range(sh.num_orbitals)])
                k = np.flatnonzero(diag)
                rows.append(k + offsets[i])
                cols.append(k + offsets[i])
                hvals.append(diag[k])
                svals.append(np.zeros(len(k)))
            pair_list = [(i, j) for i, j in
                         tree.query_pairs(cutoff, output_type="ndarray")]
        else:
            neigh = tree.query_ball_point(pos + shift_vec, cutoff)
            pair_list = [(i, j) for j, lst in enumerate(neigh) for i in lst]
        for i, j in pair_list:
            delta = pos[j] + shift_vec - pos[i]
            r = np.linalg.norm(delta)
            if r < 1e-9 or r > cutoff:
                continue
            hblk = reference_pair_block(shells[i], shells[j], delta,
                                        basis.energy_scale, ETA_HAMILTONIAN)
            sblk = np.zeros_like(hblk) if basis.is_orthogonal else \
                reference_pair_block(shells[i], shells[j], delta,
                                     basis.overlap_scale, ETA_OVERLAP,
                                     basis.overlap_decay_factor)
            rr, cc = np.nonzero(np.abs(hblk) + np.abs(sblk) > 0)
            for a, b in ((rr + offsets[i], cc + offsets[j]),
                         (cc + offsets[j], rr + offsets[i]))[:1 + home]:
                rows.append(a)
                cols.append(b)
                hvals.append(hblk[rr, cc])
                svals.append(sblk[rr, cc])

        def csr(vals):
            if not rows:
                return sp.csr_matrix((norb, norb))
            return sp.csr_matrix((np.concatenate(vals),
                                  (np.concatenate(rows),
                                   np.concatenate(cols))),
                                 shape=(norb, norb))

        h, s = csr(hvals), csr(svals)
        if basis.is_orthogonal:
            s = sp.identity(norb, format="csr") if home \
                else sp.csr_matrix((norb, norb))
        elif home:
            s = s + sp.identity(norb, format="csr")
        images[(ny, nz)] = (h, s)
        if not home:
            images[(-ny, -nz)] = (h.T.tocsr(), s.T.tocsr())
    return RealSpaceMatrices(structure=structure, basis=basis,
                             images=images, offsets=offsets)


# -- stage spans of a traced run ---------------------------------------------

def stage_spans(spans, name=None, energy_index=None, kpoint=None):
    """The stage spans among ``spans`` (a tracer or a span list), in
    emission order; those called ``name``, naming energy
    ``energy_index`` or k-point ``kpoint`` when given."""
    if hasattr(spans, "records"):
        spans = spans.records()
    return [sp for sp in spans if sp.category == "stage"
            and (name is None or sp.name == name)
            and (energy_index is None
                 or energy_index in sp.attrs["energy_indices"])
            and (kpoint is None or sp.attrs["kpoint"] == kpoint)]


def stage_names(spans, energy_index, kpoint=None):
    """The stage sequence one energy went through."""
    return [sp.name for sp in stage_spans(spans, energy_index=energy_index,
                                          kpoint=kpoint)]


def stage_span(spans, name, energy_index=None, kpoint=None):
    """The one ``name`` span of an energy (of the run, when omitted)."""
    (sp,) = stage_spans(spans, name, energy_index, kpoint)
    return sp


def stage_flops(spans) -> int:
    """Total flops of the stage spans: what reconciles with the ledger."""
    return sum(sp.flops for sp in stage_spans(spans))
