"""SplitSolve applied beyond transport — the paper's generality claim.

Conclusion of the paper: "SplitSolve heavily relies on the structure of
the matrices encountered in quantum transport calculations (block
tri-diagonal + sparse right-hand-side) ... these properties can be found
in other research fields such as computational fluid dynamics or in the
solution of the Poisson equation.  Hence, our multi-GPU sparse linear
solver is not limited to one single problem."

This module demonstrates exactly that: a 3-D finite-difference Poisson
operator, sliced into x-planes, IS block tridiagonal (each plane couples
only to its neighbours), and boundary-driven problems (potential imposed
on the two end faces) have the sparse top/bottom right-hand side
SplitSolve expects.
"""

from __future__ import annotations

import numpy as np

from repro.linalg import BlockTridiagonalMatrix
from repro.poisson.fd import assemble_operator
from repro.poisson.grid import PoissonGrid
from repro.solvers.splitsolve import SplitSolve
from repro.utils.errors import ConfigurationError


def poisson_block_tridiagonal(grid: PoissonGrid,
                              eps_r: float = 1.0) -> BlockTridiagonalMatrix:
    """The div(eps grad .) operator as x-plane blocks.

    Node ordering is C order (x slowest), so consecutive blocks of
    ny*nz nodes are exactly the x-planes and the operator is block
    tridiagonal with diagonal coupling blocks.
    """
    nx, ny, nz = grid.shape
    if nx < 2:
        raise ConfigurationError("need at least 2 x-planes")
    eps = np.full(grid.num_nodes, float(eps_r))
    a = assemble_operator(grid, eps)
    plane = ny * nz
    return BlockTridiagonalMatrix.from_sparse(a.tocsr(), [plane] * nx)


def solve_poisson_splitsolve(grid: PoissonGrid, rho: np.ndarray,
                             phi_left: float, phi_right: float,
                             eps_r: float = 1.0,
                             num_partitions: int = 1) -> np.ndarray:
    """Solve the two-plate Poisson problem with SplitSolve.

    The potential is pinned to ``phi_left``/``phi_right`` on the first
    and last x-planes (Dirichlet electrodes); interior planes carry the
    charge.  The pinning is expressed in SplitSolve's native language: a
    corner "self-energy" that replaces the end blocks by the identity,
    and a right-hand side that is non-zero only in the end planes — the
    same (block tridiagonal + sparse RHS) structure as Eq. (5).
    """
    a = poisson_block_tridiagonal(grid, eps_r)
    nx = a.num_blocks
    plane = a.block_sizes[0]
    rho = np.asarray(rho, dtype=float).ravel()
    if rho.size != grid.num_nodes:
        raise ConfigurationError("rho size does not match grid")

    # Dirichlet end planes: row -> identity.  In T = A - Sigma form:
    # Sigma_end = A_end - 1.  The couplings out of the end planes stay in
    # A; the interior rows' references to the pinned values are moved to
    # the rhs below (exactly like repro.poisson.fd does).
    sigma_l = (a.diag[0] - np.eye(plane)).astype(complex)
    sigma_r = (a.diag[-1] - np.eye(plane)).astype(complex)

    from repro.poisson.grid import EPS0_E_PER_V_NM

    b = (-rho / EPS0_E_PER_V_NM).astype(complex)
    # End rows become the identity equations x = phi_plate; interior rows
    # keep their couplings INTO the pinned planes (the pinned values are
    # solved consistently), so the right-hand side stays non-zero only in
    # the first and last block rows — SplitSolve's native Inj structure.
    b[:plane] = phi_left
    b[-plane:] = phi_right
    a2 = a.copy()
    a2.upper[0] = np.zeros_like(a2.upper[0])    # row 0 -> plane 1
    a2.lower[-1] = np.zeros_like(a2.lower[-1])  # row nx-1 -> plane nx-2

    # Interior charge makes the RHS dense, outside SplitSolve's
    # sparse-Inj structure; fall back to the block solver for that case.
    if np.any(rho[plane:-plane] != 0.0):
        from repro.solvers import solve_rgf
        return np.real(solve_rgf(a2, b, sigma_l, sigma_r))

    ss = SplitSolve(a2, num_partitions=num_partitions, parallel=False)
    # SplitSolve treats top/bottom blocks as independent injection
    # columns (one per transport mode); the electrostatic problem has one
    # combined drive, so sum the two partial solutions.
    x = ss.solve(sigma_l, sigma_r, b[:plane, None], b[-plane:, None])
    return np.real(x.sum(axis=1))
