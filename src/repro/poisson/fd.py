"""Finite-difference Poisson solver with mixed boundary conditions.

Solves div(eps_r grad phi) = -rho / eps0 on a :class:`PoissonGrid`:

* Dirichlet nodes (gate electrodes) pinned to their voltages,
* zero-flux Neumann conditions on all outer faces otherwise (the contact
  condition that keeps the potential flat where the leads attach),
* face permittivities from harmonic averaging of nodal eps_r (correct
  flux continuity across dielectric interfaces, e.g. Si/SiO2).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.poisson.grid import EPS0_E_PER_V_NM, PoissonGrid
from repro.utils.errors import ConfigurationError, ShapeError


def assemble_operator(grid: PoissonGrid, eps: np.ndarray) -> sp.csr_matrix:
    """The discrete div(eps grad .) operator with natural Neumann faces."""
    n = grid.num_nodes
    idx = np.arange(n).reshape(grid.shape)
    rows_list, cols_list, vals_list = [], [], []
    diag = np.zeros(n)
    for axis in range(3):
        if grid.shape[axis] < 2:
            continue
        h = grid.h[axis]
        lo = idx.take(np.arange(grid.shape[axis] - 1), axis=axis).ravel()
        hi = idx.take(np.arange(1, grid.shape[axis]), axis=axis).ravel()
        face_eps = 2.0 * eps[lo] * eps[hi] / (eps[lo] + eps[hi])
        coeff = face_eps / h ** 2
        rows_list.extend([lo, hi])
        cols_list.extend([hi, lo])
        vals_list.extend([coeff, coeff])
        np.subtract.at(diag, lo, coeff)
        np.subtract.at(diag, hi, coeff)
    rows = np.concatenate(rows_list + [np.arange(n)])
    cols = np.concatenate(cols_list + [np.arange(n)])
    vals = np.concatenate(vals_list + [diag])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def solve_poisson(grid: PoissonGrid, rho: np.ndarray,
                  eps_r: np.ndarray | float = 1.0,
                  dirichlet_mask: np.ndarray | None = None,
                  dirichlet_values: np.ndarray | None = None) -> np.ndarray:
    """The electrostatic potential phi (V, one per node) of the charge
    density ``rho`` (e / nm^3, one per node): :func:`poisson_solver`,
    applied once."""
    return poisson_solver(grid, eps_r, dirichlet_mask, dirichlet_values)(rho)


def poisson_solver(grid: PoissonGrid, eps_r: np.ndarray | float = 1.0,
                   dirichlet_mask: np.ndarray | None = None,
                   dirichlet_values: np.ndarray | None = None):
    """``rho -> phi`` on one operator, assembled and LU-factored once:
    only the charge changes between the solves of an SCF loop.

    ``eps_r`` is a scalar or (num_nodes,) relative permittivity;
    ``dirichlet_mask`` / ``dirichlet_values`` the boolean mask of pinned
    nodes and their potentials (V).  Without any Dirichlet node the
    Neumann problem is singular; node 0 is then pinned to zero.
    """
    n = grid.num_nodes
    eps = np.full(n, float(eps_r)) if np.isscalar(eps_r) \
        else np.asarray(eps_r, dtype=float).ravel()
    if eps.size != n:
        raise ShapeError("eps_r size does not match grid")
    if np.any(eps <= 0):
        raise ConfigurationError("permittivity must be positive")

    a = assemble_operator(grid, eps)
    if dirichlet_mask is not None and np.any(dirichlet_mask):
        if dirichlet_values is None:
            raise ConfigurationError(
                "dirichlet_values required with dirichlet_mask")
        pin = np.asarray(dirichlet_mask, dtype=bool).ravel()
        vals = np.asarray(dirichlet_values, dtype=float).ravel()
        if pin.size != n or vals.size != n:
            raise ShapeError("dirichlet mask or values do not match grid")
        free = ~pin
        # Move known potentials to the rhs, then pin the rows/columns.
        shift = a @ (vals * pin)
        d_free = sp.diags(free.astype(float))
        a = d_free @ a @ d_free + sp.diags(pin.astype(float))

        def pinned(b):
            return (b - shift) * free + vals * pin
    else:
        # pure Neumann: phi is defined up to a constant; pin phi_0 = 0
        a = a.tolil()
        a.rows[0] = [0]
        a.data[0] = [1.0]

        def pinned(b):
            return np.concatenate([[0.0], b[1:]])
    lu = spla.splu(sp.csc_matrix(a))

    def solve(rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=float).ravel()
        if rho.size != n:
            raise ShapeError("rho size does not match grid")
        return lu.solve(pinned(-rho / EPS0_E_PER_V_NM))
    return solve
