"""Sancho-Rubio decimation: the standard NEGF surface-GF iteration [40].

This is the "standard iterative decimation technique" the paper's Eq. (6)
route replaces.  It doubles the effective lead length per iteration, so
machine precision is reached in ~ log2(decay length) steps.  We keep it as
(a) the baseline whose cost FEAST is compared against and (b) the
independent reference the mode-based self-energies are validated against.
"""

from __future__ import annotations

import numpy as np

from repro.linalg import gemm, solve
from repro.utils.errors import ConvergenceError


def sancho_rubio(t00: np.ndarray, t01: np.ndarray, eta: float = 1e-8,
                 max_iter: int = 200, tol: float = 1e-12):
    """Surface Green's function of a semi-infinite nearest-neighbour lead.

    Parameters
    ----------
    t00, t01 : (n, n) arrays
        Onsite and coupling blocks of A = E S - H at the target energy:
        ``t00 = E S00 - H00``, ``t01 = E S01 - H01`` (coupling cell q ->
        q+1).
    eta : float
        Small positive imaginary part added to the energy (times the
        identity here, since E enters t00 linearly) selecting the retarded
        branch.

    Returns
    -------
    (g_left, g_right, iterations): surface GFs of the left lead
    (semi-infinite towards -x, surface cell adjacent to the device's first
    block) and of the right lead (towards +x), and the number of
    decimation steps it took.
    """
    n = t00.shape[0]
    ieta = 1j * eta * np.eye(n)

    # Decimation variables: alpha couples a cell to its right neighbour
    # (A_{j,j+1} = t01), beta to its left (A_{j,j-1} = t01^H).  The left
    # lead's surface is renormalized by material on its LEFT (beta g alpha)
    # and the right lead's surface by material on its RIGHT (alpha g beta).
    alpha = t01.astype(complex)
    beta = t01.conj().T.astype(complex)
    eps = t00.astype(complex) + ieta
    eps_sl = eps.copy()
    eps_sr = eps.copy()

    err = np.inf
    for it in range(1, max_iter + 1):
        ga = solve(eps, np.hstack([alpha, beta]), tag="sancho")
        g_alpha = ga[:, :n]   # eps^{-1} alpha
        g_beta = ga[:, n:]    # eps^{-1} beta
        # Schur-complement elimination of every other cell.  In the
        # A = E S - H formulation the updates carry explicit minus signs
        # (they are absorbed into the hopping definition in the original
        # H-language paper):
        a_gb = gemm(alpha, g_beta, tag="sancho")
        b_ga = gemm(beta, g_alpha, tag="sancho")
        eps_sl = eps_sl - b_ga
        eps_sr = eps_sr - a_gb
        eps = eps - a_gb - b_ga
        alpha = -gemm(alpha, g_alpha, tag="sancho")
        beta = -gemm(beta, g_beta, tag="sancho")
        err = max(np.abs(alpha).max(), np.abs(beta).max())
        if err < tol:
            g_left = np.linalg.inv(eps_sl)
            g_right = np.linalg.inv(eps_sr)
            return g_left, g_right, it
    raise ConvergenceError(
        f"Sancho-Rubio did not converge in {max_iter} iterations "
        f"(coupling residual {err:.2e}); increase eta or max_iter",
        iterations=max_iter, residual=float(err))


def sigma_from_surface_gf(g_left: np.ndarray, g_right: np.ndarray,
                          t01: np.ndarray):
    """Boundary self-energies from surface GFs.

    With A = E S - H and coupling block t01 = A_{q,q+1}:
    Sigma_L = t01^H g_left t01 enters the first device block,
    Sigma_R = t01 g_right t01^H the last one, in the convention of Eq. (5)
    where the solved matrix is (E S - H - Sigma^RB).  ``t01`` may be the
    coupling's ``rows x cols`` support block, with ``g_left`` on rows x
    rows and ``g_right`` on cols x cols: Sigma_L comes out on cols x cols
    and Sigma_R on rows x rows.
    """
    t10 = t01.conj().T
    sigma_l = t10 @ g_left @ t01
    sigma_r = t01 @ g_right @ t10
    return sigma_l, sigma_r
