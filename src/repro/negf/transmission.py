"""Energy-resolved transmission via QTBM (Eq. 5) and NEGF (Eq. 4)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.linalg.kernels import economic_qr, solve_upper
from repro.obc import compute_open_boundary
from repro.obc.selfenergy import OpenBoundary
from repro.solvers import assemble_t
from repro.solvers.rgf import rgf_greens_blocks


@dataclass
class EnergyPointResult:
    """Everything extracted from one (E, k) transport solve."""

    energy: float
    num_prop_left: int          # propagating modes incoming from the left
    num_prop_right: int
    transmission_lr: float      # sum over left-injected modes
    transmission_rl: float
    reflection_l: float
    reflection_r: float
    mode_transmissions: np.ndarray  # per injected mode (left then right)
    psi: np.ndarray             # solution columns (one per injected mode)
    from_left: np.ndarray       # bool per column
    #: |mode_flux| of the injected mode vector per column, un-normalised:
    #: what the density and current weights divide by
    velocities: np.ndarray
    #: the solved boundary, on a result solved in this process.  A
    #: result that crossed a process (or ``copy.deepcopy``) carries
    #: ``None``, as a result-store hit does: the boundary stays in the
    #: solving worker's memo, where its next solve reads it.
    boundary: OpenBoundary = field(repr=False, default=None)
    #: wall time of the solve: its pipeline batch's time split equally
    #: over the batch's energies (0.0 on a result-store hit)
    seconds: float = field(repr=False, default=0.0)

    def __getstate__(self):
        """Everything but the boundary: no reader past the solve needs
        it, and it stays in the memo of the process that solved it."""
        return dict(self.__dict__, boundary=None)

    @property
    def conserved(self) -> float:
        """Max |T + R - 1| over injected modes (current conservation)."""
        errs = []
        n_l = int(self.from_left.sum())
        # per-mode R is only available in aggregate here; report the
        # aggregate balance per side instead.
        if n_l:
            errs.append(abs(self.transmission_lr + self.reflection_l - n_l)
                        / n_l)
        n_r = len(self.from_left) - n_l
        if n_r:
            errs.append(abs(self.transmission_rl + self.reflection_r - n_r)
                        / n_r)
        return max(errs) if errs else 0.0


def qtbm_energy_point(device, energy: float, obc_method: str = "feast",
                      solver: str = "splitsolve", num_partitions: int = 1,
                      obc_kwargs: dict | None = None,
                      boundary: OpenBoundary | None = None
                      ) -> EnergyPointResult:
    """Solve one energy point of the wave-function transport problem.

    Thin wrapper over :class:`repro.pipeline.TransportPipeline` — the
    staged PREPARE/OBC/ASSEMBLE/SOLVE/ANALYZE path; kept as the
    historical one-call entry point.

    Parameters
    ----------
    device : DeviceMatrices or repro.pipeline.DeviceCache
    obc_method : any mode-based entry of the OBC registry
        (built-ins: "feast" | "shift_invert" | "dense"; decimation
        provides no injection).
    solver : any entry of the solver registry, or "auto"
        (built-ins: "splitsolve" | "rgf" | "bcr" | "direct").
    boundary : OpenBoundary, optional
        Reuse a precomputed boundary (e.g. when comparing solvers).
    """
    from repro.pipeline import TransportPipeline
    pipe = TransportPipeline(obc_method=obc_method, solver=solver,
                             num_partitions=num_partitions,
                             obc_kwargs=obc_kwargs)
    return pipe.solve_point(device, energy, boundary=boundary)


def analyze_solution(device, ob: OpenBoundary, psi: np.ndarray,
                     from_left: np.ndarray,
                     vels: np.ndarray) -> EnergyPointResult:
    """Extract transmissions/reflections from solved wavefunctions:
    ``|c|^2 flux_out / flux_in`` with every flux that of the vector psi
    was injected with (``vels``: ``ob.injected_flux``) or is decomposed
    onto, all out of the one table ``ob.modes``."""
    s1 = device.block_sizes[0]
    s2 = device.block_sizes[-1]
    ntot = sum(device.block_sizes)
    # Decomposition bases, factored once per boundary: all kept outgoing
    # modes (propagating + decaying), so the propagating coefficients are
    # not polluted by evanescent tails.
    flux_r, flux_l = ob.derived("flux_bases", lambda ob: (
        _FluxBasis(ob.modes, ob.modes.right_going),
        _FluxBasis(ob.modes, ~ob.modes.right_going)))

    t_lr = t_rl = r_l = r_r = 0.0
    mode_t = []
    for col, mode in enumerate(ob.injected):
        psi_first = psi[:s1, col]
        psi_last = psi[ntot - s2:, col]
        v_in = max(vels[col], 1e-300)
        if from_left[col]:
            # transmitted into the right lead
            t_val = flux_r.flux_fraction(psi_last, v_in)
            r_val = flux_l.flux_fraction(psi_first - mode.vector, v_in)
            t_lr += t_val
            r_l += r_val
        else:
            t_val = flux_l.flux_fraction(psi_first, v_in)
            r_val = flux_r.flux_fraction(psi_last - mode.vector, v_in)
            t_rl += t_val
            r_r += r_val
        mode_t.append(t_val)

    return EnergyPointResult(
        energy=ob.energy,
        num_prop_left=ob.num_left_injected,
        num_prop_right=ob.num_right_injected,
        transmission_lr=t_lr, transmission_rl=t_rl,
        reflection_l=r_l, reflection_r=r_r,
        mode_transmissions=np.asarray(mode_t),
        psi=psi, from_left=from_left, velocities=vels, boundary=ob)


class _FluxBasis:
    """The outgoing modes of one side (the ``mask`` columns of a
    :class:`LeadModes` table) as a decomposition basis, factored once per
    boundary.

    The least-squares decomposition of the boundary wavefunction is the
    same basis for every injected mode and every point sharing the
    boundary — only the right-hand side changes.  A pivoted economic QR
    is kept as (Q^H, R, inverse permutation), not the basis itself; each
    :meth:`flux_fraction` is then a gemv plus a triangular solve.  Bases
    that are rank-deficient (or have more columns than rows) fall back to
    per-call ``lstsq`` on the table's columns, which handles them via
    the pseudo-inverse.
    """

    def __init__(self, modes, mask):
        self._vectors, self._cols = modes.vectors, np.flatnonzero(mask)
        self.prop_idx = np.flatnonzero(modes.propagating[mask])
        self.prop_vel = np.abs(modes.velocities[mask][self.prop_idx])
        self.empty = self.prop_idx.size == 0
        self._qr = None
        basis = self._vectors[:, self._cols]
        if self.empty or basis.shape[0] < basis.shape[1]:
            return
        q, r, piv = economic_qr(basis, pivoting=True)
        diag = np.abs(np.diag(r))
        cutoff = (max(basis.shape) * np.finfo(np.float64).eps
                  * (diag[0] if diag.size else 0.0))
        if diag.size and np.all(diag > cutoff):
            inv_piv = np.empty_like(piv)
            inv_piv[piv] = np.arange(piv.size)
            self._qr = (q.conj().T, r, inv_piv)

    def flux_fraction(self, wave: np.ndarray, v_in: float) -> float:
        """Flux carried by the propagating components of ``wave`` / v_in."""
        if self.empty:
            return 0.0
        if self._qr is not None:
            qh, r, inv_piv = self._qr
            coeff = solve_upper(r, qh @ wave)[inv_piv]
        else:
            coeff, *_ = np.linalg.lstsq(self._vectors[:, self._cols], wave,
                                        rcond=None)
        c_prop = coeff[self.prop_idx]
        return float(np.sum(np.abs(c_prop) ** 2 * self.prop_vel) / v_in)


def negf_transmission(device, energy: float, eta: float = 1e-8,
                      boundary: OpenBoundary | None = None) -> float:
    """Caroli transmission T = Tr[Gamma_R G_{N,1} Gamma_L G_{N,1}^H]
    (Eq. 4 route), Gamma = i (Sigma - Sigma^H) of each side.

    Uses decimation self-energies and the RGF corner block
    G_{nB-1, 0}; independent of the mode machinery, so it serves as the
    cross-check of the QTBM numbers.
    """
    ob = boundary if boundary is not None else compute_open_boundary(
        device.lead, energy, method="decimation", eta=eta)
    a = device.a_matrix(energy)
    t = assemble_t(a, ob.sigma_l, ob.sigma_r)
    _, g_first, _ = rgf_greens_blocks(t)
    g_n1 = g_first[-1]          # G_{nB-1, 0}
    gamma_l = 1j * (ob.sigma_l - ob.sigma_l.conj().T)
    gamma_r = 1j * (ob.sigma_r - ob.sigma_r.conj().T)
    val = np.trace(gamma_r @ g_n1 @ gamma_l @ g_n1.conj().T)
    return float(np.real(val))
