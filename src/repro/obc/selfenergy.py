"""Boundary self-energy Sigma^RB and injection vectors Inj (Eq. 5).

Conventions (matching the paper's Fig. 4): the device occupies blocks
0..nB-1 of the folded (NBW = 1) partitioning; the left lead continues the
first block towards -x, the right lead continues the last block towards
+x.  With A = E S - H and the folded coupling block

    T01 = E S01 - H01          (block q -> q+1 of A),

the lead rows are eliminated in favour of the boundary maps

    psi_{-1}  = M_L psi_0,        M_L = Phi_L Lambda_L^{-1} Phi_L^+,
    psi_{nB}  = M_R psi_{nB-1},   M_R = Phi_R Lambda_R     Phi_R^+,

where Phi_L spans the *left-going* folded modes (decaying towards -x or
propagating with v < 0: the retarded/outgoing set of the left contact)
and Phi_R the right-going ones.  This yields

    Sigma_L = -T01^H M_L,   Sigma_R = -T01 M_R,

entering Eq. (5) as (E S - H - Sigma^RB) c = Inj.  Dropping fast-decaying
modes (FEAST's annulus) makes Phi rectangular; the Moore-Penrose inverse
then realizes exactly the paper's approximation that those modes
"contribute negligibly".  T01 is zero outside the support ``rows x cols``
of the lead's folded (H01, S01), and every product above is kept there.

Injection: an incoming propagating mode u_in (right-going, from the left
contact, unit amplitude) adds the column

    Inj_0 = -T01^H (lambda_in^{-1} I - M_L) u_in

to the first block row (and mirrored for right-contact injection into the
last block row).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.hamiltonian.device import LeadBlocks
from repro.obc.decimation import sancho_rubio, sigma_from_surface_gf
from repro.obc.feast import feast_annulus
from repro.obc.modes import (LeadModes, classify_modes, flux_orthogonalize,
                             fold_modes)
from repro.obc.polynomial import (PolynomialEVP, PolynomialFamily,
                                  count_interface_fallback)
from repro.obc.shift_invert import shift_invert_modes
from repro.perfmodel.costmodel import (decimation_kernels, feast_kernels,
                                       interface_reduction_kernels,
                                       kernel_bytes)
from repro.pipeline.registry import OBC_METHODS, register_obc_method
from repro.utils.errors import ConfigurationError


@dataclass
class InjectedMode:
    """One incoming mode: a propagating row of :attr:`OpenBoundary.modes`."""

    lam: complex           # folded Bloch factor Lambda
    vector: np.ndarray     # folded mode vector, as stored in the table
    velocity: float        # its un-normalised flux (modes.mode_flux), signed
    from_left: bool


def _dense_view(name: str, row_side, col_side):
    """The n x n array that is the block ``name`` at ``row_side x
    col_side`` (0: the support's rows, 1: its columns, None: every index)
    and zero elsewhere, built on each access; ``None`` where it is."""
    def view(self):
        block = getattr(self, name)
        if block is not None:
            at = [np.arange(self.size) if side is None
                  else self.support[side] for side in (row_side, col_side)]
            out = np.zeros((self.size, self.size), dtype=complex)
            out[np.ix_(*at)] = block
            return out
    return property(view)


@dataclass
class OpenBoundary:
    """Sigma^RB + injection data for one (lead, energy) pair, stored on
    the lead's ``coupling_support`` ``(rows, cols)``; ``sigma_l``,
    ``sigma_r``, ``t01``, ``ml`` and ``mr`` are their n x n views, for
    readers off the solve path.  ``injected``, ``from_left`` and
    ``injected_flux`` are views of the propagating rows of ``modes``, the
    one table the modes live in.  What only these fields decide is built
    once and kept with them (:meth:`derived`)."""

    energy: float
    size: int                     # folded lead orbitals n
    support: tuple                # (rows, cols) of the folded coupling
    t01_block: np.ndarray         # E S01 - H01 on rows x cols
    sigma_l_block: np.ndarray     # Sigma_L on cols x cols
    sigma_r_block: np.ndarray     # Sigma_R on rows x rows
    ml_block: np.ndarray | None   # M_L's columns cols (None: decimation)
    mr_block: np.ndarray | None   # M_R's columns rows
    modes: LeadModes | None       # the mode table (None for decimation)
    method: str = ""
    #: solver diagnostics (FEAST iterations, decimation iteration count,
    #: predicted bytes, ...) — surfaced on the OBC stage trace
    info: dict = field(default_factory=dict)

    sigma_l = _dense_view("sigma_l_block", 1, 1)
    sigma_r = _dense_view("sigma_r_block", 0, 0)
    t01 = _dense_view("t01_block", 0, 1)
    ml = _dense_view("ml_block", None, 1)
    mr = _dense_view("mr_block", None, 0)

    def derived(self, name: str, build):
        """``build(self)``, built the first time ``name`` is asked for and
        kept with this boundary, so every point the boundary memo hands it
        to reuses it.  Only for products of Sigma, M_L/R and the mode
        table, O(boundary) in size (no device-length axis); they never
        pickle.  Two threads may both build one: identical bits, the
        first one published is kept."""
        memo = self.__dict__.setdefault("_derived", {})
        if name not in memo:
            memo.setdefault(name, build(self))
        return memo[name]

    def __getstate__(self):
        """The solved boundary only: what was built from it stays here."""
        return {k: v for k, v in self.__dict__.items()
                if k not in ("_derived", "injected")}

    @property
    def from_left(self) -> np.ndarray:
        """Per column of Inj: a right-going mode comes in from the left."""
        if self.modes is None:
            return np.zeros(0, dtype=bool)
        return self.modes.right_going[self.modes.propagating]

    @property
    def injected_flux(self) -> np.ndarray:
        """|flux| per injected mode: what a unit amplitude of it sends in."""
        if self.modes is None:
            return np.zeros(0)
        return np.abs(self.modes.velocities[self.modes.propagating])

    @cached_property
    def injected(self) -> list:
        """The propagating rows of ``modes`` as :class:`InjectedMode`."""
        m = self.modes
        return [] if m is None else [
            InjectedMode(lam=m.lambdas[i], vector=m.vectors[:, i],
                         velocity=float(m.velocities[i]),
                         from_left=bool(m.right_going[i]))
            for i in np.flatnonzero(m.propagating)]

    @property
    def num_left_injected(self) -> int:
        return int(np.count_nonzero(self.from_left))

    @property
    def num_right_injected(self) -> int:
        return int(np.count_nonzero(~self.from_left))

    def injection_matrix(self, num_blocks: int, block_sizes) -> np.ndarray:
        """Dense Inj of Eq. (5): one column per incoming propagating mode,
        non-zero only in the first and last block rows (Fig. 4): a zero
        fill and two writes of the boundary's injection rows."""
        rows_l, rows_r = self.derived("injection_rows",
                                      OpenBoundary._injection_rows)
        rows, cols = self.support
        ntot = int(np.sum(block_sizes))
        left = self.from_left
        inj = np.zeros((ntot, left.size), dtype=complex)
        inj[np.ix_(cols, np.flatnonzero(left))] = rows_l
        inj[np.ix_(ntot - block_sizes[-1] + rows,
                   np.flatnonzero(~left))] = rows_r
        return inj

    def _injection_rows(self) -> tuple:
        """The support's rows of the left-injected columns of Inj (cols
        of the first block) and of the right-injected ones (rows of the
        last).  One matvec per mode, not a stacked gemm: each column is
        bitwise what the per-column construction gives."""
        rows, cols = self.support
        t01 = self.t01_block
        left = [-t01.conj().T @ ((1.0 / m.lam) * m.vector[rows]
                                 - self.ml_block[rows] @ m.vector[cols])
                for m in self.injected if m.from_left]
        right = [-t01 @ (m.lam * m.vector[cols]
                         - self.mr_block[cols] @ m.vector[rows])
                 for m in self.injected if not m.from_left]
        return (np.reshape(left, (len(left), cols.size)).T,
                np.reshape(right, (len(right), rows.size)).T)


def boundary_from_modes(lead: LeadBlocks, energy: float,
                        folded: LeadModes, method: str = "") -> OpenBoundary:
    """Assemble Sigma^RB and injection data from classified folded modes.

    ``folded`` is flux-orthogonalised first; Sigma, Inj and the returned
    table all hold the vectors that leaves, one basis for every consumer.

    The boundary maps M_L (left-going modes, weights 1/lambda, fitted on
    the columns of T01) and M_R (right-going modes, weights lambda, on
    the columns of T01^H, i.e. the rows of T01) come from
    :func:`_support_map` at their non-zero columns, and Sigma_L =
    -T10[cols, rows] M_L[rows], Sigma_R = -T01[rows, cols] M_R[cols].
    ``folded`` may be a truncated set (FEAST's annulus) or hold lambda ~ 0
    duplicates of the null space (the companion ``zggev``); Sigma = -T M
    either way.
    """
    nf = lead.folded_size
    if folded.vectors.shape[0] != nf:
        raise ConfigurationError(
            f"modes are size {folded.vectors.shape[0]}, lead folded size "
            f"is {nf}; fold modes with group = NBW first")
    rows, cols = lead.coupling_support
    t01 = (energy * lead.s01 - lead.h01).astype(complex)
    folded = flux_orthogonalize(folded, -t01)
    t01 = t01[np.ix_(rows, cols)]
    t10 = t01.conj().T

    left_set = folded.select(~folded.right_going)
    right_set = folded.select(folded.right_going)
    ml = _support_map(left_set.vectors, 1.0 / left_set.lambdas, t01, cols)
    mr = _support_map(right_set.vectors, right_set.lambdas, t10, rows)
    return OpenBoundary(energy=energy, size=nf, support=(rows, cols),
                        t01_block=t01, sigma_l_block=-t10 @ ml[rows],
                        sigma_r_block=-t01 @ mr[cols], ml_block=ml,
                        mr_block=mr, modes=folded, method=method)


def _compact_nullspace(compact: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis, one vector per column, of the (right) null
    space of a coupling block's compact ``rows x cols`` part."""
    _u, s, vh = np.linalg.svd(compact)
    rank = int(np.count_nonzero(s > rtol * s.max(initial=0.0)))
    return vh[rank:].conj().T


def _support_map(vectors: np.ndarray, weights: np.ndarray,
                 compact: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The columns ``cols`` of ``V diag(weights)`` times the rows of
    ``Phi^+`` that belong to V, fitted on the columns a coupling block
    can see (rank-safe least squares); ``compact`` is that block on its
    ``rows x cols`` support.

    Phi = [V | N] joins the modes V with a basis N of the null space of
    the coupling at zero weight: the lambda = 0 / infinity modes every
    finite-eigenvalue solver drops, whose vectors are still needed to
    decompose the boundary wavefunction.  The coupling is zero outside
    ``rows x cols``, so N = [N_c | E_Z]: the null vectors of ``compact``
    and one unit vector per all-zero column Z.  The unit vectors absorb
    every component of a right-hand side outside ``cols`` whatever the
    other weights are, so the least-squares weights of V are those of
    the |cols|-row problem, and the map is zero at Z:
    M[:, cols] = V diag(weights) pinv([V[cols] | N_c])[:k] for every
    coupling shape (dense: Z is empty; all-zero: no columns).
    """
    k = vectors.shape[1]
    phi = np.hstack([vectors[cols], _compact_nullspace(compact)])
    return (vectors * weights) @ np.linalg.pinv(phi, rcond=1e-12)[:k]


def boundary_from_decimation(lead: LeadBlocks, energy: float,
                             eta: float = 1e-8, **kwargs) -> OpenBoundary:
    """Sigma^RB via Sancho-Rubio (no modes: NEGF-only route); ``kwargs``
    (``max_iter``, ``tol``) go to :func:`sancho_rubio`; Sigma is formed on
    the coupling support from the n x n surface GFs."""
    rows, cols = lead.coupling_support
    t00 = (energy * lead.s00 - lead.h00).astype(complex)
    t01 = (energy * lead.s01 - lead.h01).astype(complex)
    gl, gr, iterations = sancho_rubio(t00, t01, eta=eta, **kwargs)
    t01 = t01[np.ix_(rows, cols)]
    sigma_l, sigma_r = sigma_from_surface_gf(
        gl[np.ix_(rows, rows)], gr[np.ix_(cols, cols)], t01)
    info = {"iterations": iterations,
            "predicted_bytes": kernel_bytes(
                decimation_kernels(t00.shape[0], iterations))}
    return OpenBoundary(energy=energy, size=t00.shape[0],
                        support=(rows, cols), t01_block=t01,
                        sigma_l_block=sigma_l, sigma_r_block=sigma_r,
                        ml_block=None, mr_block=None, modes=None,
                        method="decimation", info=info)


# --------------------------------------------------------------------------
# Registered OBC methods (the pipeline's OBC-stage extension point).
#
# Mode-based methods carry ``uses_pevp=True`` metadata and accept a
# ``pevp=`` keyword so a per-k DeviceCache can pass a pre-assembled
# :class:`PolynomialEVP`; when omitted they build their own.  Either way
# it comes from a :class:`PolynomialFamily`, i.e. interface-reduced when
# the lead has an interior: the eigen-solver runs on it as it is, its
# vectors are lifted, and classification judges them on ``pevp.full``.
# --------------------------------------------------------------------------

def _lifted_modes(pevp: PolynomialEVP, lams, us) -> LeadModes | None:
    """Classified modes of ``pevp.full`` from eigenpairs of ``pevp``.

    Every pair is lifted and then judged on the full polynomial, exactly
    like the pairs of an unreduced solve.  ``None`` when a pair the
    reduced polynomial accepts fails there: the reduction lost accuracy
    at this energy and the caller solves it unreduced.
    """
    modes = classify_modes(pevp.full, lams, pevp.lift(us))
    if pevp.reduction is not None and not np.isin(
            classify_modes(pevp, lams, us).lambdas, modes.lambdas).all():
        return None
    return modes


def _mode_boundary(lead: LeadBlocks, energy: float, solve_modes,
                   method: str, pevp: PolynomialEVP | None,
                   **kwargs) -> OpenBoundary:
    if pevp is None:
        pevp = PolynomialFamily(lead.h_cells, lead.s_cells).at_energy(energy)
    modes = _lifted_modes(pevp, *solve_modes(pevp, **kwargs))
    if modes is None:
        count_interface_fallback()
        pevp = pevp.full
        modes = _lifted_modes(pevp, *solve_modes(pevp, **kwargs))
    return boundary_from_modes(lead, energy, fold_modes(modes, lead.nbw),
                               method=method)


def _feast_info(res, pevp: PolynomialEVP, wasted_bytes: int = 0) -> dict:
    predicted = kernel_bytes(feast_kernels(
        pevp.n, res.num_solves, res.solve_widths, res.rr_sizes))
    if pevp.reduction is not None:
        predicted += kernel_bytes(interface_reduction_kernels(
            pevp.reduction.interior.size, pevp.n, res.num_modes))
    return {"iterations": int(res.iterations),
            "num_solves": int(res.num_solves),
            "subspace_size": int(res.subspace_size),
            # exact recorded-byte prediction for the drift verdict;
            # ``wasted_bytes``: a reduced solve this one had to redo
            "predicted_bytes": predicted + wasted_bytes}


@register_obc_method("dense", uses_pevp=True)
def _obc_dense(lead: LeadBlocks, energy: float, *, pevp=None,
               **kwargs) -> OpenBoundary:
    """Full ``zggev`` on the companion pencil (exact, O(NBC^3); reference)."""
    return _mode_boundary(lead, energy,
                          lambda p, **kw: p.solve_dense(**kw),
                          "dense", pevp, **kwargs)


@register_obc_method("feast", uses_pevp=True)
def _obc_feast(lead: LeadBlocks, energy: float, *, pevp=None,
               **kwargs) -> OpenBoundary:
    """The paper's contour solver (Section 3A)."""
    info: dict = {}

    def solve(p, **kw):
        res = feast_annulus(p, **kw)
        info.update(_feast_info(res, p, info.get("predicted_bytes", 0)))
        return res.lambdas, res.vectors

    ob = _mode_boundary(lead, energy, solve, "feast", pevp, **kwargs)
    ob.info.update(info)
    return ob


@register_obc_method("shift_invert", uses_pevp=True)
def _obc_shift_invert(lead: LeadBlocks, energy: float, *, pevp=None,
                      **kwargs) -> OpenBoundary:
    """The tight-binding-era baseline [38]."""
    return _mode_boundary(lead, energy, shift_invert_modes,
                          "shift_invert", pevp, **kwargs)


@register_obc_method("decimation", uses_pevp=False)
def _obc_decimation(lead: LeadBlocks, energy: float,
                    **kwargs) -> OpenBoundary:
    """Sancho-Rubio surface GF [40]: self-energies only, no modes, so
    wave-function injection is unavailable and the NEGF route must be
    used."""
    return boundary_from_decimation(lead, energy, **kwargs)


def compute_open_boundary(lead: LeadBlocks, energy: float,
                          method: str = "feast",
                          **kwargs) -> OpenBoundary:
    """Compute the OBCs of one lead at one energy.

    ``method`` names an entry of the
    :data:`repro.pipeline.registry.OBC_METHODS` registry (built-ins:
    ``"feast"``, ``"shift_invert"``, ``"dense"``, ``"decimation"``; see
    the registered adapters above, and
    :func:`repro.pipeline.register_obc_method` to add your own).  kwargs
    are forwarded to the underlying solver.
    """
    return OBC_METHODS.get(method)(lead, energy, **kwargs)


def compute_open_boundary_batch(lead: LeadBlocks, energies,
                                method: str = "feast", **kwargs) -> list:
    """:func:`compute_open_boundary` at each of ``energies``, in order."""
    return [compute_open_boundary(lead, float(e), method=method, **kwargs)
            for e in energies]
