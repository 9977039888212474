"""Crystal-lattice primitives and the :class:`Structure` container.

Lengths are in nanometres throughout the package; energies in eV.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.errors import ConfigurationError, ShapeError

#: Silicon lattice constant in nm (diamond cubic).
SI_LATTICE_CONSTANT = 0.5431


@dataclass
class Structure:
    """A collection of atoms with a (possibly periodic) cell.

    Attributes
    ----------
    positions : (N, 3) float array, nm.
    species : (N,) array of str chemical symbols.
    cell : (3, 3) float array; row i is lattice vector a_i (nm).  For
        non-periodic directions the row is a bounding-box extent.
    periodic : (3,) bool array; which directions are periodic.  Transport
        is always along axis 0 (x), matching the paper's convention.
    """

    positions: np.ndarray
    species: np.ndarray
    cell: np.ndarray
    periodic: np.ndarray = field(
        default_factory=lambda: np.array([False, False, False]))

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        self.species = np.asarray(self.species)
        self.cell = np.asarray(self.cell, dtype=float)
        self.periodic = np.asarray(self.periodic, dtype=bool)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ShapeError(
                f"positions must be (N, 3), got {self.positions.shape}")
        if self.species.shape != (self.positions.shape[0],):
            raise ShapeError("species length must match number of atoms")
        if self.cell.shape != (3, 3):
            raise ShapeError(f"cell must be (3, 3), got {self.cell.shape}")
        if self.periodic.shape != (3,):
            raise ShapeError("periodic must have 3 entries")

    @property
    def num_atoms(self) -> int:
        return self.positions.shape[0]

    @property
    def extent(self) -> np.ndarray:
        """Axis-aligned bounding-box size (nm), ignoring periodicity."""
        if self.num_atoms == 0:
            return np.zeros(3)
        return self.positions.max(axis=0) - self.positions.min(axis=0)

    def unique_species(self):
        return sorted(set(self.species.tolist()))

    def select(self, mask) -> "Structure":
        """Sub-structure of the atoms where ``mask`` is true."""
        mask = np.asarray(mask)
        return Structure(self.positions[mask], self.species[mask],
                         self.cell.copy(), self.periodic.copy())

    def translated(self, shift) -> "Structure":
        return Structure(self.positions + np.asarray(shift, dtype=float),
                         self.species.copy(), self.cell.copy(),
                         self.periodic.copy())

    def concatenate(self, other: "Structure") -> "Structure":
        """Merge two structures (cell/periodicity taken from ``self``)."""
        return Structure(
            np.vstack([self.positions, other.positions]),
            np.concatenate([self.species, other.species]),
            self.cell.copy(), self.periodic.copy())

    def neighbor_pairs(self, cutoff: float):
        """All pairs (i, j), i < j, with |r_j - r_i| <= cutoff
        (non-periodic), sorted by (i, j): :func:`neighbor_search`.

        Returns ``(pairs, deltas)`` where deltas[k] = r_j - r_i.
        """
        i, j, deltas, _ = neighbor_search(self.positions, cutoff)
        return np.stack([i, j], axis=1), deltas

    def __repr__(self):
        return (f"Structure(N={self.num_atoms}, "
                f"species={self.unique_species()}, "
                f"periodic={self.periodic.tolist()})")


def bond_lengths(delta: np.ndarray) -> np.ndarray:
    """|delta| of every row of a (P, 3) stack, bitwise ``np.linalg.norm``
    of the row: one ``ddot`` each, as a stacked (1 x 3) @ (3 x 1) is
    (``einsum`` or ``norm(axis=1)`` round differently in ~1 row of 8)."""
    return np.sqrt((delta[:, None, :] @ delta[:, :, None])[:, 0, 0])


def neighbor_search(positions: np.ndarray, cutoff: float, shift=None):
    """Atom pairs within ``cutoff`` of one another, one image at a time.

    Returns ``(i, j, delta, r)`` sorted by (i, j): every pair with
    ``r = |delta| <= cutoff`` (:func:`bond_lengths`), where
    ``delta = positions[j] + shift - positions[i]``.  Without ``shift``
    (or with a zero one) each pair is listed once, ``i < j``; with a
    periodic-image shift every ordered pair is, ``i == j`` included.

    No loop over atoms: the atoms are sorted along their widest axis, each
    shifted atom brackets its window of that coordinate with one
    ``searchsorted``, and the candidates are filtered by distance.  An
    atom's candidates are the atoms of its slice of that axis, so the work
    grows with a wire's length times its cross-section.
    """
    pos = np.asarray(positions, dtype=float)
    shift = np.zeros(3) if shift is None else np.asarray(shift, dtype=float)
    target = pos + shift
    axis = int(np.argmax(np.ptp(pos, axis=0))) if len(pos) else 0
    order = np.argsort(pos[:, axis], kind="stable")
    coord = pos[order, axis]
    # a window a hair wider than the cutoff: the distance filter is exact
    reach = cutoff * (1.0 + 1e-9) + 1e-9
    lo = np.searchsorted(coord, target[:, axis] - reach, side="left")
    hi = np.searchsorted(coord, target[:, axis] + reach, side="right")
    count = hi - lo
    j = np.repeat(np.arange(len(pos)), count)
    first = np.repeat(lo - np.cumsum(count) + count, count)
    i = order[first + np.arange(len(j))]
    if not shift.any():
        i, j = i[i < j], j[i < j]
    delta = target[j] - pos[i]
    r = bond_lengths(delta)
    keep = np.flatnonzero(r <= cutoff)
    keep = keep[np.lexsort((j[keep], i[keep]))]
    return i[keep], j[keep], delta[keep], r[keep]


def diamond_conventional_cell(a0: float = SI_LATTICE_CONSTANT,
                              species: str = "Si") -> Structure:
    """The 8-atom conventional cubic cell of the diamond lattice."""
    frac = np.array([
        [0.00, 0.00, 0.00],
        [0.50, 0.50, 0.00],
        [0.50, 0.00, 0.50],
        [0.00, 0.50, 0.50],
        [0.25, 0.25, 0.25],
        [0.75, 0.75, 0.25],
        [0.75, 0.25, 0.75],
        [0.25, 0.75, 0.75],
    ])
    cell = np.eye(3) * a0
    return Structure(frac * a0, np.array([species] * 8), cell,
                     np.array([True, True, True]))


def replicate(unit: Structure, nx: int, ny: int, nz: int) -> Structure:
    """Tile a periodic unit cell nx x ny x nz times along its cell vectors."""
    for n, name in ((nx, "nx"), (ny, "ny"), (nz, "nz")):
        if n < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {n}")
    shifts = np.array([[i, j, k] for i in range(nx)
                       for j in range(ny) for k in range(nz)], dtype=float)
    shifts = shifts @ unit.cell
    positions = (unit.positions[None, :, :] + shifts[:, None, :]).reshape(-1, 3)
    species = np.tile(unit.species, len(shifts))
    cell = unit.cell * np.array([[nx], [ny], [nz]])
    return Structure(positions, species, cell, unit.periodic.copy())
