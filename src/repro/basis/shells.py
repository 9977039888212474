"""Shell and basis-set data model."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.errors import ConfigurationError

#: Orbitals per angular momentum channel.
ORBS_PER_L = {0: 1, 1: 3}

#: Orbital labels within a shell, in storage order.
L_LABELS = {0: ("s",), 1: ("px", "py", "pz")}


@dataclass(frozen=True)
class Shell:
    """One radial shell of localized orbitals on an atom.

    Parameters
    ----------
    l : int
        Angular momentum: 0 (s) or 1 (p).
    energy : float
        Onsite energy of the shell's orbitals (eV).
    decay : float
        Gaussian radial decay length (nm); larger = more diffuse = couples
        to more neighbours (the DFT-basis fill-in of Fig. 3).
    weight : float
        Coupling-strength prefactor of the shell (contraction coefficient
        surrogate).
    """

    l: int
    energy: float
    decay: float
    weight: float = 1.0

    def __post_init__(self):
        if self.l not in ORBS_PER_L:
            raise ConfigurationError(f"unsupported angular momentum l={self.l}")
        if self.decay <= 0:
            raise ConfigurationError("shell decay must be positive")

    @property
    def num_orbitals(self) -> int:
        return ORBS_PER_L[self.l]


@dataclass(frozen=True)
class SpeciesBasis:
    """The shells attached to one chemical species."""

    species: str
    shells: tuple

    @property
    def num_orbitals(self) -> int:
        return sum(sh.num_orbitals for sh in self.shells)

    def orbital_labels(self):
        labels = []
        for i, sh in enumerate(self.shells):
            for lab in L_LABELS[sh.l]:
                labels.append(f"{i}{lab}")
        return labels


@dataclass
class BasisSet:
    """A complete basis: per-species shells plus global coupling constants.

    Attributes
    ----------
    name : str
        e.g. ``"tb"`` or ``"3sp"``.
    species : dict
        Chemical symbol -> :class:`SpeciesBasis`.
    cutoff : float
        Interaction cutoff radius (nm).  Determines NBW, the inter-cell
        interaction range of Eq. (6).
    energy_scale : float
        Overall Hamiltonian coupling magnitude (eV).
    overlap_scale : float
        Overlap coupling magnitude relative to 1 (dimensionless).  0 means
        an orthogonal basis (S = identity), as in tight binding.
    overlap_decay_factor : float
        Overlap radial decay relative to the Hamiltonian decay (< 1: the
        overlap is shorter-ranged, keeping S positive definite).
    """

    name: str
    species: dict
    cutoff: float
    energy_scale: float = 1.0
    overlap_scale: float = 0.0
    overlap_decay_factor: float = 0.7

    def __post_init__(self):
        if self.cutoff <= 0:
            raise ConfigurationError("cutoff must be positive")
        if not 0.0 <= self.overlap_scale < 1.0:
            raise ConfigurationError("overlap_scale must be in [0, 1)")

    def for_species(self, symbol: str) -> SpeciesBasis:
        try:
            return self.species[symbol]
        except KeyError:
            raise ConfigurationError(
                f"basis set {self.name!r} has no entry for species "
                f"{symbol!r}; available: {sorted(self.species)}") from None

    @property
    def is_orthogonal(self) -> bool:
        return self.overlap_scale == 0.0
