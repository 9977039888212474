"""Workload distribution: nodes -> momentum -> energy -> space (Fig. 9)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.errors import ConfigurationError


def allocate_nodes_to_momentum(num_nodes: int, work_per_k,
                               nodes_per_solver: int = 1) -> np.ndarray:
    """Assign node counts to momentum points proportionally to workload.

    Implements the dynamical allocation of [45]: every k-point gets at
    least one solver group (``nodes_per_solver`` nodes), the remainder is
    distributed largest-remainder-style proportionally to ``work_per_k``
    so no sub-communicator idles while another still computes.
    """
    work = np.asarray(work_per_k, dtype=float)
    nk = len(work)
    if nk == 0:
        raise ConfigurationError("need at least one momentum point")
    if np.any(work <= 0):
        raise ConfigurationError("work_per_k entries must be positive")
    groups_total = num_nodes // nodes_per_solver
    if groups_total < nk:
        raise ConfigurationError(
            f"{num_nodes} nodes cannot host {nk} momentum groups of "
            f"{nodes_per_solver} node(s)")
    base = np.ones(nk, dtype=int)
    remaining = groups_total - nk
    if remaining > 0:
        share = work / work.sum() * remaining
        extra = np.floor(share).astype(int)
        leftovers = remaining - extra.sum()
        order = np.argsort(-(share - extra))
        extra[order[:leftovers]] += 1
        base += extra
    return base * nodes_per_solver


def distribute_items(num_items: int, num_groups: int) -> list:
    """Split item indices into contiguous, near-equal chunks."""
    if num_groups < 1:
        raise ConfigurationError("num_groups must be >= 1")
    bounds = np.linspace(0, num_items, num_groups + 1).astype(int)
    return [list(range(bounds[g], bounds[g + 1]))
            for g in range(num_groups)]


@dataclass
class WorkloadDistribution:
    """The full three-level mapping of one OMEN run."""

    num_nodes: int
    nodes_per_solver: int
    nodes_per_k: np.ndarray       # (nk,)
    energy_assignment: list       # per k: list of per-group energy index lists

    @property
    def num_k(self) -> int:
        return len(self.nodes_per_k)

    def tasks_per_node(self) -> np.ndarray:
        """Energy-point count handled per node (for Table II's E/node)."""
        counts = []
        for ik in range(self.num_k):
            for group in self.energy_assignment[ik]:
                per_node = len(group) / self.nodes_per_solver
                counts.extend([per_node] * self.nodes_per_solver)
        return np.asarray(counts)

    @property
    def total_energy_points(self) -> int:
        return sum(len(g) for groups in self.energy_assignment
                   for g in groups)

    def group_times(self, time_per_point: float = 1.0) -> np.ndarray:
        """Wall time of every solver group at a uniform per-point cost.

        The machine model's unit of load imbalance: one entry per
        (momentum, solver-group) pair, ``len(group) * time_per_point``.
        """
        return np.asarray([len(group) * time_per_point
                           for ik in range(self.num_k)
                           for group in self.energy_assignment[ik]],
                          dtype=float)

    def imbalance(self, cost_per_point=None) -> float:
        """(max - mean) / mean of per-k-group runtime estimates."""
        if cost_per_point is None:
            times = self.group_times()
        else:
            times = [sum(cost_per_point[ik][e] for e in group)
                     for ik in range(self.num_k)
                     for group in self.energy_assignment[ik]]
        times = np.asarray(times, dtype=float)
        if times.size == 0 or times.mean() == 0:
            return 0.0
        return float((times.max() - times.mean()) / times.mean())

    def validate_complete(self, energies_per_k) -> bool:
        """Every (k, E) task assigned exactly once."""
        for ik, n_e in enumerate(energies_per_k):
            seen = sorted(e for group in self.energy_assignment[ik]
                          for e in group)
            if seen != list(range(n_e)):
                return False
        return True


def build_distribution(num_nodes: int, energies_per_k,
                       nodes_per_solver: int = 1) -> WorkloadDistribution:
    """Construct the standard OMEN distribution for one iteration.

    ``energies_per_k``: number of energy points of each momentum (E
    depends on k through the adaptive grid).
    """
    energies_per_k = [int(n) for n in energies_per_k]
    nodes_per_k = allocate_nodes_to_momentum(
        num_nodes, [max(n, 1) for n in energies_per_k], nodes_per_solver)
    assignment = []
    for ik, n_e in enumerate(energies_per_k):
        groups = max(int(nodes_per_k[ik] // nodes_per_solver), 1)
        assignment.append(distribute_items(n_e, groups))
    return WorkloadDistribution(
        num_nodes=num_nodes, nodes_per_solver=nodes_per_solver,
        nodes_per_k=nodes_per_k, energy_assignment=assignment)
