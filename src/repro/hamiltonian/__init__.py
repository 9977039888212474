"""Hamiltonian/overlap matrix generation — the CP2K substitute.

Produces exactly what OMEN imports from CP2K (Fig. 2): the Hamiltonian H
and overlap S of a structure in a localized basis, as sparse matrices with
known block structure, plus the momentum-resolved H(k), S(k) that OMEN
assembles itself for transversely periodic systems ("CP2K currently does
not provide any momentum dependence ... this issue is resolved by first
cutting all the needed blocks from 3-D simulations and then generating
H(k) and S(k) in OMEN").
"""

from repro.hamiltonian.builder import RealSpaceMatrices, build_matrices
from repro.hamiltonian.kspace import assemble_k, transverse_k_grid
from repro.hamiltonian.partition import (
    block_sizes_from_slabs,
    block_bandwidth,
    to_block_tridiagonal,
)
from repro.hamiltonian.folding import fold_block_sizes, fold_lead_blocks
from repro.hamiltonian.device import DeviceMatrices, build_device, LeadBlocks
from repro.hamiltonian.fileio import (
    save_matrices,
    load_matrices,
    distribute_matrices,
)
from repro.hamiltonian.sparsity import sparsity_report, SparsityReport

__all__ = [
    "RealSpaceMatrices",
    "build_matrices",
    "assemble_k",
    "transverse_k_grid",
    "block_sizes_from_slabs",
    "block_bandwidth",
    "to_block_tridiagonal",
    "fold_block_sizes",
    "fold_lead_blocks",
    "DeviceMatrices",
    "build_device",
    "LeadBlocks",
    "save_matrices",
    "load_matrices",
    "distribute_matrices",
    "sparsity_report",
    "SparsityReport",
]
