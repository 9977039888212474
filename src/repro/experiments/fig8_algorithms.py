"""Fig. 8: algorithm comparison at one (k, E) point.

Paper (Titan): for a 23 040-atom UTBFET and a 55 488-atom NWFET, three
algorithm combinations are timed:

1. shift-and-invert OBCs + MUMPS      (the tight-binding-era baseline),
2. FEAST OBCs + MUMPS                 (new OBCs, old solver),
3. FEAST OBCs + SplitSolve            (the paper's method),

with measured speedups > 50x between (1) and (3), and SplitSolve alone
6-16x faster than MUMPS.  The decisive ingredient is the *dense DFT
blocks*: in the default ``basis='3sp'`` mode (12 orbitals/atom,
second-neighbour folding) the same crossover appears at laptop scale; in
``basis='tb'`` mode the blocks are sparse enough that the sparse-direct
baseline still wins the solver leg — exactly why OMEN's tight-binding-era
algorithms needed no SplitSolve.

Both OBC algorithms are timed as published, on the full lead polynomial
(``pevp=`` given explicitly).  The production path first reduces the
polynomial to the interface orbitals, which leaves ``'3sp'`` untouched
(dense coupling, no interior) but halves the ``'tb'`` lead and speeds the
baseline up more than twice as much as FEAST: a figure about the paper's
algorithms should not move with it.
"""

from __future__ import annotations

import time

import numpy as np

from repro.basis import gaussian_3sp_set, tight_binding_set
from repro.hamiltonian import build_device
from repro.negf import qtbm_energy_point
from repro.obc import PolynomialEVP, compute_open_boundary
from repro.structure import silicon_nanowire

PAPER_SPEEDUP_TOTAL = 50.0     # shift-invert+MUMPS vs FEAST+SplitSolve
PAPER_SPEEDUP_SOLVER = (6.0, 16.0)  # SplitSolve vs MUMPS

#: Same-hybrid-node comparison: MUMPS runs on the 4 nodes' CPUs,
#: SplitSolve on their GPUs (the paper times both "on the same number of
#: hybrid nodes").
_NODES = 4


def _simulated_node_time(solver: str, obc_flops: float,
                         solver_flops: float) -> float:
    """Time on 4 Titan hybrid nodes from measured flops.

    OBCs always run on the CPUs; the linear solver runs on the GPUs for
    SplitSolve and on the CPUs for the sparse-direct (MUMPS) baseline —
    the hardware asymmetry that carries most of the paper's 6-16x solver
    speedup.
    """
    from repro.hardware.machine import SimulatedMachine
    from repro.hardware.specs import TITAN

    m = SimulatedMachine(TITAN.subset(_NODES))
    t_obc = obc_flops / (m.cpu_rate() * _NODES)
    rate = m.gpu_rate() if solver == "splitsolve" else m.cpu_rate()
    t_solver = solver_flops / (rate * _NODES)
    if solver == "splitsolve":
        # OBC work overlaps with GPU preprocessing (the decoupling)
        return max(t_obc, t_solver)
    return t_obc + t_solver


def run(basis: str = "3sp", diameter_nm: float = 1.0,
        num_cells: int = 8, energy: float | None = None,
        num_partitions: int = 2, repeats: int = 1,
        seed: int = 3) -> dict:
    wire = silicon_nanowire(diameter_nm, num_cells)
    basis_set = gaussian_3sp_set() if basis == "3sp" \
        else tight_binding_set()
    dev = build_device(wire, basis_set, num_cells=num_cells)
    if energy is None:
        energy = 5.2 if basis == "3sp" else -4.0

    combos = {
        "shift_invert+direct": dict(
            obc_method="shift_invert", solver="direct",
            obc_kwargs=dict(num_shifts=8, num_iter=25,
                            shift_radii=(1.05, 2.0, 0.5), seed=seed)),
        "feast+direct": dict(
            obc_method="feast", solver="direct",
            obc_kwargs=dict(r_outer=3.0, num_points=8, seed=seed)),
        "feast+splitsolve": dict(
            obc_method="feast", solver="splitsolve",
            obc_kwargs=dict(r_outer=3.0, num_points=8, seed=seed)),
    }
    times = {}
    obc_times = {}
    transmissions = {}
    nprop = {}
    node_times = {}
    obc_flop_counts = {}
    solver_flop_counts = {}
    for name, kw in combos.items():
        best = np.inf
        best_obc = np.inf
        for _ in range(repeats):
            from repro.linalg import ledger_scope

            with ledger_scope() as led:
                t0 = time.perf_counter()
                ob = compute_open_boundary(
                    dev.lead, energy, method=kw["obc_method"],
                    pevp=PolynomialEVP(dev.lead.h_cells, dev.lead.s_cells,
                                       energy),
                    **kw["obc_kwargs"])
                t_obc = time.perf_counter() - t0
                obc_flops = led.total_flops
                res = qtbm_energy_point(dev, energy, solver=kw["solver"],
                                        num_partitions=num_partitions,
                                        boundary=ob)
                best = min(best, time.perf_counter() - t0)
                best_obc = min(best_obc, t_obc)
                solver_flops = led.total_flops - obc_flops
        times[name] = best
        obc_times[name] = best_obc
        transmissions[name] = res.transmission_lr
        nprop[name] = res.num_prop_left
        node_times[name] = _simulated_node_time(
            kw["solver"], obc_flops, solver_flops)
        obc_flop_counts[name] = int(obc_flops)
        solver_flop_counts[name] = int(solver_flops)

    speedup_total = times["shift_invert+direct"] / times["feast+splitsolve"]
    speedup_obc = (obc_times["shift_invert+direct"]
                   / obc_times["feast+direct"])
    solver_old = times["feast+direct"] - obc_times["feast+direct"]
    solver_new = times["feast+splitsolve"] - obc_times["feast+splitsolve"]
    return {
        "basis": basis,
        "times": times,
        "obc_times": obc_times,
        "node_times": node_times,
        # exact ledger counts: they repeat run to run where the seconds
        # above move with the host's load and BLAS threading
        "obc_flops": obc_flop_counts,
        "solver_flops": solver_flop_counts,
        "transmissions": transmissions,
        "num_propagating": nprop,
        "speedup_total": speedup_total,
        "speedup_obc": speedup_obc,
        "speedup_solver": solver_old / max(solver_new, 1e-12),
        "speedup_total_nodes": node_times["shift_invert+direct"]
        / max(node_times["feast+splitsolve"], 1e-300),
        "speedup_solver_nodes": node_times["feast+direct"]
        / max(node_times["feast+splitsolve"], 1e-300),
        "num_orbitals": dev.num_orbitals,
        "block_size": dev.block_sizes[0],
    }


def report(results: dict) -> str:
    lines = [f"Fig. 8 — algorithm comparison "
             f"(basis {results['basis']}, NSS = {results['num_orbitals']}, "
             f"blocks of {results['block_size']})",
             "  combination            total(s)   OBC(s)   4-node(s)  "
             "T(E)      bands open"]
    for name, t in results["times"].items():
        lines.append(f"  {name:<22s} {t:8.3f}  "
                     f"{results['obc_times'][name]:7.3f}  "
                     f"{results['node_times'][name]:9.4f}  "
                     f"{results['transmissions'][name]:8.6f}  "
                     f"{results['num_propagating'][name]:d}")
    # a perfect wire: T(E) counts the open bands, whatever the pipeline
    truthful = all(abs(t - results["num_propagating"][name]) < 1e-6
                   for name, t in results["transmissions"].items())
    lines += [
        f"  total speedup (1)->(3): {results['speedup_total']:.1f}x "
        f"(paper: >{PAPER_SPEEDUP_TOTAL:.0f}x at 10-50k atoms; grows "
        f"with size)",
        f"  OBC speedup shift-invert -> FEAST: "
        f"{results['speedup_obc']:.1f}x",
        f"  solver speedup sparse-direct -> SplitSolve "
        f"(this host, CPU-only): {results['speedup_solver']:.1f}x",
        f"  on 4 simulated Titan hybrid nodes (CPU-MUMPS vs "
        f"GPU-SplitSolve): total {results['speedup_total_nodes']:.1f}x, "
        f"solver {results['speedup_solver_nodes']:.1f}x "
        f"(paper: {PAPER_SPEEDUP_SOLVER[0]:.0f}-"
        f"{PAPER_SPEEDUP_SOLVER[1]:.0f}x; our quasi-1-D laptop wire "
        f"understates MUMPS fill-in vs the paper's 2-D/3-D sections)",
        f"  T(E) == bands open in every pipeline -> "
        f"{'YES' if truthful else 'NO'}",
    ]
    return "\n".join(lines)
