"""Fig. 11 + Tables II/III: OMEN weak and strong scaling on Titan.

The workload is the paper's: a 23 040-atom Si DG UTBFET, 21 k-points,
FEAST+SplitSolve on 4 hybrid nodes per energy point, 241 TFLOPs per
point (11 CPU / 230 GPU, Section 5E).  The simulated Titan executes the
exact distribution logic; the published rows are printed side by side.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.machine import SimulatedMachine
from repro.hardware.specs import TITAN
from repro.perfmodel.scaling import (
    strong_scaling_table,
    weak_scaling_efficiency,
    weak_scaling_table,
)

GPU_FLOPS_PER_E = 230e12
CPU_FLOPS_PER_E = 11e12

#: Table II of the paper: (nodes, time_s, avg E/node).
PAPER_TABLE2 = [
    (588, 1277, 14.1), (1176, 1197, 13.4), (2352, 1281, 13.8),
    (4704, 1213, 13.8), (9408, 1204, 13.3), (18564, 1130, 12.9),
]

#: Table III: (nodes, time_s, efficiency_percent, pflops).
PAPER_TABLE3 = [
    (756, 26975, 100.0, 0.54), (1512, 13593, 99.2, 1.06),
    (3024, 6806, 99.1, 2.12), (6048, 3415, 98.7, 4.23),
    (12096, 1711, 98.5, 8.45), (18564, 1130, 97.3, 12.8),
]

TOTAL_E_POINTS = 59908
NUM_K = 21
NODES_PER_SOLVER = 4


#: Table III's final row: replacing zgesv_nopiv_gpu by zhesv_nopiv_gpu
#: (A Hermitian in 2-D structures) plus Titan-specific tuning lifted the
#: sustained performance from 12.8 to 15.01 PFlop/s (Section 5E).
PAPER_HERMITIAN_ROW = (18564, 912.5, 15.01)

#: Sustained GPU fraction of the tuned zhesv production binary; the one
#: rate constant calibrated against the 15.01 PFlop/s row itself (the
#: paper attributes it to "further profiling and tuning of the code as
#: well as algorithm adaptations to Titan").
HERMITIAN_SUSTAINED_FRACTION = 0.615

#: UTB block structure used for the flop-ratio estimate (23 040 atoms x
#: 12 orbitals folded at NBW = 2 into ~72 blocks of 3 840).
UTB_BLOCKS, UTB_BLOCK_SIZE = 72, 3840


def hermitian_speedup() -> dict:
    """Model Table III's last row from the zhesv flop reduction.

    The flop ratio comes from the validated SplitSolve cost model
    (Hermitian Schur factorizations at half the LU cost); the paper's
    measured 241 -> 228 TFLOP per point is the reference.
    """
    from dataclasses import replace

    from repro.perfmodel.costmodel import splitsolve_flop_model

    rhs = 2 * UTB_BLOCK_SIZE // 10
    f_gen = splitsolve_flop_model(UTB_BLOCKS, UTB_BLOCK_SIZE, rhs,
                                  num_partitions=2, hermitian=False)
    f_her = splitsolve_flop_model(UTB_BLOCKS, UTB_BLOCK_SIZE, rhs,
                                  num_partitions=2, hermitian=True)
    ratio = f_her / f_gen
    gpu_flops = GPU_FLOPS_PER_E * ratio

    gpu = replace(TITAN.node.gpu,
                  sustained_fraction=HERMITIAN_SUSTAINED_FRACTION)
    node = replace(TITAN.node, gpu=gpu)
    spec = replace(TITAN, node=node)
    e_per_k = _paper_energy_counts()
    ests, _ = strong_scaling_table(spec, [PAPER_HERMITIAN_ROW[0]],
                                   e_per_k, gpu_flops, CPU_FLOPS_PER_E,
                                   nodes_per_solver=NODES_PER_SOLVER)
    return {
        "flop_ratio": ratio,
        "flops_per_point_tf": gpu_flops / 1e12,
        "time_s": ests[0].wall_time_s,
        "pflops": ests[0].sustained_pflops,
    }


def run(seed: int = 7) -> dict:
    weak_rows = weak_scaling_table(
        TITAN, [r[0] for r in PAPER_TABLE2], e_per_node_target=13.5,
        gpu_flops_per_point=GPU_FLOPS_PER_E,
        cpu_flops_per_point=CPU_FLOPS_PER_E,
        num_k=NUM_K, nodes_per_solver=NODES_PER_SOLVER, seed=seed)

    e_per_k = _paper_energy_counts()
    strong_rows, eff = strong_scaling_table(
        TITAN, [r[0] for r in PAPER_TABLE3], e_per_k,
        GPU_FLOPS_PER_E, CPU_FLOPS_PER_E,
        nodes_per_solver=NODES_PER_SOLVER)
    return {
        "weak": weak_rows,
        "weak_spread": weak_scaling_efficiency(weak_rows),
        "strong": strong_rows,
        "strong_efficiency": eff,
        "hermitian": hermitian_speedup(),
    }


def _paper_energy_counts():
    """59 908 E points over 21 k.

    The paper's per-k counts spread over 2650-3050 ("E depends on k");
    the dynamic load balancer equalizes that across iterations, so the
    near-balanced per-k model here isolates the machine effects — task
    granularity and broadcast depth — that produce the published
    efficiency curve.
    """
    base = TOTAL_E_POINTS // NUM_K
    counts = np.full(NUM_K, base)
    counts[-1] += TOTAL_E_POINTS - counts.sum()
    return counts.tolist()


def report(results: dict) -> str:
    lines = ["Table II — weak scaling (model vs paper)",
             "  nodes    time(s)  E/node   time/E   | paper: time  E/node"]
    for row, paper in zip(results["weak"], PAPER_TABLE2):
        lines.append(
            f"  {row.num_nodes:6d}  {row.time_s:8.0f}  "
            f"{row.avg_e_per_node:5.1f}  {row.time_per_e_s:7.1f}  "
            f"| {paper[1]:6.0f}  {paper[2]:5.1f}")
    lines.append(f"  normalized time/E spread: "
                 f"{results['weak_spread'] * 100:.1f}% (paper: ~5%)")

    lines.append("Table III — strong scaling (model vs paper)")
    lines.append("  nodes    time(s)  eff(%)  PFlop/s | paper: time  "
                 "eff    PF")
    for est, eff, paper in zip(results["strong"],
                               results["strong_efficiency"],
                               PAPER_TABLE3):
        lines.append(
            f"  {est.num_nodes:6d}  {est.wall_time_s:8.0f}  "
            f"{eff * 100:5.1f}  {est.sustained_pflops:6.2f}  "
            f"| {paper[1]:6.0f}  {paper[2]:5.1f}  {paper[3]:5.2f}")
    if "hermitian" in results:
        h = results["hermitian"]
        lines.append(
            f"  zhesv row: {h['flops_per_point_tf']:.0f} TF/point "
            f"(flop ratio {h['flop_ratio']:.3f}, paper 228/241 = 0.946), "
            f"{h['time_s']:.0f} s, {h['pflops']:.2f} PFlop/s "
            f"| paper: {PAPER_HERMITIAN_ROW[1]:.1f} s, "
            f"{PAPER_HERMITIAN_ROW[2]:.2f} PF")
    return "\n".join(lines)
