"""Fig. 12(a) + Section 5E: power profile and energy efficiency.

Paper: during the 15.01 PFlop/s run Titan draws 8.8 MW peak / 7.6 MW
average (1975 MFLOPS/W machine level); each GPU averages 146 W
(5396 MFLOPS/W).  The model replays one solver group's phase schedule
across the machine.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.machine import SimulatedMachine
from repro.hardware.power import PowerModel, power_profile
from repro.hardware.specs import PIZ_DAINT, TITAN

PAPER = dict(avg_mw=7.6, peak_mw=8.8, machine_mflops_w=1975.0,
             gpu_w=146.0, gpu_mflops_w=5396.0)

GPU_FLOPS_PER_E = 230e12
POINTS_PER_GROUP = 13


def run() -> dict:
    pm = PowerModel(TITAN)
    machine = SimulatedMachine(TITAN.subset(4))
    t_point = machine.time_energy_point(GPU_FLOPS_PER_E, 0.0, 4)
    # one energy point's GPU phase mix (Fig. 6 structure): factorization-
    # heavy sweeps, gemm-heavy accumulation, transfers, postprocessing.
    schedule = [
        ("factorization", 0.45 * t_point),
        ("gemm", 0.40 * t_point),
        ("spike", 0.10 * t_point),
        ("transfer", 0.05 * t_point),
    ]
    prof = power_profile(pm, schedule, points_per_group=POINTS_PER_GROUP)
    t, machine_mw, gpu_w = prof[:, 0], prof[:, 1], prof[:, 2]

    # time-weighted averages over the run
    avg_gpu_w = float(np.mean(gpu_w))
    avg_mw = float(np.mean(machine_mw))
    total_time = POINTS_PER_GROUP * t_point
    gpu_flops = POINTS_PER_GROUP * GPU_FLOPS_PER_E / 4  # per GPU
    # Machine-level: every 4-node group runs the same schedule in
    # parallel across the 18564-node allocation.
    num_groups = 18564 // 4
    machine_flops = POINTS_PER_GROUP * GPU_FLOPS_PER_E * num_groups
    return {
        "profile": prof,
        "avg_machine_mw": avg_mw,
        "peak_machine_mw": float(machine_mw.max()),
        "avg_gpu_w": avg_gpu_w,
        "gpu_mflops_w": pm.mflops_per_watt_gpu(gpu_flops, total_time,
                                               avg_gpu_w),
        "machine_mflops_w": pm.mflops_per_watt_machine(
            machine_flops, total_time, avg_mw * 1e6),
        "points_per_group": POINTS_PER_GROUP,
    }


def report(results: dict) -> str:
    return "\n".join([
        "Fig. 12(a) — power profile of the production run (model vs "
        "paper)",
        f"  machine average : {results['avg_machine_mw']:.1f} MW "
        f"(paper {PAPER['avg_mw']} MW)",
        f"  machine peak    : {results['peak_machine_mw']:.1f} MW "
        f"(paper {PAPER['peak_mw']} MW)",
        f"  GPU average     : {results['avg_gpu_w']:.0f} W "
        f"(paper {PAPER['gpu_w']:.0f} W)",
        f"  GPU efficiency  : {results['gpu_mflops_w']:.0f} MFLOPS/W "
        f"(paper {PAPER['gpu_mflops_w']:.0f})",
        f"  machine eff.    : {results['machine_mflops_w']:.0f} MFLOPS/W "
        f"(paper {PAPER['machine_mflops_w']:.0f})",
        f"  profile shows {results['points_per_group']} energy points "
        f"per group, as in the paper's trace",
    ])
