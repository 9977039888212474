"""Fig. 6 / Fig. 12(b): pipeline stage + SplitSolve phase breakdown.

Drives one *real* (k, E) transport point through the staged
:class:`repro.pipeline.TransportPipeline` — a pristine multi-channel wire
whose cosine bands put propagating modes at mid-band — with kernel
tracing enabled, and reports

* the pipeline stage split (PREPARE/OBC/ASSEMBLE/SOLVE/ANALYZE) from the
  point's stage spans (the paper's Fig. 6 phases, measured instead of
  sketched),
* SplitSolve's internal phase times (P1-P4 local inversion, recursive
  spike merges, postprocessing) from the SOLVE span's solver
  diagnostics, and
* the per-simulated-GPU activity table (the nvprof profile of
  Fig. 12b).
"""

from __future__ import annotations

import numpy as np

from repro.hamiltonian.device import LeadBlocks, synthetic_device_from_lead
from repro.hardware.trace import activity_table
from repro.linalg import ledger_scope
from repro.observability.report import phase_totals, reconcile
from repro.observability.spans import tracing
from repro.utils.rng import make_rng


def _test_lead(block_size: int, seed: int) -> LeadBlocks:
    """A coupled multi-channel wire with propagating modes at E = 2.

    Onsite 2*I plus a small Hermitian perturbation, hopping -I plus a
    small coupling: every channel carries a cosine band spanning (0, 4),
    so mid-band sits far from any band edge.
    """
    rng = make_rng(seed)
    pert = 0.05 * rng.standard_normal((block_size, block_size))
    h00 = 2.0 * np.eye(block_size) + 0.5 * (pert + pert.T)
    h01 = -np.eye(block_size) + 0.02 * rng.standard_normal(
        (block_size, block_size))
    s00 = np.eye(block_size)
    s01 = np.zeros((block_size, block_size))
    return LeadBlocks(h_cells=[h00, h01], s_cells=[s00, s01],
                      h00=h00, h01=h01, s00=s00, s01=s01)


def run(num_blocks: int = 32, block_size: int = 24,
        num_partitions: int = 4, energy: float = 2.0,
        seed: int = 0) -> dict:
    from repro.pipeline import TransportPipeline

    lead = _test_lead(block_size, seed)
    device = synthetic_device_from_lead(lead, num_blocks)
    pipe = TransportPipeline(obc_method="dense", solver="splitsolve",
                            num_partitions=num_partitions)

    with tracing() as tracer:
        with ledger_scope(trace=True) as led:
            result = pipe.solve_point(device, energy)

    # the Fig. 6 stage split is the one stage table, folded from the
    # spans the pipeline emits (one per stage_scope); the reconciliation
    # check pins its flops bit-for-bit against the ledger
    spans = tracer.records()
    totals = phase_totals(spans)
    check = reconcile(spans, led.total_flops)

    (solve,) = [sp for sp in spans
                if sp.category == "stage" and sp.name == "SOLVE"]
    solve_meta = solve.attrs
    # restrict the activity table to the simulated accelerators: the OBC
    # and analysis stages run on the host and would add a "cpu" row
    activity = {dev: act for dev, act in
                activity_table(led.events).items()
                if dev.startswith("gpu")}
    return {
        "phase_times": dict(solve_meta.get("phase_times", {})),
        "activity": activity,
        "num_devices": int(solve_meta.get("num_devices", 0)),
        "total_flops": led.total_flops,
        "stage_times": {n: e["seconds"] for n, e in totals.items()},
        "stage_flops": {n: e["flops"] for n, e in totals.items()},
        "reconciliation": check,
        "spans": spans,
        "num_rhs": int(result.psi.shape[1]),
        "transmission_lr": float(result.transmission_lr),
    }


def report(results: dict) -> str:
    lines = ["Fig. 6 — pipeline stages of one (k, E) point "
             "(measured wall-clock split)"]
    stage_total = sum(results["stage_times"].values()) or 1.0
    for name, t in results["stage_times"].items():
        lines.append(f"  {name:<24s} {t * 1e3:8.1f} ms  "
                     f"({100 * t / stage_total:5.1f}%)  "
                     f"{results['stage_flops'].get(name, 0):>14,d} flop")
    lines.append("SplitSolve phases inside SOLVE "
                 f"({results['num_rhs']} injected modes, "
                 f"T = {results['transmission_lr']:.2f})")
    total = sum(results["phase_times"].values()) or 1.0
    for name, t in results["phase_times"].items():
        lines.append(f"  {name:<24s} {t * 1e3:8.1f} ms  "
                     f"({100 * t / total:5.1f}%)")
    lines.append(f"Fig. 12(b) — activity on {results['num_devices']} "
                 f"simulated accelerators")
    for dev in sorted(results["activity"]):
        act = results["activity"][dev]
        phases = ", ".join(f"{k}:{v * 1e3:.0f}ms"
                           for k, v in sorted(act.by_phase.items()))
        lines.append(f"  {dev}: {act.flops / 1e6:8.1f} MFLOP  [{phases}]")
    check = results.get("reconciliation")
    if check is not None:
        lines.append(
            f"Reconciliation: span flops == ledger flops "
            f"{'OK' if check['flops_exact'] else 'MISMATCH'} "
            f"({check['span_flops']:,d} flop)")
    return "\n".join(lines)
