#!/usr/bin/env python
"""Regenerate the paper's supercomputer results on the simulated Titan.

Prints Table I (machines), Table II (weak scaling), Table III (strong
scaling + 13 PFlop/s), the Fig. 7 SplitSolve scaling (measured on this
host and modelled at paper scale), the Fig. 12 power profile, and the
Section 5C time-to-solution — each next to the paper's published values.

Run:  python examples/scaling_study.py
"""

import numpy as np

from repro.experiments import (
    fig7_splitsolve_scaling,
    fig11_scaling_tables,
    fig12_power,
    table1_machines,
    time_to_solution,
)


def telemetry_section():
    """A small fault-protected (k, E) run with full stage telemetry.

    Exercises the production wiring end to end: the staged pipeline's
    per-point solve times, resilient retries, the measured per-k costs
    the dynamic load balancer consumes — and the cross-runner telemetry
    merge: two independent resilient runners (disjoint halves of the
    energy grid, as two sub-communicators would split it) report one
    coherent total through :meth:`repro.runtime.RunTelemetry.merge`.
    """
    from repro.basis import tight_binding_set
    from repro.core.energygrid import lead_band_structure
    from repro.core.runner import compute_spectrum
    from repro.hamiltonian import build_device
    from repro.parallel import ThreadTaskRunner
    from repro.runtime import ResilientTaskRunner, RunTelemetry
    from repro.structure import silicon_nanowire

    wire = silicon_nanowire(diameter_nm=1.0, length_cells=4)
    lead = build_device(wire, tight_binding_set(), num_cells=4).lead
    _, bands = lead_band_structure(lead, 11)
    e_lo = float(bands.min())
    energies = np.linspace(e_lo + 0.1, e_lo + 1.2, 6)

    runners = [ResilientTaskRunner(ThreadTaskRunner(num_workers=2),
                                   max_retries=1) for _ in range(2)]
    halves = [energies[:3], energies[3:]]
    per_k_ms = []
    for runner, chunk in zip(runners, halves):
        spec = compute_spectrum(wire, tight_binding_set(), 4, chunk,
                                obc_method="dense", solver="rgf",
                                task_runner=runner)
        per_k_ms.extend(spec.measured_time_per_k() * 1e3)
    merged = RunTelemetry()
    for runner in runners:
        merged.merge(runner.telemetry)

    lines = ["Run telemetry — staged (k, E) pipeline, two resilient "
             "runners merged"]
    lines.append(merged.summary())
    lines.append("  measured time per k-point (load-balancer input): "
                 + ", ".join(f"{t:.1f} ms" for t in per_k_ms))
    lines.append(f"  merged from {len(runners)} runners: "
                 + ", ".join(f"{r.telemetry.tasks_submitted} tasks"
                             for r in runners))
    return "\n".join(lines)


def main():
    for mod in (table1_machines, fig11_scaling_tables,
                fig7_splitsolve_scaling, fig12_power, time_to_solution):
        print(mod.report(mod.run()))
        print()
    print(telemetry_section())


if __name__ == "__main__":
    main()
