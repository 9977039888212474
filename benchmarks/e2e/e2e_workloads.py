"""The four paper-shaped workloads: inputs from a seed, the one public call,
and the per-operation output checks.

``repro`` is imported inside the functions that need it.  The parent
process reads the table and runs the checks without it, and the child's
``setup_s`` has to cover those imports.
"""

from __future__ import annotations

import math
import os

#: FEAST settings of every ``obc_method="feast"`` call (paper Fig. 5)
FEAST = dict(r_outer=3.0, num_points=8, seed=0)

#: what ``run_production`` hard-codes for every transport solve
PRODUCTION_SPECTRUM = dict(obc_method="dense", solver="rgf")

#: ROADMAP's configuration (b) without ``mixed``: every fast path that keeps
#: the currents bitwise equal to the default path
FAST_PATH = dict(energy_batch_size=16, use_arena=True, backend="process",
                 num_workers=2)

#: energy window above the lowest lead band, and the source chemical
#: potential inside it (eV)
WINDOW = (0.1, 1.0)
MU_SOURCE = 0.3

# ``bench`` is what every timed mode runs: a call of 2-3 s, so that one
# pipeline run holds eight or more fresh children and its median shrugs off
# the box's slow second or two.  ``smoke`` only proves the plumbing.
_NWFET_IV = {
    "bench": dict(device=("nanowire", 0.7, 4), vds=(0.10,)),
    "smoke": dict(device=("nanowire", 0.7, 4), vds=(0.05,),
                  window=(0.28, 0.36), scf=dict(max_iter=1),
                  expect_converged=False),
}

# The kernels of run.py's speed sample that stand for a call's own mix of
# instructions: the dense OBC path spends its time in zggev and in many small
# numpy calls next to its zgemm/zgesv, the FEAST + SplitSolve path in
# zgemm and zgesv alone.
_DENSE_SAMPLE = ("zgemm", "zgesv", "zggev", "small")
_FEAST_SAMPLE = ("zgemm", "zgesv")

#: name -> entry point, call shape, sizes and speed sample; the one-line
#: reason each is here lives in BENCHMARK.json
WORKLOADS = {
    "nwfet_iv_default": dict(entry="production", sizes=_NWFET_IV,
                             speed_sample=_DENSE_SAMPLE),
    "nwfet_iv_fastpath": dict(
        entry="production", sizes=_NWFET_IV, speed_sample=_DENSE_SAMPLE,
        fast=True, bitwise_equal_to="nwfet_iv_default"),
    "nwfet_long_splitsolve": dict(
        entry="spectrum", speed_sample=_FEAST_SAMPLE,
        spectrum=dict(obc_method="feast", solver="splitsolve",
                      num_partitions=2, obc_kwargs=FEAST),
        sizes={
            "bench": dict(device=("nanowire", 1.2, 48), pick=8,
                          probe_points=2),
            "smoke": dict(device=("nanowire", 1.0, 8), pick=4),
        }),
    "utbfet_kgrid_feast": dict(
        entry="spectrum", speed_sample=_FEAST_SAMPLE,
        spectrum=dict(obc_method="feast", solver="splitsolve",
                      obc_kwargs=FEAST),
        sizes={
            "bench": dict(device=("utb", 1.6, 8), num_k=3, pick=24,
                          probe_points=16),
            "smoke": dict(device=("utb", 0.8, 4), num_k=2, pick=4),
        }),
}


def _grids(lead, window, production: bool):
    """The final-spectrum grid, and for ``run_production`` the size of the
    SCF inner grid it derives from the same window (its own spacings)."""
    from repro.core.energygrid import adaptive_energy_grid
    final = adaptive_energy_grid(lead, window[0], window[1],
                                 min_spacing=5e-3, max_spacing=0.04)
    inner = len(adaptive_energy_grid(lead, window[0], window[1],
                                     min_spacing=5e-3, max_spacing=0.05)) \
        if production else 0
    return final, inner


def make_inputs(name: str, size: str, seed: int) -> dict:
    """Everything the public call needs, generated from ``seed``.

    Seed 0 is the pinned configuration.  Other seeds shift the energy
    window by U(-0.01, +0.01) eV and each Vds by U(-5, +5) mV; the shift is
    redrawn until both adaptive grids have seed 0's sizes, so the number of
    (k, E) points per spectrum does not depend on the seed.
    """
    import numpy as np
    from repro.basis import tight_binding_set
    from repro.core.energygrid import lead_band_structure
    from repro.hamiltonian import build_device
    from repro.structure import silicon_nanowire, silicon_utb_film

    spec = WORKLOADS[name]
    params = spec["sizes"][size]
    kind, thickness, num_cells = params["device"]
    build = silicon_nanowire if kind == "nanowire" else silicon_utb_film
    structure = build(thickness, num_cells)
    basis = tight_binding_set()
    device = build_device(structure, basis, num_cells)
    e_lo = float(lead_band_structure(device.lead, 11)[1].min())
    lo, hi = params.get("window", WINDOW)

    production = spec["entry"] == "production"
    window = (e_lo + lo, e_lo + hi)
    grid, inner = _grids(device.lead, window, production)
    vds = list(params.get("vds", ()))
    if seed != 0:
        rng = np.random.default_rng(seed)
        pinned = (len(grid), inner)
        while True:
            shift = rng.uniform(-0.01, 0.01)
            window = (e_lo + lo + shift, e_lo + hi + shift)
            grid, inner = _grids(device.lead, window, production)
            if (len(grid), inner) == pinned:
                break
        vds = [v + rng.uniform(-0.005, 0.005) for v in vds]

    energies = grid
    if "pick" in params:
        idx = np.linspace(0, len(grid) - 1, params["pick"]).round()
        energies = grid[idx.astype(int)]

    fast = bool(spec.get("fast"))
    spectrum = dict(spec.get("spectrum", PRODUCTION_SPECTRUM))
    if fast:
        spectrum.update(energy_batch_size=FAST_PATH["energy_batch_size"],
                        use_arena=FAST_PATH["use_arena"])
    return dict(
        entry=spec["entry"], structure=structure, basis=basis,
        num_cells=num_cells, device=device, window=window, grid=grid,
        inner_grid_points=inner, energies=energies, vds=vds,
        mu_source=e_lo + MU_SOURCE, num_k=params.get("num_k", 1),
        scf_kwargs=dict(mixing=0.5, **params.get("scf", {})),
        spectrum=spectrum, fast=fast,
        expect_converged=params.get("expect_converged", True),
        probe_points=params.get("probe_points"))


def call(inputs: dict, tmp: str):
    """The one public call under test."""
    from repro.core.production import run_production
    from repro.core.runner import compute_spectrum

    if inputs["entry"] == "spectrum":
        return compute_spectrum(
            inputs["structure"], inputs["basis"], inputs["num_cells"],
            inputs["energies"], num_k=inputs["num_k"], **inputs["spectrum"])
    extra = {}
    if inputs["fast"]:
        extra = dict(FAST_PATH,
                     result_store=os.path.join(tmp, "store"),
                     checkpoint=os.path.join(tmp, "sweep.npz"))
    return run_production(
        inputs["structure"], inputs["basis"], inputs["num_cells"],
        inputs["vds"], mu_source=inputs["mu_source"],
        e_window=inputs["window"], scf_kwargs=inputs["scf_kwargs"], **extra)


def operations(inputs: dict, result) -> list:
    """One record per operation.  ``value`` is the current (A) or T(E) as
    ``float.hex`` so that it survives JSON bit for bit; ``count`` is the
    SCF iteration count or the propagating-mode count."""
    if inputs["entry"] == "production":
        return [dict(value=float(p.current).hex(),
                     count=int(p.scf_iterations),
                     converged=bool(p.converged))
                for p in result.points]
    return [dict(value=float(t).hex(), count=int(m))
            for t, m in zip(result.transmission.ravel(),
                            result.mode_counts.ravel())]


def points_solved(inputs: dict, result) -> int:
    """(k, E) points the call solved, SCF inner spectra included.

    ``run_production`` returns no inner spectrum, so for it this is worked
    out from the iteration counts it does return; a traced child counts the
    points its spans saw (``e2e_probes.points_traced``) and the run fails
    when the two differ.
    """
    if inputs["entry"] == "spectrum":
        return int(result.transmission.size)
    per_bias = [p.scf_iterations * inputs["inner_grid_points"]
                + len(inputs["grid"]) for p in result.points]
    return int(sum(per_bias)) * inputs["num_k"]


def check_operations(entry: str, ops: list, expect_converged: bool = True,
                     reference: list | None = None,
                     bitwise: list | None = None) -> dict:
    """Failure reasons by operation index (empty when all pass).

    ``reference`` holds the seed-0 operations of the serial default path
    (compared at rel 1e-9, portable across BLAS builds); ``bitwise`` those
    of the default path on the same inputs and machine (compared by
    ``float.hex``).
    """
    failures: dict = {}

    def fail(i, reason):
        failures.setdefault(i, []).append(reason)

    for name, other in (("reference", reference), ("bitwise", bitwise)):
        if other is not None and len(other) != len(ops):
            for i in range(len(ops)):
                fail(i, f"{name} has {len(other)} operations, "
                        f"run has {len(ops)}")
            return failures
    for i, op in enumerate(ops):
        value = float.fromhex(op["value"])
        if not math.isfinite(value):
            fail(i, f"value {value} is not finite")
        elif entry == "spectrum" and not 0 <= value <= op["count"] + 1e-8:
            fail(i, f"T={value} outside [0, {op['count']} modes]")
        if entry == "production" and expect_converged \
                and not op["converged"]:
            fail(i, "SCF did not converge")
        if reference is not None:
            ref = float.fromhex(reference[i]["value"])
            if entry == "spectrum" and reference[i]["count"] != op["count"]:
                fail(i, f"{op['count']} modes, reference has "
                        f"{reference[i]['count']}")
            # a closed channel's T is round-off around 0, not a number
            # with nine digits
            floor = 1e-12 if entry == "spectrum" else 0.0
            if abs(value - ref) > 1e-9 * max(abs(value), abs(ref)) + floor:
                fail(i, f"value {value!r} differs from reference {ref!r} "
                        f"by more than rel 1e-9")
        if bitwise is not None and op["value"] != bitwise[i]["value"]:
            fail(i, f"value {op['value']} is not bitwise equal to the "
                    f"default path's {bitwise[i]['value']}")
    return failures
