"""Per-layer metrics of the traced child.

Two sources.  The traced call itself gives the stage split (the program's
own ``SpanTracer`` stage spans, workers' spans included) and the ledger
totals.  Layer probes then time single public functions of each layer on
the workload's own device and energies, each under a benchmark-owned span;
their flops and bytes are exact ``ledger_scope()`` counts, *computed* from
array sizes, not measured traffic.

Names, units and directions of the metrics are declared once, in
``BENCHMARK.json``; README.md says which end-to-end metric each one should
move on which workload.
"""

from __future__ import annotations

import glob
import hashlib
import itertools
import math
import os
import pickle
import resource
import statistics
import time

STAGES = ("PREPARE", "OBC", "ASSEMBLE", "SOLVE", "ANALYZE")

#: a probe repeats up to 5 times after its warm-up while it stays inside
#: this budget; a probe whose warm-up alone exceeds it reports that one call
PROBE_BUDGET_S = 1.0


def cpu_seconds() -> float:
    """User + system seconds of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (MiB).

    The process's own peak is read from ``VmHWM``: its ``ru_maxrss`` starts
    at the resident set of the parent that spawned it, so a parent larger
    than the child would be reported instead.
    """
    with open("/proc/self/status") as fh:
        own = next(int(line.split()[1]) for line in fh
                   if line.startswith("VmHWM:"))
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024.0


def _counted(fn):
    """(median seconds, ledger flops, ledger bytes, last return value) of
    ``fn``; the counts are those of the warm-up call."""
    from repro.linalg import ledger_scope
    with ledger_scope() as ledger:
        t0 = time.perf_counter()
        out = fn()
        warm = time.perf_counter() - t0
    times = []
    while warm <= PROBE_BUDGET_S and len(times) < 5 and (
            len(times) < 2 or sum(times) + warm < PROBE_BUDGET_S):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return (statistics.median(times or [warm]), ledger.total_flops,
            ledger.total_bytes, out)


def _timed(fn):
    """(median seconds, last return value) of ``fn`` after one warm-up."""
    seconds, _, _, out = _counted(fn)
    return seconds, out


def points_traced(tracer) -> int:
    """(k, E) points the traced call solved: every point passes the OBC
    stage once, alone or in a batch whose span carries its size."""
    return sum(span.attrs.get("batch_size", 1) for span in tracer.records()
               if span.category == "stage" and span.name == "OBC")


def call_metrics(inputs, tracer, ledger, cpu_s: float) -> dict:
    """Stage split and ledger totals of the traced call."""
    stage_s = dict.fromkeys(STAGES, 0.0)
    scf_iterations = bias_points = 0
    for span in tracer.records():
        if span.category == "stage" and span.name in stage_s:
            stage_s[span.name] += span.seconds
        elif span.category == "scf":
            scf_iterations += 1
        elif span.category == "bias":
            bias_points += 1
    attributed = sum(stage_s.values())
    out = {f"pipeline.stage_s.{name}": s for name, s in stage_s.items()}
    out["pipeline.stage_share.OBC"] = stage_s["OBC"] / attributed
    out["pipeline.stage_share.SOLVE"] = stage_s["SOLVE"] / attributed
    out["pipeline.unattributed_fraction"] = 1.0 - attributed / cpu_s
    out["scf.iterations_total"] = scf_iterations
    # one inner spectrum per SCF iteration plus the final one per bias point
    out["scf.spectra_per_run"] = scf_iterations + bias_points \
        if inputs["entry"] == "production" else 1
    out["run.flops_total"] = ledger.total_flops
    out["run.bytes_total"] = ledger.total_bytes
    out["run.ops_per_byte"] = ledger.total_flops / ledger.total_bytes
    return out


def _open_energy(cache, energies, method, kwargs):
    """The boundary of the energy nearest mid-grid that has open channels
    (a closed point gives the solvers no right-hand side to time)."""
    order = sorted(range(len(energies)),
                   key=lambda i: abs(i - len(energies) // 2))
    for i in order:
        ob = cache.boundary(float(energies[i]), method, **kwargs)
        if ob.injected:
            return float(energies[i]), ob
    raise RuntimeError("no probe energy with propagating modes")


def _llc_bytes() -> int:
    """Largest cache the kernel reports for cpu0 (0 when it reports none)."""
    best = 0
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    for path in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*/size"):
        try:
            with open(path) as fh:
                text = fh.read().strip()
            best = max(best, int(text[:-1]) * scale[text[-1]])
        except (OSError, KeyError, ValueError):
            continue
    return best


def run_probes(inputs, log, tmp: str) -> tuple:
    """Time each layer's public functions; returns (metrics, notes)."""
    import numpy as np
    from repro.cache import ResultStore, device_content_hash, pack_result
    from repro.core.energygrid import adaptive_energy_grid
    from repro.core.runner import SpectrumUnitSpec, compute_spectrum
    from repro.hamiltonian import build_device
    from repro.linalg import (backend_scope, get_backend, lu_factor_batched,
                              lu_solve_batched)
    from repro.negf import orbital_density
    from repro.negf.transmission import analyze_solution
    from repro.obc import compute_open_boundary, compute_open_boundary_batch
    from repro.observability.spans import tracing
    from repro.parallel.backend import close_task_runner, make_task_runner
    from repro.pipeline import DeviceCache, TransportPipeline, get_solver
    from repro.poisson.fd import solve_poisson
    from repro.poisson.grid import PoissonGrid
    from repro.runtime.checkpoint import CheckpointStore
    from repro.solvers import assemble_t_batched, solve_rgf_batched

    from e2e_workloads import FEAST

    m: dict = {}
    notes: dict = {}
    structure, basis = inputs["structure"], inputs["basis"]
    num_cells, device = inputs["num_cells"], inputs["device"]
    lead, grid, window = device.lead, inputs["grid"], inputs["window"]
    spectrum = inputs["spectrum"]
    method = spectrum["obc_method"]
    obc_kwargs = spectrum.get("obc_kwargs") or {}
    partitions = spectrum.get("num_partitions", 1)
    cache = DeviceCache(device)
    e16 = grid[np.linspace(0, len(grid) - 1, 16).round().astype(int)] \
        if len(grid) >= 16 else np.linspace(window[0], window[1], 16)
    e1, ob = _open_energy(cache, e16, method, obc_kwargs)

    with log.span("hamiltonian.build_device"):
        m["hamiltonian.build_device_s"], _ = _timed(
            lambda: build_device(structure, basis, num_cells))

    with log.span("core.energy_grid"):
        m["core.energy_grid_s"], _ = _timed(lambda: adaptive_energy_grid(
            lead, window[0], window[1], min_spacing=5e-3, max_spacing=0.04))
        m["core.energy_points"] = len(grid)

    with log.span("obc.dense"):
        (m["obc.dense_point_s"], m["obc.dense_flops_per_point"], _, _) = \
            _counted(lambda: compute_open_boundary(lead, e1, method="dense"))

    with log.span("obc.feast"):
        (m["obc.feast_point_s"], m["obc.feast_flops_per_point"],
         m["obc.feast_bytes_per_point"], fob) = _counted(
            lambda: compute_open_boundary(lead, e1, method="feast", **FEAST))
        m["obc.feast_iterations"] = int(fob.info["iterations"])
        seconds, obs16 = _timed(lambda: compute_open_boundary_batch(
            lead, e16, method="feast", **FEAST))
        m["obc.feast_batch16_point_s"] = seconds / 16

    a = cache.a_matrix(e1)
    inj = ob.injection_matrix(cache.num_blocks, cache.block_sizes)
    from_left = np.array([mode.from_left for mode in ob.injected])
    vels = np.array([abs(mode.velocity) for mode in ob.injected])

    with log.span("linalg.roofline"):
        n = 512
        rng = np.random.default_rng(0)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            x @ x
            best = min(best, time.perf_counter() - t0)
        m["linalg.zgemm_peak_gflops"] = 8 * n ** 3 / best / 1e9
        # arrays of 4x the last-level cache, at most 256 MiB each: a small
        # VM reports its host's whole L3, and first-touching gigabytes of
        # guest memory costs seconds; both sizes are reported
        llc = _llc_bytes()
        nbytes = min(max(4 * llc, 64 << 20), 256 << 20)
        src = np.ones(nbytes // 8)
        dst = np.empty_like(src)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            np.copyto(dst, src)
            best = min(best, time.perf_counter() - t0)
        # computed bytes: one read and one write of the array
        m["linalg.stream_bandwidth_gb_s"] = 2 * src.nbytes / best / 1e9
        notes["stream_array_bytes"] = int(src.nbytes)
        notes["last_level_cache_bytes"] = llc
        del src, dst

    with log.span("solvers.splitsolve"):
        solve = get_solver("splitsolve")
        (seconds, flops, nbytes, _) = _counted(
            lambda: solve(a, ob, inj, num_partitions=partitions))
        m["solvers.splitsolve_point_s"] = seconds
        m["solvers.splitsolve_flops_per_point"] = flops
        m["solvers.splitsolve_bytes_per_point"] = nbytes
        m["solvers.splitsolve_gflops"] = flops / seconds / 1e9
        m["solvers.splitsolve_peak_fraction"] = \
            flops / seconds / 1e9 / m["linalg.zgemm_peak_gflops"]

    with log.span("solvers.rgf"):
        solve = get_solver("rgf")
        (m["solvers.rgf_point_s"], m["solvers.rgf_flops_per_point"], _,
         psi) = _counted(lambda: solve(a, ob, inj))
        a16 = cache.a_matrix_batch(e16)
        sigma_l = np.stack([o.sigma_l for o in obs16])
        sigma_r = np.stack([o.sigma_r for o in obs16])
        rhs = np.stack([inj] * 16)
        seconds, _ = _timed(lambda: solve_rgf_batched(
            assemble_t_batched(a16, sigma_l, sigma_r), rhs))
        m["solvers.rgf_batch16_point_s"] = seconds / 16

    with log.span("linalg.lu_batch16"):
        mid = cache.num_blocks // 2
        stack, rhs = a16.diag[mid], a16.upper[min(mid, len(a16.upper) - 1)]

        def factor_solve():
            return lu_solve_batched(lu_factor_batched(stack), rhs)
        with backend_scope("numpy"):
            m["linalg.lu_batch16_s"], _ = _timed(factor_solve)
        with backend_scope(get_backend("mixed")):
            m["linalg.lu_mixed_batch16_s"], sol = _timed(factor_solve)
        resid = np.linalg.norm((rhs - stack @ sol).reshape(16, -1), axis=1)
        m["linalg.mixed_max_residual"] = float(
            (resid / np.linalg.norm(rhs.reshape(16, -1), axis=1)).max())

    with log.span("pipeline.point"):
        pipe = TransportPipeline(
            obc_method=method, solver=spectrum["solver"],
            num_partitions=partitions, obc_kwargs=obc_kwargs)
        # a fresh cache per call: all five stages run, nothing memoized
        m["pipeline.solve_point_s"], _ = _timed(
            lambda: pipe.solve_point(DeviceCache(device), e1))
        flip = itertools.count()

        def assemble():
            # alternate energies: a_matrix memoizes the last one
            cache.a_matrix(float(e16[next(flip) % 2]))
            return ob.injection_matrix(cache.num_blocks, cache.block_sizes)
        m["pipeline.assemble_point_s"], _ = _timed(assemble)

    with log.span("negf"):
        m["negf.analyze_point_s"], point = _timed(
            lambda: analyze_solution(cache, ob, psi, from_left, vels))
        m["negf.density_point_s"], _ = _timed(lambda: orbital_density(
            point, device.smat, inputs["mu_source"],
            inputs["mu_source"] - 0.05, 300.0))

    with log.span("poisson"):
        pgrid = PoissonGrid.for_structure(structure, spacing=0.25)
        rho = pgrid.assign_charge(structure.positions,
                                  np.full(structure.num_atoms, 0.01))
        m["poisson.solve_s"], _ = _timed(
            lambda: solve_poisson(pgrid, rho, eps_r=11.7))
        m["poisson.grid_nodes"] = pgrid.num_nodes

    # one inner spectrum of the workload at its own settings, first k-point
    probe_e = inputs["energies"][:inputs["probe_points"]]

    def probe_spectrum(**extra):
        t0 = time.perf_counter()
        compute_spectrum(structure, basis, num_cells, probe_e, **spectrum,
                         **extra)
        return time.perf_counter() - t0

    with log.span("parallel"):
        unit = SpectrumUnitSpec(
            structure=structure, basis=basis, num_cells=num_cells, kz=0.0,
            potential=np.zeros(structure.num_atoms),
            obc_method=method, solver=spectrum["solver"],
            num_partitions=partitions, obc_kwargs=obc_kwargs,
            energies=tuple(float(e) for e in e16), kpoint_index=0,
            energy_indices=tuple(range(16)), run_token="probe")
        m["parallel.unit_pickle_s"], blob = _timed(
            lambda: pickle.dumps(pickle.loads(pickle.dumps(unit))))
        m["parallel.unit_pickle_bytes"] = len(blob)
        cpu0 = cpu_seconds()
        serial_wall = probe_spectrum()
        cpu1 = cpu_seconds()
        # run_production keeps one pool for the whole sweep, so the pool is
        # up before the spectrum is timed; its start, first task and
        # shutdown are their own metric
        t0 = time.perf_counter()
        runner = make_task_runner("process", 2)
        try:
            runner([os.getpid, os.getpid])
            started = time.perf_counter() - t0
            pool_wall = probe_spectrum(task_runner=runner)
        finally:
            t0 = time.perf_counter()
            close_task_runner(runner)
            closed = time.perf_counter() - t0
        m["parallel.pool_start_s"] = started + closed
        m["parallel.speedup_2w"] = serial_wall / pool_wall
        # the workers are reaped by now: their whole CPU time, start-up
        # included, is what the second spectrum cost
        m["parallel.cpu_inflation"] = (cpu_seconds() - cpu1) / (cpu1 - cpu0)

    with log.span("cache"):
        store = ResultStore(os.path.join(tmp, "probe-store"))
        payload = pack_result(point)
        keys = (hashlib.sha256(str(i).encode()).hexdigest()
                for i in itertools.count())
        used = []

        def put():
            used.append(next(keys))
            store.put(used[-1], payload)
        m["cache.put_point_s"], _ = _timed(put)
        reads = itertools.cycle(used)
        m["cache.get_point_s"], _ = _timed(lambda: store.get(next(reads)))
        stats = store.stats()
        m["cache.record_bytes"] = stats["total_bytes"] / stats["objects"]
        m["cache.device_hash_s"], _ = _timed(
            lambda: device_content_hash(device))
        root = os.path.join(tmp, "probe-rerun")
        probe_spectrum(result_store=root)
        with tracing() as tracer:
            m["cache.warm_rerun_s"] = probe_spectrum(result_store=root)
        hits = tracer.metrics.counter("result_store_hits").value
        misses = tracer.metrics.counter("result_store_misses").value
        m["cache.warm_hit_rate"] = hits / (hits + misses)

    with log.span("runtime.checkpoint"):
        path = os.path.join(tmp, "probe-sweep.npz")
        ckpt = CheckpointStore(path)
        state = dict(vds=[0.05, 0.10], current=[1e-7, 2e-7],
                     scf_iterations=[5, 5], converged=[True, True],
                     potentials=np.zeros((2, structure.num_atoms)))
        m["runtime.checkpoint_save_s"], _ = _timed(
            lambda: ckpt.save("production", **state))
        m["runtime.checkpoint_bytes"] = os.path.getsize(path)
    return m, notes
