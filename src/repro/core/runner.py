"""Ballistic transport runner: the (k, E) double loop and its integrals."""

from __future__ import annotations

import itertools
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from repro.cache import (ResultStore, as_result_store, device_content_hash,
                         pack_result, result_key, unpack_result)
from repro.constants import LANDAUER_2E_OVER_H
from repro.hamiltonian import build_device
from repro.negf.density import fermi
from repro.observability.spans import current_tracer
from repro.parallel.backend import task_runner_scope
from repro.parallel.serialization import TaskDescriptor
from repro.pipeline import TransportPipeline
from repro.pipeline.cache import (BoundaryMemo, DeviceCache, DeviceFamily,
                                  KPointSetup, as_family)
from repro.utils.errors import ConfigurationError, TaskExecutionError


@dataclass
class TransportSpectrum:
    """T(E, k) and bookkeeping of one ballistic run."""

    energies: np.ndarray              # (nE,)
    kpoints: np.ndarray               # (nk, 2): fractional kz, weight
    transmission: np.ndarray          # (nk, nE) left->right
    mode_counts: np.ndarray           # (nk, nE) propagating channels
    #: one EnergyPointResult per solved or stored (k, E) point; a result
    #: that came home from a process worker carries ``boundary=None``,
    #: as a result-store hit does
    results: list = field(repr=False, default_factory=list)
    #: (nk, nE) wall time of each point's solve (0.0 for a store hit)
    seconds: np.ndarray = field(repr=False, default=None)
    #: the task runner's RunTelemetry, when it exposes one
    telemetry: object = field(repr=False, default=None)

    def k_averaged_transmission(self) -> np.ndarray:
        """Momentum-integrated T(E) = sum_k w_k T(E, k)."""
        w = self.kpoints[:, 1]
        return w @ self.transmission

    def current(self, mu_l: float, mu_r: float,
                temperature_k: float = 300.0) -> float:
        """Landauer current (A): I = 2e/h int dE T(E) [f_L - f_R]."""
        return landauer_current(self.energies,
                                self.k_averaged_transmission(),
                                mu_l, mu_r, temperature_k)

    def measured_time_per_k(self) -> np.ndarray:
        """Measured wall time per k-point: the row sums of ``seconds``.

        This is what the dynamic load balancer consumes: the real cost of
        each momentum point, not a uniform proxy.
        """
        return self.seconds.sum(axis=1)


@dataclass(frozen=True)
class SpectrumUnitSpec:
    """Picklable recipe for one (k, E-batch) unit of a spectrum run.

    This is what crosses the process boundary instead of a task closure:
    the structure/basis inputs plus the pipeline configuration, enough
    for :func:`_solve_unit` to rebuild the device and solve the batch in
    a worker with bit-identical results (device assembly and the solves
    are deterministic functions of these inputs).  Two tokens name what
    the worker may keep between units: ``family_token`` the
    potential-invariant part (the k-point's base device and its boundary
    memo, shared by every spectrum of a run), ``run_token`` the one
    spectrum (its potential and pipeline configuration).
    """

    structure: object
    basis: object
    num_cells: int
    kz: float
    potential: object          # (num_atoms,) array or None
    obc_method: str
    solver: str
    num_partitions: int
    obc_kwargs: dict | None
    energies: tuple            # the unit's energy values
    kpoint_index: int
    energy_indices: tuple
    run_token: str             # unique per spectrum (one potential)
    use_arena: bool = False    # workspace-arena buffer reuse in SOLVE
    #: persistent result-store root; workers publish their fresh solves
    #: directly (concurrent, atomic), so a crash mid-run loses nothing
    #: already solved
    store_root: str | None = None
    #: result-store keys aligned one-to-one with ``energies``
    store_keys: tuple | None = None
    #: names the :class:`~repro.pipeline.cache.DeviceFamily` of the run;
    #: ``None`` (a hand-built spec) falls back to ``run_token``
    family_token: str | None = None


class _WorkerDevice:
    """What a worker keeps of one k-point of one device family.

    The potential-invariant part (base device, boundary memo, the
    k-point's :class:`~repro.pipeline.cache.KPointSetup`) lives as long
    as the entry; the pipeline and the
    :class:`DeviceCache` of the spectrum being solved are replaced when
    a unit of another spectrum (``run_token``) arrives.
    """

    def __init__(self, spec: SpectrumUnitSpec):
        self.device = build_device(spec.structure, spec.basis,
                                   spec.num_cells, kpoint=(0.0, spec.kz))
        self.memo = BoundaryMemo()
        self.setup = KPointSetup(self.device)
        self.run_token = None
        self.pipe = None
        self.cache = None

    def for_run(self, spec: SpectrumUnitSpec):
        """``(pipeline, cache)`` of the spectrum ``spec`` belongs to."""
        if spec.run_token != self.run_token:
            self.pipe = TransportPipeline(
                obc_method=spec.obc_method, solver=spec.solver,
                num_partitions=spec.num_partitions,
                obc_kwargs=spec.obc_kwargs, use_arena=spec.use_arena)
            dev = self.device if spec.potential is None \
                else self.device.with_potential(spec.potential)
            self.cache = DeviceCache(dev, memo=self.memo, setup=self.setup)
            self.run_token = spec.run_token
        return self.pipe, self.cache


#: per-process cache of :func:`_solve_unit`, keyed ``(family_token,
#: kpoint_index)`` so a worker assembles each k-point's device once and
#: keeps its boundaries for every spectrum of the same run
_WORKER_CACHE: dict = {}
_WORKER_CACHE_MAX = 8

_RUN_TOKENS = itertools.count()


def _solve_unit(spec: SpectrumUnitSpec):
    """Worker-side entry point: solve one unit from its plain-data spec.

    Module-level (pickled by reference) and self-contained: rebuilds the
    k-point's device on first use, memoized per process in
    :data:`_WORKER_CACHE` (bounded FIFO — workers of a long energy
    sweep hold a handful of k-point devices, not all of them).  A worker
    meets the same units in every call, so its memo holds what they ask
    for; the results do not depend on it (a hit is bitwise the solve).
    """
    key = (spec.family_token or spec.run_token, spec.kpoint_index)
    tracer = current_tracer()
    entry = _WORKER_CACHE.get(key)
    if entry is None:
        if tracer is not None:
            tracer.metrics.counter("worker_cache_misses").inc()
        entry = _WorkerDevice(spec)
        while len(_WORKER_CACHE) >= _WORKER_CACHE_MAX:
            _WORKER_CACHE.pop(next(iter(_WORKER_CACHE)))
            if tracer is not None:
                tracer.metrics.counter("worker_cache_evictions").inc()
        _WORKER_CACHE[key] = entry
    else:
        if tracer is not None:
            tracer.metrics.counter("worker_cache_hits").inc()
    pipe, cache = entry.for_run(spec)
    outputs = pipe.solve_batch(
        cache, np.asarray(spec.energies, dtype=float),
        kpoint_index=spec.kpoint_index,
        energy_indices=list(spec.energy_indices))
    root = getattr(spec, "store_root", None)
    _publish(None if root is None else ResultStore(root),
             getattr(spec, "store_keys", None), outputs)
    return outputs


def _publish(rstore, keys, outputs) -> None:
    """Put a unit's fresh results in the result store, one per key.

    Every backend runs it inside the unit's own task, as the unit
    returns, so a run that dies in a later unit leaves this one behind
    to resume from.
    """
    if rstore is None or keys is None:
        return
    for key, res in zip(keys, outputs):
        rstore.put(key, pack_result(res))


def compute_spectrum(structure, basis, num_cells: int, energies,
                     num_k: int = 1, obc_method: str = "feast",
                     solver: str = "splitsolve", num_partitions: int = 1,
                     potential=None, obc_kwargs: dict | None = None,
                     task_runner=None, energy_batch_size: int = 1,
                     backend: str | None = None,
                     num_workers: int | None = None,
                     use_arena: bool = False,
                     result_store=None,
                     family: DeviceFamily | None = None
                     ) -> TransportSpectrum:
    """Run the full (k, E) transport loop on a structure.

    The transport keywords are documented here once: the SCF loop, the
    production sweep and the gate sweep forward theirs.

    Parameters
    ----------
    num_k : int
        Transverse k-points (only meaningful for z-periodic structures
        like the UTBFET; the paper's scaling runs use 21).
    obc_method, obc_kwargs : the open-boundary algorithm, a name in
        :data:`repro.pipeline.OBC_METHODS` (Fig. 5), and its settings.
    solver, num_partitions : the SOLVE algorithm, a name in
        :data:`repro.pipeline.SOLVERS` or ``"auto"`` (Fig. 8), and
        SplitSolve's partition count.
    potential : (num_atoms,) array, optional
        Electrostatic potential applied to the ordered device atoms.
    task_runner : callable, optional
        ``task_runner(tasks) -> list`` mapping a list of zero-argument
        callables to their results; hook for the parallel substrate.
        Default: sequential execution.
    energy_batch_size : int
        Energies solved per task (>= 1): each task is one (k, E-batch)
        unit solved through :meth:`TransportPipeline.solve_batch` — the
        open boundaries energy by energy, one stacked assembly, and one
        solver call per energy — so every solver returns the bits of the
        one-energy run.  A unit's wall time is split equally over its
        energies whatever the size, so
        :meth:`TransportSpectrum.measured_time_per_k` (the dynamic load
        balancer's measured per-k costs) works identically.
    backend : {"serial", "thread", "process"}, optional
        Convenience alternative to ``task_runner``: build (and own) the
        runner via :func:`repro.parallel.make_task_runner` with
        ``num_workers`` workers, closing it before returning.  All
        backends produce bit-identical spectra; ``"process"`` executes
        the units in worker OS processes via picklable
        :class:`SpectrumUnitSpec` descriptors.  Mutually exclusive with
        ``task_runner``.
    num_workers : int, optional
        Worker count for ``backend`` (default 1; ignored otherwise).
    use_arena : bool
        Run each unit under a persistent
        :class:`~repro.linalg.arena.Workspace` (bitwise-identical
        spectra; allocation telemetry via the span tracer).  SOLVE is
        one solver call per energy, so it pools nothing.
    result_store : path or :class:`repro.cache.ResultStore`, optional
        Persistent cross-run result cache, and the one way to resume a
        spectrum.  Before scheduling, every (k, E-batch) unit is
        partitioned into hits and misses against the store
        (content-addressed keys over device matrices, potential, OBC
        method + kwargs, solver, k, E); only the misses are solved
        (partially-hit units re-bucket to their miss energies —
        bitwise-safe, a batch returns the bits of its one-energy runs),
        hits merge back bitwise-identically from disk, and fresh solves
        are published by each unit's own task as it finishes, on every
        backend, so a killed run re-run against the same
        store solves only what it had not finished.  Cache traffic is
        observable: ``result_store_*`` counters, a bytes-loaded
        histogram, and ``category="cache"`` span instants.
    family : :class:`repro.pipeline.cache.DeviceFamily`, optional
        The run's potential-invariant state (per-k base devices, lead
        polynomial families, open-boundary memo), handed down by a
        driver that solves several spectra of one device - the SCF loop,
        the production sweep - so each lead's Sigma^RB(E) is solved once
        per run.  Default: a private one that dies with this call.

    Notes
    -----
    One device (H(k), S(k), lead blocks) is assembled per k-point and
    shared across its energy points, matching OMEN's memory layout where
    the matrices are broadcast once and the E-loop is embarrassingly
    parallel under them (Fig. 9).  Every solve runs the reference
    complex-double kernels, as the paper's do, whatever
    :func:`repro.linalg.backend_scope` the caller has open: a result
    depends only on the arguments.
    """
    energies = np.asarray(list(energies), dtype=float)
    if energies.size == 0:
        raise ConfigurationError("need at least one energy")
    if not isinstance(energy_batch_size, numbers.Integral) \
            or energy_batch_size < 1:
        raise ConfigurationError("energy_batch_size must be an int >= 1")
    batch = int(energy_batch_size)
    family = as_family(family, structure, basis, num_cells, num_k)
    kgrid = family.kgrid

    pipe = TransportPipeline(obc_method=obc_method, solver=solver,
                             num_partitions=num_partitions,
                             obc_kwargs=obc_kwargs, use_arena=use_arena)
    caches = family.caches(potential)

    rstore = as_result_store(result_store)

    # The work units: one per (k, E-batch); batch == 1 reproduces the
    # historical one-task-per-point granularity exactly.
    units = []
    for ik in range(len(kgrid)):
        for lo in range(0, energies.size, batch):
            units.append((ik, list(range(lo, min(lo + batch,
                                                 energies.size)))))

    tracer = current_tracer()
    if tracer is not None:
        tracer.metrics.gauge("energy_batch_size").set(int(batch))
        tracer.metrics.counter("spectrum_units").inc(len(units))
        tracer.metrics.histogram("unit_energies").observe(
            min(batch, energies.size))

    trans = np.zeros((len(kgrid), energies.size))
    counts = np.zeros((len(kgrid), energies.size), dtype=int)
    seconds = np.zeros((len(kgrid), energies.size))

    # Partition every unit into store hits and misses *before*
    # scheduling: fully-hit units never become tasks, partially-hit
    # units re-bucket to their miss energies (bitwise-safe — a batch
    # returns the bits of its one-energy runs), and hit records merge
    # back from disk below.
    unit_hits: dict = {}   # ui -> {ie: stored record}
    unit_keys: dict = {}   # ui -> {ie: store key}
    if rstore is not None:
        dev_hashes: dict = {}
        for ui, (ik, ies) in enumerate(units):
            dh = dev_hashes.get(ik)
            if dh is None:
                dh = dev_hashes[ik] = device_content_hash(
                    caches[ik].device)
            keys, hits = {}, {}
            for ie in ies:
                key = result_key(
                    dh, obc_method=obc_method, obc_kwargs=obc_kwargs,
                    solver=solver, num_partitions=num_partitions,
                    kz=float(kgrid[ik, 0]), energy=float(energies[ie]))
                keys[ie] = key
                rec = rstore.get(key)
                if rec is not None:
                    hits[ie] = rec
            unit_keys[ui] = keys
            unit_hits[ui] = hits
        if tracer is not None:
            nprobe = sum(len(k) for k in unit_keys.values())
            nhit = sum(len(h) for h in unit_hits.values())
            tracer.instant(
                "result-store-probe", category="cache",
                attrs={"hits": nhit, "misses": nprobe - nhit,
                       "hit_rate": nhit / nprobe if nprobe else 0.0})

    token = f"{os.getpid()}:{next(_RUN_TOKENS)}"
    tasks: dict = {}       # ui -> zero-argument task of its miss energies
    miss_by_ui: dict = {}
    for ui, (ik, ies) in enumerate(units):
        hits = unit_hits.get(ui, {})
        miss = [ie for ie in ies if ie not in hits]
        miss_by_ui[ui] = miss
        if not miss:
            continue   # fully cached: merged below without a task
        keys = unit_keys.get(ui)
        spec = SpectrumUnitSpec(
            structure=structure, basis=basis, num_cells=num_cells,
            kz=float(kgrid[ik, 0]), potential=potential,
            obc_method=obc_method, solver=solver,
            num_partitions=num_partitions, obc_kwargs=obc_kwargs,
            energies=tuple(float(e) for e in energies[miss]),
            kpoint_index=ik, energy_indices=tuple(int(e) for e in miss),
            run_token=token, use_arena=use_arena,
            store_root=rstore.root if rstore is not None else None,
            store_keys=tuple(keys[ie] for ie in miss) if keys else None,
            family_token=family.token)
        tasks[ui] = _make_task(pipe, caches[ik], energies[miss], ik, miss,
                               spec, rstore)

    results = []
    with task_runner_scope(task_runner, backend, num_workers) as runner:
        # A runner returns every unit's output at once; without one each
        # task is called in place, when its turn comes.
        out_by_ui = None
        if runner is not None:
            try:
                out_by_ui = dict(zip(tasks, runner(list(tasks.values()))))
            except TaskExecutionError as exc:
                # translate the runner's flat task index back to the
                # (k, E) identity so the caller knows which unit to re-run
                if 0 <= exc.task_index < len(tasks):
                    ik, ies = units[list(tasks)[exc.task_index]]
                    exc.kpoint_index = ik
                    exc.energy_index = ies[0]
                raise
        for ui in range(len(units)):
            if ui not in tasks:
                out = []                    # fully cached: no task
            elif out_by_ui is None:
                out = tasks[ui]()
            else:
                out = out_by_ui[ui]
            fresh = dict(zip(miss_by_ui[ui], out))
            # fresh solves and stored hits, back in unit order
            merged = [fresh[ie] if ie in fresh
                      else unpack_result(unit_hits[ui][ie])
                      for ie in units[ui][1]]
            _absorb_unit(units[ui], merged, trans, counts, seconds,
                         results)
    return TransportSpectrum(energies=energies, kpoints=kgrid,
                             transmission=trans, mode_counts=counts,
                             results=results, seconds=seconds,
                             telemetry=getattr(runner, "telemetry", None))


def _make_task(pipe, cache, unit_energies, ik, ies, spec, rstore):
    def task():
        outputs = pipe.solve_batch(cache, unit_energies, kpoint_index=ik,
                                   energy_indices=ies)
        _publish(rstore, spec.store_keys, outputs)
        return outputs
    # the picklable twin of the closure: serial/thread runners call the
    # closure, the process backend ships the descriptor
    task.descriptor = TaskDescriptor(fn=_solve_unit, args=(spec,))
    return task


def _absorb_unit(unit, outputs, trans, counts, seconds, results) -> None:
    """Fold one completed (k, E-batch) unit into the spectrum arrays.

    Cache hits arrive with ``seconds=0.0`` (nothing was solved), so the
    measured per-k time holds exactly the freshly solved work.
    """
    ik, ies = unit
    for ie, res in zip(ies, outputs):
        trans[ik, ie] = res.transmission_lr
        counts[ik, ie] = res.num_prop_left
        seconds[ik, ie] = res.seconds
        results.append(res)


def landauer_current(energies, transmission, mu_l: float, mu_r: float,
                     temperature_k: float = 300.0) -> float:
    """I = (2e/h) int dE T(E) [f(E - mu_l) - f(E - mu_r)], in amperes.

    Trapezoid integration over the (possibly non-uniform, adaptive)
    energy grid, which needs at least two energies: one energy spans no
    interval, and ``2e^2/h T f`` there is a conductance, not a current.
    """
    energies = np.asarray(energies, dtype=float)
    transmission = np.asarray(transmission, dtype=float)
    if energies.shape != transmission.shape:
        raise ConfigurationError("energies/transmission shape mismatch")
    if energies.size < 2:
        raise ConfigurationError(
            "the Landauer current integrates over at least two energies")
    df = fermi(energies, mu_l, temperature_k) \
        - fermi(energies, mu_r, temperature_k)
    return float(LANDAUER_2E_OVER_H
                 * np.trapezoid(transmission * df, energies))
