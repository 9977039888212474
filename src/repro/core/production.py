"""The production simulation loop (paper Sections 4/5B).

"An entire simulation involves roughly 40-50 iterations for 10 bias
points ... each point/iteration is processed sequentially, one after the
other, and the workload is dynamically redistributed after each step."

This driver runs that outer loop at laptop scale: for each bias point a
self-consistent Schroedinger-Poisson solve, the Landauer current at the
converged potential, and the dynamic load-balancer feedback that OMEN
applies between iterations (recorded here from measured per-k wall
times so the distribution logic runs on real data).  The sweep can
checkpoint after every completed bias point and resume from a kill.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from contextlib import nullcontext

from repro.core.energygrid import family_energy_grid
from repro.core.runner import compute_spectrum
from repro.observability.spans import current_tracer
from repro.parallel import DynamicLoadBalancer
from repro.pipeline.cache import DeviceFamily
from repro.runtime.checkpoint import as_store
from repro.utils.errors import CheckpointError, ConfigurationError


@dataclass
class BiasPoint:
    """Converged result of one bias point."""

    vds: float
    current: float
    scf_iterations: int
    converged: bool
    potential: np.ndarray = field(repr=False, default=None)


@dataclass
class ProductionResult:
    points: list
    balancer: DynamicLoadBalancer | None

    def iv_table(self) -> str:
        lines = ["  Vds(V)    Id(A)        SCF its  converged"]
        for p in self.points:
            lines.append(f"  {p.vds:6.3f}  {p.current:12.3e}  "
                         f"{p.scf_iterations:7d}  {p.converged}")
        return "\n".join(lines)


def run_production(structure, basis, num_cells: int, bias_points,
                   mu_source: float, e_window,
                   num_k: int = 1, num_nodes: int | None = None,
                   scf_kwargs: dict | None = None,
                   temperature_k: float = 300.0,
                   task_runner=None,
                   energy_batch_size: int = 1,
                   checkpoint=None, backend: str | None = None,
                   num_workers: int | None = None,
                   use_arena: bool = False,
                   result_store=None) -> ProductionResult:
    """Run the full multi-bias production simulation.

    Parameters
    ----------
    bias_points : iterable of Vds values, processed sequentially.
    mu_source : source chemical potential (eV); drain = mu_source - Vds.
    num_nodes : optional simulated node count feeding the dynamic load
        balancer (None disables the balancing bookkeeping).
    scf_kwargs : forwarded to
        :func:`repro.poisson.scf.schroedinger_poisson`.
    task_runner : forwarded to the SCF loop and the final transport
        solve of each bias point; its ``telemetry``, when it keeps one,
        is checkpointed with the sweep.
    energy_batch_size : forwarded to the SCF loop and the final
        transport solve; the energies per (k, E-batch) unit (an int
        >= 1).  The balancer feedback does not depend on it — batch
        tasks emit per-energy stage traces.
    checkpoint : path or :class:`repro.runtime.CheckpointStore`, optional
        Persist the sweep after every completed bias point and resume
        from it: completed points (and the balancer's learned work
        model) are restored instead of re-computed.
    backend : {"serial", "thread", "process"}, optional
        Build (and own) the task runner via
        :func:`repro.parallel.make_task_runner` instead of passing
        ``task_runner``; the runner is kept alive across all bias
        points (the process pool amortizes over the sweep) and closed
        before returning.  Mutually exclusive with ``task_runner``.
    num_workers : int, optional
        Worker count for ``backend`` (default 1; ignored otherwise).
    use_arena : bool, optional
        Run every transport solve with a per-pipeline workspace arena
        (see :class:`repro.linalg.arena.Workspace`): steady-state
        energy batches reuse scratch buffers instead of allocating
        fresh ones.  Bitwise-identical results; arena reuse statistics
        appear as ``memory``-category span instants.
    result_store : path or :class:`repro.cache.ResultStore`, optional
        Persistent cross-run result cache, forwarded to every transport
        solve of the sweep (the SCF inner solves and the final spectrum
        per bias point).  A re-run of the same sweep merges cached
        (k, E) results bitwise-identically instead of re-solving them.

    Notes
    -----
    Bias points run one after the other (as in OMEN), and the load
    balancer learns per-k costs across points.  Every point's SCF starts
    from a zero potential; seeding it from the previous point's
    converged potential (bias continuation) is ROADMAP item 3a.  Every
    transport solve runs the reference complex-double kernels (see
    :func:`repro.core.runner.compute_spectrum`).
    """
    # imported here: repro.poisson.scf imports repro.core, whose package
    # init imports this module
    from repro.poisson.scf import schroedinger_poisson

    bias_points = [float(v) for v in bias_points]
    if not bias_points:
        raise ConfigurationError("need at least one bias point")
    if backend is not None and task_runner is not None:
        raise ConfigurationError(
            "pass either task_runner or backend, not both")
    owned_runner = None
    if backend is not None:
        from repro.parallel.backend import make_task_runner
        task_runner = owned_runner = make_task_runner(backend, num_workers)
    kwargs = dict(mixing=0.3, max_iter=12, tol=5e-3, density_scale=0.02)
    kwargs.update(scf_kwargs or {})

    # The contacts are potential-frozen, so the devices' potential-free
    # part and every lead's Sigma^RB(E) are the same in all SCF
    # iterations, final spectra and bias points: one family for the sweep.
    family = DeviceFamily(structure, basis, num_cells, num_k)
    energies = family_energy_grid(family, e_window[0], e_window[1],
                                  min_spacing=5e-3, max_spacing=0.04)

    balancer = None
    if num_nodes is not None:
        balancer = DynamicLoadBalancer(
            num_nodes, [len(energies)] * num_k, smoothing=0.5)

    store = as_store(checkpoint)
    telemetry = getattr(task_runner, "telemetry", None)
    points = _restore_sweep(store, bias_points, balancer,
                            telemetry=telemetry)

    try:
        for vds in bias_points[len(points):]:
            tracer = current_tracer()
            scope = tracer.span(f"bias Vds={vds:+.3f}V", category="bias",
                                vds=vds) if tracer is not None \
                else nullcontext()
            with scope:
                scf = schroedinger_poisson(
                    structure, basis, num_cells,
                    mu_l=mu_source, mu_r=mu_source - vds,
                    e_window=e_window, num_k=num_k,
                    task_runner=task_runner,
                    energy_batch_size=energy_batch_size,
                    use_arena=use_arena,
                    result_store=result_store, family=family, **kwargs)
                spec = compute_spectrum(structure, basis, num_cells,
                                        energies,
                                        num_k=num_k, obc_method="dense",
                                        solver="rgf",
                                        potential=scf.potential_atom,
                                        task_runner=task_runner,
                                        energy_batch_size=energy_batch_size,
                                        use_arena=use_arena,
                                        result_store=result_store,
                                        family=family)
                current = spec.current(mu_source, mu_source - vds,
                                       temperature_k)
            points.append(BiasPoint(vds=vds, current=current,
                                    scf_iterations=scf.iterations,
                                    converged=scf.converged,
                                    potential=scf.potential_atom))
            if balancer is not None:
                # feed back the *measured* per-k wall times of this bias
                # point's transport solve (stage traces), falling back to
                # the energy-count proxy only if no traces were produced
                if balancer.record_task_traces(spec.traces) is None:
                    per_k = np.full(num_k, max(len(energies), 1),
                                    dtype=float)
                    dist = balancer.current_distribution()
                    balancer.record_iteration(per_k / dist.nodes_per_k)
            if store is not None:
                _save_sweep(store, points, balancer, telemetry=telemetry)
    finally:
        if owned_runner is not None:
            from repro.parallel.backend import close_task_runner
            close_task_runner(owned_runner)
    return ProductionResult(points=points, balancer=balancer)


def _save_sweep(store, points, balancer, telemetry=None) -> None:
    state = dict(
        vds=[p.vds for p in points],
        current=[p.current for p in points],
        scf_iterations=[p.scf_iterations for p in points],
        converged=[p.converged for p in points],
        potentials=np.asarray([p.potential for p in points]))
    if balancer is not None:
        state["balancer_work"] = balancer._work
        state["balancer_history"] = np.asarray(balancer.history)
    snap = telemetry.snapshot() if telemetry is not None else None
    store.save("production", telemetry=snap, **state)
    tracer = current_tracer()
    if tracer is not None:
        tracer.instant("checkpoint-saved", category="checkpoint",
                       attrs={"kind": "production",
                              "points_done": len(points)})


def _restore_sweep(store, bias_points, balancer, telemetry=None) -> list:
    """Rebuild completed bias points (and balancer state) from disk.

    The checkpoint's telemetry snapshot, when present, is adopted by a
    fresh runner's ``telemetry`` so post-restart reports cover the
    whole sweep.
    """
    if store is None or not store.exists():
        return []
    state = store.load("production")
    if telemetry is not None and store.last_telemetry:
        telemetry.restore(store.last_telemetry)
    done_vds = np.atleast_1d(state["vds"])
    if len(done_vds) > len(bias_points) or \
            not np.allclose(done_vds, bias_points[:len(done_vds)]):
        raise CheckpointError(
            f"checkpointed sweep {done_vds.tolist()} is not a prefix of "
            f"the requested bias points {bias_points}")
    points = [
        BiasPoint(vds=float(v), current=float(i),
                  scf_iterations=int(n), converged=bool(c),
                  potential=np.asarray(p, dtype=float))
        for v, i, n, c, p in zip(
            done_vds, np.atleast_1d(state["current"]),
            np.atleast_1d(state["scf_iterations"]),
            np.atleast_1d(state["converged"]),
            np.atleast_2d(state["potentials"]))]
    if balancer is not None and "balancer_work" in state:
        work = np.asarray(state["balancer_work"], dtype=float)
        if work.shape == balancer._work.shape:
            balancer._work = work
            balancer.history = [np.asarray(h, dtype=float) for h in
                                np.atleast_2d(state["balancer_history"])]
            balancer._invalidate()
    return points
