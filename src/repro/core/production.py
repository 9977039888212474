"""The production simulation loop (paper Sections 4/5B).

"An entire simulation involves roughly 40-50 iterations for 10 bias
points ... each point/iteration is processed sequentially, one after the
other, and the workload is dynamically redistributed after each step."

This driver runs that outer loop at laptop scale: for each bias point a
self-consistent Schroedinger-Poisson solve, the Landauer current at the
converged potential, and the dynamic load-balancer feedback that OMEN
applies between iterations (recorded here from measured per-k wall
times so the distribution logic runs on real data).  One checkpoint
record (:func:`sweep_record`), rewritten after every SCF iteration,
resumes a killed sweep at the next SCF iteration of its bias point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from contextlib import nullcontext

from repro.core.energygrid import adaptive_energy_grid
from repro.core.runner import compute_spectrum
from repro.observability.spans import current_tracer
from repro.parallel.backend import close_task_runner, make_task_runner
from repro.parallel.balancer import DynamicLoadBalancer
from repro.pipeline.cache import DeviceFamily
from repro.runtime.checkpoint import CheckpointStore
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
        :func:`repro.poisson.scf.schroedinger_poisson`; its
        ``obc_method`` / ``solver`` (default ``"dense"`` / ``"rgf"``)
        also solve each point's final spectrum, so a point's current
        comes from the method its potential converged with.  A
        ``temperature_k`` in it must equal the sweep's.
    temperature_k : the electron temperature (K) of the SCF loop's
        charge and of each point's current.
    task_runner : forwarded to the SCF loop and the final transport
        solve of each bias point; its ``telemetry``, when it keeps one,
        is checkpointed with the sweep.
    energy_batch_size : forwarded to the SCF loop and the final
        transport solve; the energies per (k, E-batch) unit (an int
        >= 1).  The balancer feedback does not depend on it — batch
        tasks emit per-energy stage traces.
    checkpoint : path or :class:`repro.runtime.CheckpointStore`, optional
        The sweep's record (:func:`sweep_record`), rewritten after
        every SCF iteration and every finished bias point, and resumed
        from when it exists: finished points and the balancer are
        restored and the point in progress continues at its next SCF
        iteration, bitwise as the uninterrupted sweep.
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
        (see :class:`repro.linalg.arena.Workspace`); SOLVE, one solver
        call per energy, pools nothing in it.  Bitwise-identical
        results; arena statistics appear as ``memory``-category span
        instants.
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
    from repro.poisson.scf import _scf_loop

    bias_points = [float(v) for v in bias_points]
    if not bias_points:
        raise ConfigurationError("need at least one bias point")
    if backend is not None and task_runner is not None:
        raise ConfigurationError(
            "pass either task_runner or backend, not both")
    kwargs = dict(mixing=0.3, max_iter=12, tol=5e-3, density_scale=0.02,
                  obc_method="dense", solver="rgf")
    kwargs.update(scf_kwargs or {})
    # the charge of every SCF iteration is integrated at the temperature
    # the sweep's currents are
    if kwargs.setdefault("temperature_k", temperature_k) != temperature_k:
        raise ConfigurationError(
            f"scf_kwargs temperature_k={kwargs['temperature_k']} differs "
            f"from the sweep's temperature_k={temperature_k}")
    owned_runner = None
    if backend is not None:
        task_runner = owned_runner = make_task_runner(backend, num_workers)

    # The contacts are potential-frozen, so the devices' potential-free
    # part and every lead's Sigma^RB(E) are the same in all SCF
    # iterations, final spectra and bias points: one family for the sweep.
    family = DeviceFamily(structure, basis, num_cells, num_k)
    energies = adaptive_energy_grid(family.gamma_device().lead, e_window[0],
                                    e_window[1], min_spacing=5e-3,
                                    max_spacing=0.04)

    balancer = None
    if num_nodes is not None:
        balancer = DynamicLoadBalancer(
            num_nodes, [len(energies)] * num_k, smoothing=0.5)

    try:
        points, start, save = sweep_record(
            checkpoint, bias_points, mu_source, e_window, num_k,
            structure.num_atoms, temperature_k, balancer=balancer,
            telemetry=getattr(task_runner, "telemetry", None))
        for vds in bias_points[len(points):]:
            tracer = current_tracer()
            scope = tracer.span(f"bias Vds={vds:+.3f}V", category="bias",
                                vds=vds) if tracer is not None \
                else nullcontext()
            with scope:
                scf = _scf_loop(
                    start, lambda state: save(points, state),
                    structure, basis, num_cells,
                    mu_l=mu_source, mu_r=mu_source - vds,
                    e_window=e_window, num_k=num_k,
                    task_runner=task_runner,
                    energy_batch_size=energy_batch_size,
                    use_arena=use_arena,
                    result_store=result_store, family=family, **kwargs)
                start = None
                spec = compute_spectrum(structure, basis, num_cells,
                                        energies, num_k=num_k,
                                        obc_method=kwargs["obc_method"],
                                        solver=kwargs["solver"],
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
            save(points)
    finally:
        if owned_runner is not None:
            close_task_runner(owned_runner)
    return ProductionResult(points=points, balancer=balancer)


#: the fields of an ``SCFResult`` a sweep record keeps
_SCF_STATE = ("potential_atom", "density_atom", "residuals", "iterations",
              "converged")


def sweep_record(checkpoint, bias_points, mu_source, e_window, num_k,
                 num_atoms, temperature_k, balancer=None, telemetry=None):
    """Read back the one checkpoint of the SCF loop and the bias sweep.

    Returns ``(points, scf, save)``: the finished :class:`BiasPoint` s
    and the ``SCFResult`` of the point in progress (``[]`` and ``None``
    without a record), and ``save(points, scf=None)``, which rewrites the
    ``"sweep"`` record with them, the balancer's work model and history
    and the ``telemetry`` snapshot.  Resuming restores the balancer and
    the telemetry.  A record resumes only the sweep that wrote it: its
    bias points an exact prefix of ``bias_points``, the other inputs
    (``temperature_k`` among them) equal, else :class:`CheckpointError`,
    as is a record that lacks one of them.
    """
    store = checkpoint if checkpoint is None \
        or isinstance(checkpoint, CheckpointStore) \
        else CheckpointStore(checkpoint)
    inputs = dict(mu_source=float(mu_source),
                  e_window=tuple(float(e) for e in e_window),
                  num_k=int(num_k), num_atoms=int(num_atoms),
                  temperature_k=float(temperature_k))

    def save(points, scf=None):
        if store is None:
            return
        state = dict(inputs,
                     vds=bias_points[:len(points) + (scf is not None)],
                     current=[p.current for p in points],
                     iterations=[p.scf_iterations for p in points],
                     converged=[p.converged for p in points],
                     potentials=np.reshape([p.potential for p in points],
                                           (len(points), num_atoms)))
        if scf is not None:
            state.update({f"scf_{name}": getattr(scf, name)
                          for name in _SCF_STATE})
        if balancer is not None:
            state.update(balancer_work=balancer._work,
                         balancer_history=np.reshape(
                             balancer.history, (-1, balancer._work.size)))
        store.save("sweep", telemetry=None if telemetry is None
                   else telemetry.snapshot(), **state)
        tracer = current_tracer()
        if tracer is not None:
            tracer.instant("checkpoint-saved", category="checkpoint",
                           attrs={"points_done": len(points)})

    if store is None or not store.exists():
        return [], None, save
    state = store.load("sweep")
    missing = [key for key in ("vds", *inputs) if key not in state]
    if missing:
        raise CheckpointError(f"checkpoint {store.path} is not a sweep "
                              f"record: no {', '.join(missing)}")
    vds = state["vds"]
    differ = [key for key, value in inputs.items()
              if not np.array_equal(state[key], value)]
    if vds.size > len(bias_points) \
            or not np.array_equal(vds, bias_points[:vds.size]):
        differ.insert(0, f"bias points {vds.tolist()}")
    if differ:
        raise CheckpointError(f"checkpoint {store.path} is the record of "
                              f"another sweep: {', '.join(differ)} differ")
    if telemetry is not None:
        telemetry.restore(store.last_telemetry)
    points = [BiasPoint(vds=float(v), current=float(i),
                        scf_iterations=int(n), converged=bool(c),
                        potential=p)
              for v, i, n, c, p in zip(
                  vds, state["current"], state["iterations"],
                  state["converged"], state["potentials"])]
    if balancer is not None and "balancer_work" in state:
        balancer._work = state["balancer_work"]
        balancer.history = list(state["balancer_history"])
        balancer._invalidate()
    scf = None
    if "scf_iterations" in state:
        # imported here for the reason run_production imports the loop late
        from repro.poisson.scf import SCFResult
        scf = SCFResult(**{name: state[f"scf_{name}"]
                           for name in _SCF_STATE})
        scf.residuals = list(scf.residuals)
    return points, scf, save
