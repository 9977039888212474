"""The production simulation loop (paper Sections 4/5B).

"An entire simulation involves roughly 40-50 iterations for 10 bias
points ... each point/iteration is processed sequentially, one after the
other, and the workload is dynamically redistributed after each step."

This driver runs that outer loop at laptop scale: for each bias point a
self-consistent Schroedinger-Poisson solve, the Landauer current at the
converged potential, and the dynamic load-balancer feedback that OMEN
applies between iterations (recorded here once per bias point, from the
measured per-k wall times of its final spectrum, so the distribution
logic runs on real data).  One checkpoint record (:func:`sweep_record`),
rewritten after every SCF iteration, resumes a killed sweep at the next
SCF iteration of its bias point.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.core.energygrid import FINAL_GRID, adaptive_energy_grid
from repro.core.runner import compute_spectrum
from repro.observability.spans import current_tracer
from repro.parallel.backend import task_runner_scope
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
    scf_kwargs : the options of
        :func:`repro.poisson.scf.schroedinger_poisson`, its transport's
        ``obc_method`` / ``solver`` among them; a ``temperature_k`` in
        it must equal the sweep's.
    temperature_k : the electron temperature (K) of the SCF loop's
        charge and of each point's current.
    task_runner, backend, num_workers, energy_batch_size, use_arena,
    result_store : forwarded to
        :func:`repro.core.runner.compute_spectrum` by every transport
        solve of the sweep; a ``backend`` runner is built once for the
        sweep.  The runner's ``telemetry``, when it keeps one, is
        checkpointed with the sweep.
    checkpoint : path or :class:`repro.runtime.CheckpointStore`, optional
        The sweep's record (:func:`sweep_record`), rewritten after
        every SCF iteration and every finished bias point, and resumed
        from when it exists: finished points and the balancer are
        restored and the point in progress continues at its next SCF
        iteration, bitwise as the uninterrupted sweep.

    Notes
    -----
    Bias points run one after the other (as in OMEN), and the load
    balancer learns per-k costs across points: it is fed once per bias
    point, from the measured per-k time of the final spectrum.  One
    transport callable (:func:`sweep_transport`) solves every SCF
    iteration and every point's final spectrum, so a point's current
    comes from the method its potential converged with.  Every point's
    SCF starts from a zero potential; seeding it from the previous
    point's converged potential (bias continuation) is ROADMAP item 3a.
    """
    # imported here: repro.poisson.scf imports repro.core, whose package
    # init imports this module
    from repro.poisson.scf import _scf_loop

    bias_points = [float(v) for v in bias_points]
    if not bias_points:
        raise ConfigurationError("need at least one bias point")
    # The contacts are potential-frozen, so the devices' potential-free
    # part and every lead's Sigma^RB(E) are the same in all SCF
    # iterations, final spectra and bias points: one family for the sweep.
    family = DeviceFamily(structure, basis, num_cells, num_k)
    energies = adaptive_energy_grid(family.gamma_device().lead, e_window[0],
                                    e_window[1], **FINAL_GRID)
    balancer = None
    if num_nodes is not None:
        balancer = DynamicLoadBalancer(
            num_nodes, [len(energies)] * len(family.kgrid), smoothing=0.5)

    with task_runner_scope(task_runner, backend, num_workers) as runner:
        spectrum, loop = sweep_transport(
            family, scf_kwargs or {}, task_runner=runner,
            energy_batch_size=energy_batch_size, use_arena=use_arena,
            result_store=result_store)
        # the charge of every SCF iteration is integrated at the
        # temperature the sweep's currents are
        if loop.setdefault("temperature_k", temperature_k) \
                != temperature_k:
            raise ConfigurationError(
                f"scf_kwargs temperature_k={loop['temperature_k']} "
                f"differs from the sweep's temperature_k={temperature_k}")
        points, start, save = sweep_record(
            checkpoint, bias_points, mu_source, e_window, num_k,
            structure.num_atoms, temperature_k, balancer=balancer,
            telemetry=getattr(runner, "telemetry", None))
        for vds in bias_points[len(points):]:
            tracer = current_tracer()
            scope = tracer.span(f"bias Vds={vds:+.3f}V", category="bias",
                                vds=vds) if tracer is not None \
                else nullcontext()
            with scope:
                scf = _scf_loop(start, lambda state: save(points, state),
                                spectrum, mu_l=mu_source,
                                mu_r=mu_source - vds, e_window=e_window,
                                **loop)
                start = None
                spec = spectrum(energies, potential=scf.potential_atom)
                current = spec.current(mu_source, mu_source - vds,
                                       temperature_k)
            points.append(BiasPoint(vds=vds, current=current,
                                    scf_iterations=scf.iterations,
                                    converged=scf.converged,
                                    potential=scf.potential_atom))
            if balancer is not None:
                # feed back the *measured* per-k wall times of this bias
                # point's final spectrum, falling back to the
                # energy-count proxy only when every point was a store
                # hit; the floor keeps a k with no fresh solve positive
                per_k = spec.measured_time_per_k()
                if not per_k.any():
                    per_k = np.full(per_k.shape, float(len(energies)))
                dist = balancer.current_distribution()
                balancer.record_iteration(np.maximum(per_k, 1e-9)
                                          / dist.nodes_per_k)
            save(points)
    return ProductionResult(points=points, balancer=balancer)


#: the transport keywords a sweep's options may carry
_TRANSPORT = ("obc_method", "solver", "energy_batch_size", "use_arena",
              "result_store")


def sweep_transport(family, options: dict, **transport):
    """Split a sweep's ``options`` into its transport and its SCF loop.

    Returns ``(spectrum, loop_options)``.  ``spectrum(energies,
    potential=...)`` is :func:`repro.core.runner.compute_spectrum` bound
    to ``family`` and to the sweep's transport keywords: ``transport``
    and those ``options`` holds (``obc_method``, ``solver``,
    ``energy_batch_size``, ``use_arena``, ``result_store``); a sweep runs
    the dense OBC and RGF unless told otherwise.  Every SCF iteration
    and every final spectrum of the sweep is one call of it.
    """
    loop = dict(options)
    chosen = {key: loop.pop(key) for key in _TRANSPORT if key in loop}
    spectrum = partial(compute_spectrum, family.structure, family.basis,
                       family.num_cells, num_k=family.num_k, family=family,
                       **(dict(obc_method="dense", solver="rgf") | chosen),
                       **transport)
    return spectrum, loop


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
