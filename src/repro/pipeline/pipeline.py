"""The staged (k, E) transport pipeline.

One energy point of the paper's production flow (Fig. 6) is a fixed
sequence of phases; :class:`TransportPipeline` makes them explicit:

    PREPARE  — materialize k-invariant block data (DeviceCache warm-up)
    OBC      — open boundary conditions: lead modes + Sigma^RB (Eq. 6)
    ASSEMBLE — A(E) = E*S - H and the injection vectors Inj (Eq. 5)
    SOLVE    — (A - Sigma^RB) psi = Inj via a registered solver
    ANALYZE  — transmission/reflection observables from psi

There is one driver for one energy or a whole energy batch of a k-point
(:meth:`TransportPipeline.solve_batch`; :meth:`~TransportPipeline.solve_point`
is its one-energy spelling).  Implementations for OBC and SOLVE come
from the :mod:`repro.pipeline.registry` registries, and SOLVE is one
registry call per energy on every path; ``solver="auto"`` is resolved
from each energy's injection width through the
:mod:`repro.perfmodel.costmodel` flop models (the OMEN-style
SplitSolve-vs-RGF choice).  Every stage runs under
:func:`repro.pipeline.trace.stage_scope`: under a tracer each stage is
one ``category="stage"`` span whose flop counts reconcile exactly with
the surrounding :mod:`repro.linalg.flops` ledger, and each
:class:`~repro.negf.transmission.EnergyPointResult` carries its share
of the wall time in ``seconds``.
"""

from __future__ import annotations

import time
from contextlib import ExitStack

import numpy as np

from repro.linalg.arena import Workspace, arena_scope
from repro.negf.transmission import EnergyPointResult, analyze_solution
from repro.observability.spans import current_tracer
from repro.perfmodel import costmodel
from repro.pipeline.cache import DeviceCache, as_cache
from repro.pipeline.registry import AUTO, SOLVERS, resolve_solver_name
from repro.pipeline.trace import stage_scope
from repro.utils.errors import ConfigurationError, SingularMatrixError


class TransportPipeline:
    """Configured stage driver for (k, E) transport points.

    Parameters mirror the historical ``qtbm_energy_point`` signature;
    ``obc_method`` and ``solver`` name registry entries (``solver="auto"``
    defers the choice to the cost model, per point).
    """

    def __init__(self, obc_method: str = "feast",
                 solver: str = "splitsolve", num_partitions: int = 1,
                 obc_kwargs: dict | None = None, use_arena: bool = False):
        self.obc_method = obc_method
        self.solver = solver
        self.num_partitions = num_partitions
        self.obc_kwargs = dict(obc_kwargs or {})
        #: run every batch under a persistent
        #: :class:`~repro.linalg.arena.Workspace`: spectra stay bitwise
        #: identical to the fresh-allocation path, and SOLVE, one solver
        #: call per energy, pools nothing in it
        self.use_arena = bool(use_arena)
        self._workspace = Workspace(name="pipeline") if self.use_arena \
            else None

    @property
    def workspace(self) -> Workspace | None:
        """The pipeline's buffer arena (``None`` unless ``use_arena``)."""
        return self._workspace

    def cache(self, device) -> DeviceCache:
        """A per-k cache for ``device`` (reuse it across energies)."""
        return as_cache(device)

    def solve_point(self, device, energy: float, *,
                    boundary=None, kpoint_index: int = -1,
                    energy_index: int = -1) -> EnergyPointResult:
        """Run one (k, E) point through all stages: :meth:`solve_batch`
        with one energy.

        ``boundary`` short-circuits the OBC stage with a precomputed
        :class:`~repro.obc.selfenergy.OpenBoundary` (e.g. when comparing
        solvers at one point).
        """
        return self._run_stages(
            device, [energy], kpoint_index, [energy_index],
            None if boundary is None else [boundary])[0]

    def solve_batch(self, device, energies, *, kpoint_index: int = -1,
                    energy_indices=None) -> list:
        """Run one (k, E-batch) task: all stages for an energy vector.

        ``device`` is a DeviceMatrices or a :class:`DeviceCache`; pass the
        same cache for every energy of a k-point to amortize the PREPARE
        work.  The OBC stage is a loop: each energy's boundary is looked
        up (and, on a miss, solved) on its own through
        :meth:`DeviceCache.lookup_boundary`.  ASSEMBLE builds the
        stacked ``A(E) = E*S - H`` in one pass, and SOLVE is one registry
        call per energy: each energy with a non-zero injection width runs
        through the solver
        :func:`~repro.pipeline.registry.resolve_solver_name` returns for
        that width, on that energy's slice of the stack.  All of it is
        bitwise the one-energy run, energy for energy.

        OBC, SOLVE and ANALYZE are one stage span per energy; PREPARE
        and ASSEMBLE, which run once for the batch, are one span that
        names all its energies (see
        :func:`~repro.pipeline.trace.stage_scope`).

        Returns one :class:`EnergyPointResult` per energy, input order,
        each carrying the batch's wall time split equally in
        ``seconds``.
        """
        energies = list(energies)
        if energy_indices is None:
            energy_indices = range(len(energies))
        return self._run_stages(device, energies, kpoint_index,
                                list(energy_indices))

    def _run_stages(self, device, energies, kpoint_index, energy_indices,
                    boundaries=None) -> list:
        """The one transcription of PREPARE -> OBC -> ASSEMBLE -> SOLVE ->
        ANALYZE.  ``boundaries``, one per energy, take the place of the
        OBC lookup."""
        cache = as_cache(device)
        energies = [float(e) for e in energies]
        if not energies:
            raise ConfigurationError("solve_batch needs at least one energy")
        if len(energy_indices) != len(energies):
            raise ConfigurationError(
                "energy_indices must match energies one-to-one")
        ne = len(energies)
        tracer = current_tracer()
        t0 = time.perf_counter()

        with ExitStack() as scopes:
            if self._workspace is not None:
                scopes.enter_context(arena_scope(self._workspace))
                scopes.callback(self._emit_arena_stats)

            with stage_scope("PREPARE", kpoint_index, energy_indices):
                cache.warm()

            # OBC: one scope per energy around that energy's lookup, so
            # its span reads what that boundary cost.  A boundary the
            # memo (or the caller) already held is a stage that solved
            # nothing: no predicted bytes next to its 0 measured ones.
            obs = []
            for j, (e, ie) in enumerate(zip(energies, energy_indices)):
                with stage_scope("OBC", kpoint_index, [ie]) as notes:
                    if boundaries is not None:
                        ob, hit = boundaries[j], True
                    else:
                        ob, hit = cache.lookup_boundary(
                            e, self.obc_method, **self.obc_kwargs)
                    notes["method"] = ob.method or self.obc_method
                    if hit:
                        notes["reused"] = True
                    elif "predicted_bytes" in ob.info:
                        notes["predicted_bytes"] = int(
                            ob.info["predicted_bytes"])
                    if tracer is not None:
                        tracer.metrics.histogram("obc_iterations").observe(
                            int(ob.info.get("iterations", 1)))
                    if ob.modes is None:
                        raise ConfigurationError(
                            "QTBM needs lead modes; use a mode-based "
                            "obc_method")
                obs.append(ob)

            with stage_scope("ASSEMBLE", kpoint_index,
                             energy_indices) as notes:
                a_batch = cache.a_matrix_batch(energies)
                injs = [ob.injection_matrix(cache.num_blocks,
                                            cache.block_sizes)
                        for ob in obs]
                notes["num_rhs"] = [int(inj.shape[1]) for inj in injs]

            # SOLVE: one registry call, one scope and one span per
            # energy; a point with no propagating modes solves nothing.
            psis = [None] * ne
            for j, (ie, ob, inj) in enumerate(zip(energy_indices, obs,
                                                   injs)):
                width = int(inj.shape[1])
                if width == 0:
                    continue
                name = resolve_solver_name(
                    self.solver, num_blocks=cache.num_blocks,
                    block_size=int(max(cache.block_sizes)),
                    num_rhs=width, num_partitions=self.num_partitions,
                    **self._pricing_widths(cache))
                # priced only for the span that carries it
                predicted = None if tracer is None else \
                    self._predicted_solve_bytes(cache, name, width,
                                                self.num_partitions)
                where = f"solver {name!r} at E = {energies[j]}"
                with stage_scope("SOLVE", kpoint_index, [ie]) as notes:
                    try:
                        x = SOLVERS.get(name)(
                            a_batch.point(j), ob, inj,
                            num_partitions=self.num_partitions, info=notes)
                    except SingularMatrixError as exc:
                        raise SingularMatrixError(f"{where}: {exc}") from exc
                    notes.update(solver=name, num_rhs=width)
                    if predicted:
                        notes["predicted_bytes"] = int(predicted)
                # rgf / bcr factor with check_finite=False: a NaN in
                # A(E) may come back as a NaN psi, not an error
                if not np.isfinite(x).all():
                    raise SingularMatrixError(
                        f"{where} returned a non-finite wavefunction: "
                        "A(E) - Sigma is singular or not finite")
                psis[j] = x

            results = []
            for j, (ie, ob) in enumerate(zip(energy_indices, obs)):
                if psis[j] is None:     # nothing solved, nothing to time
                    result = analyze_solution(
                        cache, ob, np.zeros((cache.num_orbitals, 0),
                                            dtype=complex),
                        ob.from_left, ob.injected_flux)
                else:
                    with stage_scope("ANALYZE", kpoint_index, [ie]):
                        result = analyze_solution(
                            cache, ob, psis[j], ob.from_left,
                            ob.injected_flux)
                results.append(result)
        seconds = (time.perf_counter() - t0) / ne
        for result in results:
            result.seconds = seconds
        return results

    def _pricing_widths(self, cache) -> dict:
        """The coupling and boundary support widths and the dtype of
        A(E) that ``"auto"`` prices SplitSolve with (keywords of the
        cost models); an explicit solver name prices nothing, so it does
        not make the cache work out its supports either."""
        if self.solver != AUTO:
            return {}
        return self._splitsolve_pricing(cache)

    @staticmethod
    def _splitsolve_pricing(cache) -> dict:
        return dict(
            coupling_widths=cache.structure().support.widths(),
            boundary_widths=tuple(len(r) for r in cache.boundary_support()),
            is_complex=cache.is_complex())

    @staticmethod
    def _predicted_solve_bytes(cache, solver_name: str, width: int,
                               num_partitions: int = 1):
        """Model-predicted kernel bytes of one energy's SOLVE stage.

        Exact for RGF (the solver's kernel sequence on the true
        per-block sizes and coupling supports; it folds Sigma into its
        corner blocks and is complex whatever A(E) is); the SplitSolve
        model prices ``num_partitions`` partitions of uniform blocks
        with uniform coupling supports in the dtype of A(E), so
        non-uniform devices carry a documented tolerance.  Returns
        ``None`` for solvers without a byte model and for shapes the
        model cannot price.
        """
        if solver_name == "rgf":
            return costmodel.kernel_bytes(costmodel.rgf_kernels(
                cache.block_sizes, int(width),
                cache.structure().support.block_widths()))
        if solver_name == "splitsolve":
            try:
                return costmodel.splitsolve_byte_model(
                    cache.num_blocks, int(max(cache.block_sizes)),
                    int(width), num_partitions=num_partitions,
                    **TransportPipeline._splitsolve_pricing(cache))
            except ConfigurationError:
                return None   # fewer than 2 blocks
        return None

    def _emit_arena_stats(self) -> None:
        """Publish the workspace allocation counters after one batch."""
        tracer = current_tracer()
        ws = self._workspace
        if ws is None or tracer is None:
            return
        s = ws.stats()
        tracer.instant("arena", category="memory", attrs=s)
        m = tracer.metrics
        m.gauge("arena_fresh").set(s["fresh"])
        m.gauge("arena_reuses").set(s["reuses"])
        m.gauge("arena_reuse_rate").set(s["reuse_rate"])
        m.gauge("arena_bytes_pooled").set(s["bytes_pooled"])
        m.gauge("arena_outstanding").set(s["outstanding"])
