"""The staged (k, E) transport pipeline.

One energy point of the paper's production flow (Fig. 6) is a fixed
sequence of phases; :class:`TransportPipeline` makes them explicit:

    PREPARE  — materialize k-invariant block data (DeviceCache warm-up)
    OBC      — open boundary conditions: lead modes + Sigma^RB (Eq. 6)
    ASSEMBLE — A(E) = E*S - H and the injection vectors Inj (Eq. 5)
    SOLVE    — (A - Sigma^RB) psi = Inj via a registered solver
    ANALYZE  — transmission/reflection observables from psi

Implementations for OBC and SOLVE come from the
:mod:`repro.pipeline.registry` registries; ``solver="auto"`` is resolved
per point through the :mod:`repro.perfmodel.costmodel` flop models (the
OMEN-style SplitSolve-vs-RGF choice).  Every stage runs under
:func:`repro.pipeline.trace.stage_scope`, so each
:class:`~repro.negf.transmission.EnergyPointResult` carries a
:class:`~repro.pipeline.trace.TaskTrace` whose stage flop counts
reconcile exactly with the surrounding :mod:`repro.linalg.flops` ledger.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.arena import (Workspace, arena_scope, scratch,
                                scratch_release)
from repro.linalg.backend import backend_scope, resolve_backend
from repro.linalg.batched import bucket_by_width
from repro.negf.transmission import EnergyPointResult, analyze_solution
from repro.observability.spans import current_tracer
from repro.pipeline.cache import DeviceCache, as_cache
from repro.pipeline.registry import (AUTO, SOLVERS,
                                     resolve_batch_solver_name,
                                     resolve_solver_name)
from repro.pipeline.trace import TaskTrace, batch_stage_scope, stage_scope
from repro.utils.errors import ConfigurationError
from repro.utils.timing import StageTimer


class TransportPipeline:
    """Configured stage driver for (k, E) transport points.

    Parameters mirror the historical ``qtbm_energy_point`` signature;
    ``obc_method`` and ``solver`` name registry entries (``solver="auto"``
    defers the choice to the cost model, per point).
    """

    def __init__(self, obc_method: str = "feast",
                 solver: str = "splitsolve", num_partitions: int = 1,
                 parallel: bool = False, obc_kwargs: dict | None = None,
                 obc_warm_start: bool = False, use_arena: bool = False,
                 backend=None):
        self.obc_method = obc_method
        self.solver = solver
        self.num_partitions = num_partitions
        self.parallel = parallel
        self.obc_kwargs = dict(obc_kwargs or {})
        #: kernel-backend selector (name, instance, ``"auto"``, or
        #: ``None`` for the ambient default) — resolved per solve via
        #: :func:`repro.linalg.backend.resolve_backend`, so ``"auto"``
        #: re-reads the current node's spec on every call and worker
        #: processes resolve against their own device scope
        self.backend = backend
        #: warm-start the batched OBC stage (FEAST seeded energy-to-energy;
        #: fewer refinement iterations, round-off-level deviations from the
        #: default lock-step mode, which is bitwise == per-energy)
        self.obc_warm_start = bool(obc_warm_start)
        #: route batch-local scratch (Schur stacks, rhs carries, sigma
        #: stacks, staging blocks) through a persistent
        #: :class:`~repro.linalg.arena.Workspace` so steady-state energy
        #: batches reuse buffers instead of reallocating — spectra stay
        #: bitwise identical to the fresh-allocation path
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
        """Run one (k, E) point through all stages.

        ``device`` is a DeviceMatrices or a :class:`DeviceCache`; pass the
        same cache for every energy of a k-point to amortize the PREPARE
        work.  ``boundary`` short-circuits the OBC stage with a
        precomputed :class:`~repro.obc.selfenergy.OpenBoundary` (e.g. when
        comparing solvers at one point).
        """
        with backend_scope(resolve_backend(self.backend)) as bk:
            return self._solve_point_impl(device, energy, bk,
                                          boundary=boundary,
                                          kpoint_index=kpoint_index,
                                          energy_index=energy_index)

    def _solve_point_impl(self, device, energy: float, bk, *,
                          boundary=None, kpoint_index: int = -1,
                          energy_index: int = -1) -> EnergyPointResult:
        cache = as_cache(device)
        trace = TaskTrace(kpoint_index=kpoint_index,
                          energy_index=energy_index, energy=float(energy))
        timer = StageTimer()

        with stage_scope(trace, "PREPARE", timer):
            cache.warm()

        with stage_scope(trace, "OBC", timer) as st:
            if boundary is not None:
                ob = boundary
                st.meta["reused"] = True
            else:
                ob, reused = cache.lookup_boundary(energy, self.obc_method,
                                                   **self.obc_kwargs)
                if reused:
                    st.meta["reused"] = True
            st.meta["method"] = ob.method or self.obc_method
            if ob.modes is None:
                raise ConfigurationError(
                    "QTBM needs lead modes; use a mode-based obc_method")

        with stage_scope(trace, "ASSEMBLE", timer) as st:
            a = cache.a_matrix(energy)
            inj = ob.injection_matrix(cache.num_blocks, cache.block_sizes)
            from_left = np.array([m.from_left for m in ob.injected],
                                 dtype=bool)
            vels = np.array([abs(m.velocity) for m in ob.injected],
                            dtype=float)
            st.meta["num_rhs"] = int(inj.shape[1])

        if inj.shape[1] == 0:
            # no propagating modes at this energy: nothing to solve
            result = EnergyPointResult(
                energy=float(energy), num_prop_left=0, num_prop_right=0,
                transmission_lr=0.0, transmission_rl=0.0,
                reflection_l=0.0, reflection_r=0.0,
                mode_transmissions=np.zeros(0),
                psi=np.zeros((cache.num_orbitals, 0), dtype=complex),
                from_left=from_left, velocities=vels, boundary=ob)
            result.trace = trace
            return result

        with stage_scope(trace, "SOLVE", timer) as st:
            name = resolve_solver_name(
                self.solver, num_blocks=cache.num_blocks,
                block_size=int(max(cache.block_sizes)),
                num_rhs=int(inj.shape[1]),
                num_partitions=self.num_partitions,
                **self._pricing_widths(cache))
            st.meta["solver"] = name
            st.meta["backend"] = bk.name
            st.meta["precision"] = bk.capabilities.precision
            info: dict = {}
            psi = SOLVERS.get(name)(
                a, ob, inj, num_partitions=self.num_partitions,
                parallel=self.parallel, info=info)
            st.meta.update(info)

        with stage_scope(trace, "ANALYZE", timer):
            result = analyze_solution(cache, ob, psi, from_left, vels)

        result.trace = trace
        return result

    def solve_batch(self, device, energies, *, kpoint_index: int = -1,
                    energy_indices=None, obc_subspace_guess=None) -> list:
        """Run one (k, E-batch) task: all stages for a whole energy vector.

        The batched counterpart of :meth:`solve_point`: the OBC stage
        solves the whole batch at once (stacked FEAST contour
        factorizations / masked decimation stacks via
        :meth:`DeviceCache.boundary_batch`; bitwise identical to the
        per-energy path unless ``obc_warm_start``), ASSEMBLE builds the
        stacked ``A(E) = E*S - H`` in one pass, and SOLVE runs the
        batched RGF sweeps (:func:`repro.solvers.solve_rgf_batched`)
        once per rhs-width bucket — one Python/BLAS dispatch per block
        for the whole batch.  Energies are bucketed by injection width
        (:func:`repro.linalg.bucket_by_width`) so ragged mode counts
        never force padding.

        One :class:`~repro.pipeline.TaskTrace` is emitted *per energy*;
        batched stages carve their wall time and flops out of the batch
        totals (exact integer apportionment — ledger reconciliation
        holds, see :func:`~repro.pipeline.trace.batch_stage_scope`; the
        OBC stage weighs energies by solver iteration counts).  Explicit
        ``solver`` names run each bucket through the batched RGF kernels
        — the one batched solver implementation — while ``"auto"``
        prices each bucket through
        :func:`~repro.perfmodel.costmodel.choose_batch_solver` and may
        run it as per-energy SplitSolve instead; a single-energy batch
        degenerates to the per-point path (:meth:`solve_point`) exactly.

        ``obc_subspace_guess`` seeds the first energy of a warm-started
        FEAST sweep (e.g. a cached near-neighbour subspace from the
        persistent result store); ignored unless ``obc_warm_start``.

        Returns one :class:`EnergyPointResult` per energy, input order.
        """
        cache = as_cache(device)
        energies = [float(e) for e in energies]
        if not energies:
            raise ConfigurationError("solve_batch needs at least one energy")
        if energy_indices is None:
            energy_indices = list(range(len(energies)))
        if len(energy_indices) != len(energies):
            raise ConfigurationError(
                "energy_indices must match energies one-to-one")
        if not self.obc_warm_start:
            obc_subspace_guess = None
        if len(energies) == 1 and obc_subspace_guess is None:
            return [self.solve_point(cache, energies[0],
                                     kpoint_index=kpoint_index,
                                     energy_index=int(energy_indices[0]))]
        if self._workspace is None:
            return self._solve_batch_impl(cache, energies, kpoint_index,
                                          energy_indices,
                                          obc_subspace_guess)
        with arena_scope(self._workspace):
            try:
                return self._solve_batch_impl(cache, energies,
                                              kpoint_index, energy_indices,
                                              obc_subspace_guess)
            finally:
                self._emit_arena_stats()

    def _solve_batch_impl(self, cache, energies, kpoint_index,
                          energy_indices, obc_subspace_guess=None) -> list:
        with backend_scope(resolve_backend(self.backend)) as bk:
            return self._solve_batch_stages(cache, energies, kpoint_index,
                                            energy_indices, bk,
                                            obc_subspace_guess)

    def _solve_batch_stages(self, cache, energies, kpoint_index,
                            energy_indices, bk,
                            obc_subspace_guess=None) -> list:
        ne = len(energies)
        traces = [TaskTrace(kpoint_index=kpoint_index,
                            energy_index=int(ie), energy=e)
                  for ie, e in zip(energy_indices, energies)]

        with batch_stage_scope(traces, "PREPARE") as sts:
            cache.warm()
            for st in sts:
                st.meta["batch_size"] = ne

        # OBC: one batched computation for the whole energy batch — stacked
        # contour factorizations (FEAST) or masked recursion stacks
        # (decimation); methods without a batch implementation loop
        # per-energy inside the same scope.  Per-energy stage traces are
        # carved from the batch totals by solver iteration counts
        # (post-hoc weights; exact flop apportionment).  A memo hit is a
        # stage with nothing solved: weight 0, so the batch's flops and
        # seconds go to the energies that were solved, and no predicted
        # bytes next to its 0 measured ones.
        tracer = current_tracer()
        with batch_stage_scope(traces, "OBC") as sts:
            obs, reused = cache.lookup_boundary_batch(
                energies, self.obc_method,
                warm_start=self.obc_warm_start,
                subspace_guess=obc_subspace_guess, **self.obc_kwargs)
            for ob, hit, st in zip(obs, reused, sts):
                st.meta["method"] = ob.method or self.obc_method
                st.meta["batch_size"] = ne
                st.meta["backend"] = bk.name
                st.meta["precision"] = bk.capabilities.precision
                if hit:
                    st.meta["reused"] = True
                st.meta["weight"] = 0.0 if hit \
                    else float(ob.info.get("iterations", 1))
                if ("predicted_bytes" in ob.info and not hit
                        and bk.capabilities.deterministic):
                    # byte models transcribe the reference kernels, so
                    # the drift verdict only applies when the backend
                    # records reference traffic
                    st.meta["predicted_bytes"] = int(
                        ob.info["predicted_bytes"])
                if tracer is not None:
                    tracer.metrics.histogram("obc_iterations").observe(
                        int(ob.info.get("iterations", 1)))
                if self.obc_warm_start:
                    st.meta["warm_start"] = True
                if ob.modes is None:
                    raise ConfigurationError(
                        "QTBM needs lead modes; use a mode-based "
                        "obc_method")

        injs, from_lefts, velss = [], [], []
        with batch_stage_scope(traces, "ASSEMBLE") as sts:
            a_batch = cache.a_matrix_batch(energies)
            for ob, st in zip(obs, sts):
                inj = ob.injection_matrix(cache.num_blocks,
                                          cache.block_sizes)
                injs.append(inj)
                from_lefts.append(np.array(
                    [m.from_left for m in ob.injected], dtype=bool))
                velss.append(np.array(
                    [abs(m.velocity) for m in ob.injected], dtype=float))
                st.meta["num_rhs"] = int(inj.shape[1])
                st.meta["batch_size"] = ne

        # SOLVE: one stacked RGF per rhs-width bucket (no padding), unless
        # "auto" prices the bucket onto per-energy SplitSolve (the
        # accelerator path of the paper's division of labour).
        psis = [None] * ne
        buckets = bucket_by_width([inj.shape[1] for inj in injs])
        for width, pos in buckets.items():
            if width == 0:
                continue   # no propagating modes: nothing to solve
            if tracer is not None:
                tracer.metrics.histogram("rhs_bucket_width").observe(
                    int(width))
                tracer.metrics.histogram("rhs_bucket_size").observe(
                    len(pos))
            name = resolve_batch_solver_name(
                self.solver, num_blocks=cache.num_blocks,
                block_size=int(max(cache.block_sizes)),
                rhs_widths=[width] * len(pos),
                num_partitions=self.num_partitions,
                **self._pricing_widths(cache))
            with batch_stage_scope([traces[j] for j in pos],
                                   "SOLVE") as sts:
                if name == "rgf_batched":
                    from repro.solvers import (assemble_t_batched,
                                               solve_rgf_batched)
                    sub = a_batch.take(pos)
                    # Sigma and rhs stacks are workspace scratch:
                    # np.stack(out=) fills the reused buffers with the
                    # identical bits a fresh np.stack would produce.
                    nsub = len(pos)
                    s1 = cache.block_sizes[0]
                    s2 = cache.block_sizes[-1]
                    sigma_l = scratch((nsub, s1, s1), complex,
                                      tag="pipeline.sigma")
                    np.stack([obs[j].sigma_l for j in pos], out=sigma_l)
                    sigma_r = scratch((nsub, s2, s2), complex,
                                      tag="pipeline.sigma")
                    np.stack([obs[j].sigma_r for j in pos], out=sigma_r)
                    t_batch = assemble_t_batched(sub, sigma_l, sigma_r)
                    scratch_release(sigma_l, sigma_r)
                    rhs = scratch((nsub, cache.num_orbitals, width),
                                  complex, tag="pipeline.rhs")
                    np.stack([injs[j] for j in pos], out=rhs)
                    x = solve_rgf_batched(t_batch, rhs)
                    scratch_release(rhs)
                    # the assembled corner stacks were checked out by
                    # assemble_t_batched; the solve consumed them
                    scratch_release(t_batch.diag[0])
                    if len(t_batch.diag) > 1:
                        scratch_release(t_batch.diag[-1])
                else:
                    solver_fn = SOLVERS.get(name)
                    x = []
                    for j in pos:
                        info: dict = {}
                        x.append(solver_fn(
                            a_batch.point(j), obs[j], injs[j],
                            num_partitions=self.num_partitions,
                            parallel=self.parallel, info=info))
                predicted = self._predicted_solve_bytes(
                    cache, name, width, self.num_partitions) \
                    if bk.capabilities.deterministic else None
                for st in sts:
                    st.meta.update(solver=name,
                                   bucket_size=len(pos), num_rhs=width,
                                   backend=bk.name,
                                   precision=bk.capabilities.precision)
                    if predicted is not None:
                        st.meta["predicted_bytes"] = int(predicted)
            for slot, j in enumerate(pos):
                psis[j] = x[slot]

        results = []
        for j, (tr, ob) in enumerate(zip(traces, obs)):
            if psis[j] is None:
                result = EnergyPointResult(
                    energy=energies[j], num_prop_left=0, num_prop_right=0,
                    transmission_lr=0.0, transmission_rl=0.0,
                    reflection_l=0.0, reflection_r=0.0,
                    mode_transmissions=np.zeros(0),
                    psi=np.zeros((cache.num_orbitals, 0), dtype=complex),
                    from_left=from_lefts[j], velocities=velss[j],
                    boundary=ob)
            else:
                with stage_scope(tr, "ANALYZE"):
                    result = analyze_solution(cache, ob, psis[j],
                                              from_lefts[j], velss[j])
            result.trace = tr
            results.append(result)
        return results

    def _pricing_widths(self, cache) -> dict:
        """The coupling and boundary support widths ``"auto"`` prices
        SplitSolve with (keywords of the cost models); an explicit
        solver name prices nothing, so it does not make the cache work
        out its supports either."""
        if self.solver != AUTO:
            return {}
        return self._support_widths(cache)

    @staticmethod
    def _support_widths(cache) -> dict:
        return dict(
            coupling_widths=cache.structure().support.widths(),
            boundary_widths=tuple(len(r) for r in cache.boundary_support()))

    @staticmethod
    def _predicted_solve_bytes(cache, solver_name: str, width: int,
                               num_partitions: int = 1):
        """Model-predicted kernel bytes of one energy's SOLVE stage.

        Exact for the batched RGF path (the byte model transcribes the
        kernel sequence, per-block sizes included); the SplitSolve model
        prices ``num_partitions`` partitions of uniform blocks with
        uniform coupling supports, so non-uniform devices carry a
        documented tolerance.  Returns ``None`` for solvers without a
        byte model.
        """
        try:
            from repro.perfmodel.bytemodel import (rgf_byte_model,
                                                   splitsolve_byte_model)
            if solver_name == "rgf_batched" or solver_name == "rgf":
                return rgf_byte_model(cache.num_blocks,
                                      cache.block_sizes, int(width))
            if solver_name == "splitsolve":
                return splitsolve_byte_model(
                    cache.num_blocks, int(max(cache.block_sizes)),
                    int(width), num_partitions=num_partitions,
                    **TransportPipeline._support_widths(cache))
        except Exception:
            return None
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
