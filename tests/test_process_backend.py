"""Tests for the multi-process backend: parity, telemetry merge, labels.

The acceptance bar of the distributed backend: ``backend="process"``
must produce bit-identical spectra to the serial/thread paths on the
same inputs, its merged :class:`~repro.runtime.RunTelemetry` must
reconcile exactly against the parent flop ledger, and task ``i`` must
carry the label ``node{i % n}`` the thread runner gives it - a label
that names one worker process, which solves the same units, and so the
same boundaries, as a serial run would.
"""

import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import fields
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.runner import SpectrumUnitSpec, compute_spectrum
from repro.linalg import gemm, ledger_scope
from repro.linalg.flops import current_device
from repro.observability.report import phase_totals, reconcile
from repro.observability.spans import SpanTracer, tracing
from repro.pipeline import STAGES
from repro.parallel import (
    ProcessTaskRunner,
    TaskDescriptor,
    ThreadTaskRunner,
    close_task_runner,
    descriptor_of,
    make_task_runner,
    task_runner_scope,
)
from repro.structure import linear_chain
from repro.utils.errors import ConfigurationError, TaskExecutionError
from tests.test_hamiltonian import single_s_basis
from tests.helpers import stage_flops, stage_spans


ENERGIES = [-0.55, -0.45, -0.35, -0.25]


def _spectrum(obc_method="dense", solver="rgf", **kwargs):
    return compute_spectrum(linear_chain(6, 0.25), single_s_basis(), 6,
                            ENERGIES, obc_method=obc_method, solver=solver,
                            **kwargs)


def _square(x):
    """Module-level worker task (pickled by reference)."""
    a = np.full((4, 4), float(x))
    return float(gemm(a, a)[0, 0])


def _boom():
    raise ValueError("injected worker-side failure")


def _killed_mid_unit(x):
    """Does some of its work, then dies the way an OOM kill would."""
    _square(x)
    os.kill(os.getpid(), signal.SIGKILL)


def _flaky_square(x, sentinel):
    """Fails on the first call per sentinel path, succeeds after.

    The failing attempt burns real gemm flops first, so the tests can
    assert that wasted work never reaches the merged ledger.
    """
    import os

    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("first attempt")
        _square(x)  # flops that must NOT reach the merged ledger
        raise RuntimeError("transient injected failure")
    return _square(x)


def _descriptor_task(fn, *args):
    """A task closure carrying its picklable TaskDescriptor twin."""
    desc = TaskDescriptor(fn=fn, args=args)

    def task():
        return desc.run()

    task.descriptor = desc
    return task


@pytest.fixture(autouse=True)
def no_fork_from_a_threaded_parent(recwarn):
    """Python >= 3.12 warns when it forks a process that runs threads.
    ``os.fork`` drops the warning when a filter makes it an error, so it
    is recorded here and fails the test instead."""
    yield
    forks = [w for w in recwarn
             if "is multi-threaded, use of fork()" in str(w.message)]
    assert not forks, forks[0].message


@pytest.fixture(scope="module")
def reference_spectrum():
    return _spectrum()


class TestParity:
    def test_bit_identical_to_serial(self, reference_spectrum):
        proc = _spectrum(backend="process", num_workers=2,
                         energy_batch_size=2)
        assert np.array_equal(reference_spectrum.transmission,
                              proc.transmission)
        assert np.array_equal(reference_spectrum.mode_counts,
                              proc.mode_counts)

    def test_bit_identical_to_thread_runner(self, reference_spectrum):
        runner = ThreadTaskRunner(2)
        thr = _spectrum(task_runner=runner, energy_batch_size=2)
        proc = _spectrum(backend="process", num_workers=2,
                         energy_batch_size=2)
        assert np.array_equal(thr.transmission, proc.transmission)
        assert np.array_equal(reference_spectrum.transmission,
                              thr.transmission)

    def test_results_and_traces_complete(self):
        proc = _spectrum(backend="process", num_workers=2)
        assert len(proc.results) == len(ENERGIES)
        # every point's solve time came home from its worker
        assert proc.seconds.shape == (1, len(ENERGIES))
        assert np.all(proc.seconds > 0)
        assert proc.measured_time_per_k().shape == (1,)

    def test_telemetry_reconciles_with_parent_ledger(self):
        with tracing() as tracer, ledger_scope() as led:
            proc = _spectrum(backend="process", num_workers=2,
                             energy_batch_size=2)
        assert led.total_flops > 0
        assert proc.telemetry is not None
        assert stage_flops(tracer) == led.total_flops
        # worker flops arrive attributed to their logical node
        assert sum(led.flops_on(f"node{i}") for i in range(2)) \
            == led.total_flops

    @pytest.mark.parametrize("methods", [("dense", "rgf"),
                                         ("feast", "splitsolve")])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_stage_table_is_one(self, backend, batch, methods):
        """The spans a run emits are its one stage table, worker spans
        included: every energy passes OBC once, each SOLVE names its
        solver and carries its byte prediction, and the table
        reconciles exactly against the ledger."""
        with tracing() as tracer:
            with ledger_scope() as led:
                _spectrum(*methods, backend=backend, num_workers=2,
                          energy_batch_size=batch)
        assert led.total_flops > 0
        spans = tracer.records()
        table = phase_totals(spans)
        assert set(table) == set(STAGES)
        assert table["OBC"]["count"] == len(ENERGIES)
        assert table["PREPARE"]["count"] == -(-len(ENERGIES) // batch)
        for sp in stage_spans(spans, "SOLVE"):
            assert sp.attrs["solver"] == methods[1]
            assert sp.attrs["num_rhs"] > 0
        assert table["SOLVE"]["predicted_bytes"] > 0
        check = reconcile(spans, led.total_flops, led.total_bytes)
        assert check["flops_exact"] and check["bytes_exact"], check

    def test_worker_spans_absorbed_into_parent_tracer(self):
        tracer = SpanTracer()
        with tracing(tracer):
            _spectrum(backend="process", num_workers=2)
        spans = tracer.records()
        workers = {sp.worker for sp in spans if sp.category == "task"}
        assert workers <= {"node0", "node1"}
        assert len(workers) >= 1
        assert any(sp.category == "stage" for sp in spans)


def _assert_same_solution(got, want):
    """Every field but the boundary and the solve's wall seconds (they
    differ run to run) bitwise equal."""
    assert len(got) == len(want) > 0
    for g, w in zip(got, want):
        for f in fields(w):
            if f.name in ("boundary", "seconds"):
                continue
            a, b = np.asarray(getattr(g, f.name)), \
                np.asarray(getattr(w, f.name))
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


class TestPickledResult:
    """A result comes home from a worker without its boundary (the
    boundary stays in the worker's memo); everything else is bitwise."""

    def test_pickle_drops_the_boundary_only(self, reference_spectrum):
        res = reference_spectrum.results[1]
        assert res.boundary is not None and res.seconds > 0
        blob = pickle.dumps(res)
        back = pickle.loads(blob)
        assert back.boundary is None
        assert res.boundary is not None      # the original keeps it
        _assert_same_solution([back], [res])
        assert back.seconds == res.seconds
        assert len(blob) <= res.psi.nbytes + 4096

    def test_process_spectrum_is_bitwise_without_boundaries(
            self, reference_spectrum):
        proc = _spectrum(backend="process", num_workers=2,
                         energy_batch_size=2)
        assert all(r.boundary is None for r in proc.results)
        _assert_same_solution(proc.results, reference_spectrum.results)

    def test_process_scf_is_bitwise_without_boundaries(self, monkeypatch):
        from repro.core import runner as runner_mod
        from repro.core.production import run_production

        seen = []
        absorb = runner_mod._absorb_unit

        def recording(unit, outputs, *rest):
            seen.extend(outputs)
            absorb(unit, outputs, *rest)
        monkeypatch.setattr(runner_mod, "_absorb_unit", recording)

        def sweep(**kwargs):
            seen.clear()
            out = run_production(linear_chain(8, 0.25), single_s_basis(),
                                 8, [0.1], mu_source=-0.6,
                                 e_window=(-1.8, -0.2), **kwargs)
            return out.points[0], list(seen)
        serial, serial_results = sweep()
        proc, proc_results = sweep(backend="process", num_workers=2)
        assert proc.current.hex() == serial.current.hex()
        assert proc.scf_iterations == serial.scf_iterations
        assert np.array_equal(proc.potential, serial.potential)
        assert all(r.boundary is not None for r in serial_results)
        assert all(r.boundary is None for r in proc_results)
        _assert_same_solution(proc_results, serial_results)


class TestDescriptors:
    def test_spectrum_tasks_carry_descriptors(self):
        # the serialization boundary: every spectrum task has a
        # picklable twin recipe next to its closure
        import pickle

        spec = SpectrumUnitSpec(
            structure=linear_chain(4, 0.25), basis=single_s_basis(),
            num_cells=4, kz=0.0, potential=None, obc_method="dense",
            solver="rgf", num_partitions=1, obc_kwargs=None,
            energies=(-0.5,), kpoint_index=0, energy_indices=(0,),
            run_token="t")
        desc = TaskDescriptor(fn=_square, args=(3.0,))
        assert pickle.loads(pickle.dumps(desc)).run() == desc.run()
        assert pickle.dumps(spec)

    def test_worker_keeps_device_and_boundaries_per_family(self):
        # two spectra of one run (same family, other potential and
        # run_token) share the worker's device build and boundary memo;
        # another family shares nothing, and all results agree bitwise
        from repro.core.runner import _solve_unit

        def spec(family_token, run_token, potential):
            return SpectrumUnitSpec(
                structure=linear_chain(6, 0.25), basis=single_s_basis(),
                num_cells=6, kz=0.0, potential=potential,
                obc_method="dense", solver="rgf", num_partitions=1,
                obc_kwargs=None, energies=tuple(ENERGIES), kpoint_index=0,
                energy_indices=(0, 1, 2, 3), run_token=run_token,
                family_token=family_token)
        pot = np.array([0.0, 0.0, 0.01, 0.02, 0.0, 0.0])
        tracer = SpanTracer()
        with tracing(tracer):
            first = _solve_unit(spec("fam-a", "run-1", None))
            second = _solve_unit(spec("fam-a", "run-2", pot))
            alone = _solve_unit(spec("fam-b", "run-3", pot))
        m = tracer.metrics
        assert m.counter("worker_cache_misses").value == 2
        assert m.counter("worker_cache_hits").value == 1
        # the three units' OBC spans, in call order
        obc = stage_spans(tracer, "OBC")
        assert len(obc) == 3 * len(ENERGIES)
        for j, (a, b, c) in enumerate(zip(first, second, alone)):
            b_obc, c_obc = obc[len(ENERGIES) + j], obc[2 * len(ENERGIES) + j]
            assert b.boundary is a.boundary
            assert b_obc.attrs["reused"] is True
            assert b_obc.flops == 0
            assert c.boundary is not a.boundary
            assert c_obc.flops > 0
            assert c.transmission_lr.hex() == b.transmission_lr.hex()
            assert np.array_equal(c.psi, b.psi)

    def test_bare_module_level_callable_fallback(self):
        from functools import partial

        with ProcessTaskRunner(2) as runner:
            out = runner([partial(_square, i) for i in range(5)])
        assert out == [_square(i) for i in range(5)]

    def test_descriptor_of_prefers_attached_descriptor(self):
        def task():
            return "closure"
        task.descriptor = TaskDescriptor(fn=_square, args=(2.0,))
        assert descriptor_of(task) is task.descriptor
        assert descriptor_of(_square).fn is _square

    def test_unpicklable_task_raises_with_hint(self):
        cache = {"unpicklable": open(__file__)}
        try:
            with ProcessTaskRunner(1) as runner:
                with pytest.raises(TaskExecutionError,
                                   match="TaskDescriptor"):
                    runner([lambda: cache])
        finally:
            cache["unpicklable"].close()

    def test_worker_exception_propagates_with_traceback(self):
        with ProcessTaskRunner(1) as runner:
            with pytest.raises(TaskExecutionError,
                               match="injected worker-side failure"):
                runner([_boom])


class TestWorkerSideRetries:
    """ResilientTaskRunner composed over the process backend: the
    guarded tasks ship a picklable ``_retry_run`` descriptor, so the
    retry loop executes inside the worker with the same policy."""

    def test_guarded_task_descriptor_is_picklable(self):
        import pickle

        from repro.runtime import ResilientTaskRunner
        from repro.runtime.resilience import _retry_run

        runner = ResilientTaskRunner(ThreadTaskRunner(1), max_retries=2,
                                     backoff_s=0.1, timeout_s=30.0)
        try:
            guarded = runner._make_resilient(3, _descriptor_task(
                _square, 2.0))
            desc = descriptor_of(guarded)
            assert desc.fn is _retry_run
            policy, inner = desc.args
            assert policy.max_retries == 2
            assert policy.backoff_s == 0.1
            assert policy.timeout_s == 30.0
            assert policy.task_index == 3
            assert inner.fn is _square
            clone = pickle.loads(pickle.dumps(desc))
            assert clone.run() == _square(2.0)
        finally:
            runner.close()

    def test_bare_closure_gets_no_descriptor(self):
        from repro.runtime import ResilientTaskRunner

        runner = ResilientTaskRunner(max_retries=1)
        guarded = runner._make_resilient(0, lambda: 1)
        assert getattr(guarded, "descriptor", None) is None

    def test_transient_worker_failure_retried_worker_side(self, tmp_path):
        from repro.runtime import ResilientTaskRunner

        sentinel = str(tmp_path / "flaky.sentinel")
        runner = ResilientTaskRunner(ProcessTaskRunner(num_workers=1),
                                     max_retries=1)
        try:
            out = runner([_descriptor_task(_flaky_square, 3.0, sentinel)])
        finally:
            runner.close()
        assert out == [_square(3.0)]
        # one submission; the retry happened inside the worker process
        assert runner.telemetry.tasks_submitted == 1

    @pytest.mark.parametrize("traced", [True, False],
                             ids=["traced", "untraced"])
    def test_retry_accounting_and_ledger_merge_home_when_traced(
            self, tmp_path, traced):
        """Four tasks that each fail once, on two workers: the worker-side
        retries reach the runner telemetry once, traced or not, and
        never the tracer's metrics."""
        from contextlib import nullcontext

        from repro.runtime import ResilientTaskRunner

        with ledger_scope() as ref:
            _square(5.0)
        expected = ref.total_flops
        assert expected > 0

        tasks = [_descriptor_task(_flaky_square, 5.0,
                                  str(tmp_path / f"flaky{i}.sentinel"))
                 for i in range(4)]
        runner = ResilientTaskRunner(ProcessTaskRunner(num_workers=2),
                                     max_retries=2)
        tracer = SpanTracer()
        try:
            with tracing(tracer) if traced else nullcontext():
                with ledger_scope() as led:
                    out = runner(tasks)
        finally:
            runner.close()
        assert out == [_square(5.0)] * 4
        tel = runner.telemetry  # shared with the wrapped process runner
        assert tel.retries == 4
        assert tel.attempts == 8  # parent submissions + worker retries
        assert tel.failures_by_type == {"RuntimeError": 4}
        assert tel.giveups == 0
        # the failed attempts' flops are wasted, not merged: the home
        # ledger holds exactly four successful _square worth of flops
        assert led.total_flops == 4 * expected
        assert tel.wasted_flops == 4 * expected
        assert "retries" not in tracer.metrics.snapshot()

    def test_worker_side_giveup_reports_task_error(self, tmp_path):
        from repro.runtime import ResilientTaskRunner

        runner = ResilientTaskRunner(ProcessTaskRunner(num_workers=1),
                                     max_retries=1)
        try:
            with pytest.raises(TaskExecutionError,
                               match="injected worker-side failure"):
                runner([_descriptor_task(_boom)])
        finally:
            runner.close()

    def test_configuration_error_never_retried_worker_side(self):
        from repro.runtime.resilience import RetryPolicy, _retry_run

        calls = []

        class CountingDescriptor:
            def run(self):
                calls.append(1)
                raise ConfigurationError("bad setup")

        with pytest.raises(ConfigurationError):
            _retry_run(RetryPolicy(max_retries=3), CountingDescriptor())
        assert len(calls) == 1

    def test_worker_death_is_surfaced_not_retried(self):
        """The retry loop runs inside the worker and dies with it: a
        SIGKILLed worker ends the call in a TaskExecutionError naming the
        task, within seconds, with no retry counted."""
        from repro.runtime import ResilientTaskRunner

        runner = ResilientTaskRunner(ProcessTaskRunner(2), max_retries=2)
        try:
            t0 = time.monotonic()
            with pytest.raises(TaskExecutionError,
                               match=r"task 1 failed on node1: worker "
                                     r"process \d+ died") as info:
                runner([_descriptor_task(_square, 1.0),
                        _descriptor_task(_killed_mid_unit, 1.0)])
            assert time.monotonic() - t0 < 10.0
            assert (info.value.task_index, info.value.node) == (1, "node1")
            assert runner.telemetry.retries == 0
        finally:
            runner.close()

    def test_task_fault_instant_comes_home(self, tmp_path):
        """A worker-side failed attempt is a ``task-fault`` instant in
        the parent's span log, labelled with the worker's node."""
        from repro.runtime import ResilientTaskRunner

        runner = ResilientTaskRunner(ProcessTaskRunner(2), max_retries=1)
        tracer = SpanTracer()
        try:
            with tracing(tracer):
                runner([_descriptor_task(_square, 1.0),
                        _descriptor_task(_flaky_square, 2.0,
                                         str(tmp_path / "flaky.sentinel"))])
        finally:
            runner.close()
        faults = [sp for sp in tracer.records() if sp.name == "task-fault"]
        assert [(sp.worker, sp.attrs["task_index"], sp.attrs["attempt"],
                 sp.attrs["error"]) for sp in faults] == [
            ("node1", 1, 0, "RuntimeError")]


class TestLabels:
    @pytest.mark.parametrize("runner_cls",
                             [ProcessTaskRunner, ThreadTaskRunner])
    def test_task_i_is_labelled_node_i_mod_n(self, runner_cls):
        runner = runner_cls(2)
        tasks = [_descriptor_task(current_device) for _ in range(5)]
        try:
            calls = [runner(tasks), runner(tasks)]
        finally:
            close_task_runner(runner)
        labels = ["node0", "node1", "node0", "node1", "node0"]
        assert calls == [labels, labels]


class TestWorkerProcesses:
    """``node{j}`` is one process: it gets tasks j, j + n, ... of every
    call, starts without a thread in its parent's way, and dies loudly."""

    def test_each_node_is_one_process(self):
        tracer = SpanTracer()
        with ProcessTaskRunner(2) as runner, tracing(tracer):
            for _ in range(2):
                runner([partial(_square, float(i)) for i in range(5)])
        pids = defaultdict(set)
        for sp in tracer.records():
            if sp.category == "task":
                pids[sp.worker].add(sp.attrs["pid"])
        assert sorted(pids) == ["node0", "node1"]
        assert [len(p) for p in pids.values()] == [1, 1]
        assert pids["node0"] != pids["node1"]
        assert os.getpid() not in pids["node0"] | pids["node1"]

    def test_killed_worker_is_a_task_error(self):
        runner = ProcessTaskRunner(2)
        try:
            runner([partial(_square, 1.0)] * 2)   # the workers are up
            t0 = time.monotonic()
            with pytest.raises(TaskExecutionError,
                               match=r"task 3 failed on node1: worker "
                                     r"process \d+ died") as info:
                runner([partial(_square, 2.0)] * 3
                       + [partial(_killed_mid_unit, 2.0)])
            assert time.monotonic() - t0 < 10.0
            assert (info.value.task_index, info.value.node) == (3, "node1")
            # the next call starts a fresh set of workers
            assert runner([partial(_square, 3.0)]) == [_square(3.0)]
        finally:
            t0 = time.monotonic()
            runner.close()
            assert time.monotonic() - t0 < 10.0

    def test_threaded_parent_spawns_bitwise_serial(self, reference_spectrum):
        release = threading.Event()
        extra = threading.Thread(target=release.wait, daemon=True)
        extra.start()
        try:
            with ProcessTaskRunner(2) as runner:
                proc = _spectrum(task_runner=runner)
                assert runner.start_method == "spawn"
        finally:
            release.set()
            extra.join(timeout=5.0)
        assert not extra.is_alive()
        assert [t.hex() for t in proc.transmission.ravel()] \
            == [t.hex() for t in reference_spectrum.transmission.ravel()]

    def test_single_thread_parent_forks_bitwise_serial(self):
        """With one BLAS thread the parent is single-threaded: the
        workers are forks, and no Python warns about them."""
        script = (
            "import numpy as np\n"
            "from tests.test_process_backend import _spectrum\n"
            "from repro.parallel import ProcessTaskRunner\n"
            "serial = _spectrum()\n"
            "with ProcessTaskRunner(2) as runner:\n"
            "    forked = _spectrum(task_runner=runner)\n"
            "    print(runner.start_method, np.array_equal(\n"
            "        serial.transmission, forked.transmission))\n")
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(root / "src"),
                                               str(root)]))
        out = subprocess.run(
            [sys.executable, "-W", "always:This process:DeprecationWarning",
             "-c", script], cwd=root, env=env, capture_output=True,
            text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert "multi-threaded" not in out.stderr
        assert out.stdout.split() == ["fork", "True"]

    def test_scf_solves_each_boundary_once(self):
        """A 3-iteration SCF with more units than workers: each worker
        meets its energies again, so it pays exactly the serial run's
        dense OBCs (zggev) and flops."""
        from repro.basis import tight_binding_set
        from repro.core.energygrid import lead_band_structure
        from repro.pipeline.cache import DeviceFamily
        from repro.poisson.scf import schroedinger_poisson
        from repro.structure import silicon_nanowire

        structure, basis = silicon_nanowire(0.7, 4), tight_binding_set()
        lead = DeviceFamily(structure, basis, 4).gamma_device().lead
        e_lo = float(lead_band_structure(lead, 11)[1].min())

        def scf(**kwargs):
            with ledger_scope() as led:
                out = schroedinger_poisson(
                    structure, basis, 4, mu_l=e_lo + 0.3, mu_r=e_lo + 0.2,
                    e_window=(e_lo + 0.1, e_lo + 0.6), mixing=0.5,
                    max_iter=3, tol=0.0, density_scale=0.05, **kwargs)
            assert out.iterations == 3
            return led

        serial = scf()
        with ProcessTaskRunner(2) as runner:
            proc = scf(task_runner=runner)
        assert proc.flops_by_kernel["zggev"] \
            == serial.flops_by_kernel["zggev"] > 0
        assert proc.total_flops == serial.total_flops


class TestBackendFactory:
    def test_serial_is_none(self):
        assert make_task_runner("serial") is None
        close_task_runner(None)   # no-op

    def test_thread_and_process(self):
        thr = make_task_runner("thread", 2)
        assert isinstance(thr, ThreadTaskRunner)
        proc = make_task_runner("process", 2)
        assert isinstance(proc, ProcessTaskRunner)
        close_task_runner(thr)
        close_task_runner(proc)

    def test_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            make_task_runner("gpu")
        with pytest.raises(ConfigurationError):
            compute_spectrum(linear_chain(4, 0.25), single_s_basis(), 4,
                             [-0.5], backend="thread",
                             task_runner=ThreadTaskRunner(1))

    def test_scope_closes_only_the_runner_it_built(self, monkeypatch):
        import repro.parallel.backend as backend_mod

        given = ThreadTaskRunner(1)
        with task_runner_scope(given) as runner:
            assert runner is given
        built = SimpleNamespace(closed=False)
        built.close = lambda: setattr(built, "closed", True)
        monkeypatch.setattr(backend_mod, "make_task_runner",
                            lambda backend, num_workers: built)
        with pytest.raises(RuntimeError):
            with task_runner_scope(backend="process") as runner:
                assert runner is built
                raise RuntimeError("a sweep that fails mid-way")
        assert built.closed
        with pytest.raises(ConfigurationError):
            with task_runner_scope(given, backend="thread"):
                pass


class TestCheckpointTelemetryRoundTrip:
    """The runner telemetry rides in the sweep record."""

    @staticmethod
    def _sweep(**kwargs):
        from repro.core.production import run_production
        return run_production(linear_chain(6, 0.25), single_s_basis(), 6,
                              [0.1], mu_source=-0.5, e_window=(-1.5, 0.0),
                              scf_kwargs=dict(max_iter=2), **kwargs)

    def test_resumed_run_carries_prior_accounting(self, tmp_path):
        ck = tmp_path / "sweep.npz"
        with ProcessTaskRunner(2) as runner:
            first = self._sweep(task_runner=runner, checkpoint=ck)
        attempts = runner.telemetry.attempts
        assert attempts > 0
        # resume over the finished sweep: nothing re-runs, but a fresh
        # runner's telemetry reports the full job's attempts
        with ProcessTaskRunner(2) as fresh:
            second = self._sweep(task_runner=fresh, checkpoint=ck)
        assert second.points[0].current == first.points[0].current
        assert fresh.telemetry.attempts == attempts

    def test_runner_resuming_its_own_checkpoint_counts_once(self, tmp_path):
        from repro.runtime import ResilientTaskRunner
        ck = tmp_path / "sweep.npz"
        runner = ResilientTaskRunner(ThreadTaskRunner(num_workers=2))
        self._sweep(task_runner=runner, checkpoint=ck)
        first = runner.telemetry.snapshot()
        assert runner.telemetry.attempts > 0
        # the same runner over its finished sweep solves nothing and
        # already holds what the record says
        with tracing() as tracer:
            self._sweep(task_runner=runner, checkpoint=ck)
        assert not [sp for sp in tracer.records() if sp.category == "task"]
        assert runner.telemetry.snapshot() == first
        # a fresh runner adopts the recorded accounting
        fresh = ResilientTaskRunner(ThreadTaskRunner(num_workers=2))
        self._sweep(task_runner=fresh, checkpoint=ck)
        assert fresh.telemetry.snapshot() == first
