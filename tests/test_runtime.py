"""Tests for the fault-tolerance runtime: retry, timeout, checkpoint.

Faults here are real: a task that raises, sleeps past its budget, or
(in ``test_process_backend``) kills its worker.  No runner takes a
fault hook; a test wraps the tasks it hands over.
"""

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.energygrid import FINAL_GRID, adaptive_energy_grid
from repro.core.production import run_production
from repro.core.runner import TransportSpectrum, compute_spectrum
from repro.hamiltonian import build_device
from repro.linalg import gemm, ledger_scope
from repro.observability.spans import tracing
from repro.parallel import (DynamicLoadBalancer, ProcessTaskRunner,
                            TaskDescriptor, ThreadTaskRunner)
from repro.poisson.scf import schroedinger_poisson
from repro.runtime import CheckpointStore, ResilientTaskRunner
from repro.structure import linear_chain
from repro.utils.errors import (CheckpointError, ConfigurationError,
                                TaskExecutionError, TaskTimeoutError)
from tests.test_hamiltonian import single_s_basis


def _fail_first(left, descriptor):
    """Run ``descriptor``, then raise while ``left[0]`` failures remain:
    a failed attempt burns the task's real work first."""
    out = descriptor.run()
    if left[0] > 0:
        left[0] -= 1
        raise RuntimeError("transient fault")
    return out


def flaky(task, fails):
    """``task``, failing its first ``fails`` attempts.

    In process the closure keeps the count across retries; a task that
    ships a descriptor gets a module-level twin whose count is unpickled
    once per dispatch, so the worker-side retry loop meets the same
    failures.
    """
    left = [fails]

    def run():
        return _fail_first(left, TaskDescriptor(fn=task))

    inner = getattr(task, "descriptor", None)
    if inner is not None:
        run.descriptor = TaskDescriptor(fn=_fail_first,
                                        args=([fails], inner))
    return run


def flaky_runner(runner, fails):
    """``runner`` over task lists whose task ``i`` fails ``fails(i)``
    times first (the task list is the seam; the runner has no hook)."""
    def run(tasks):
        return runner([flaky(t, fails(i)) for i, t in enumerate(tasks)])

    run.telemetry = getattr(runner, "telemetry", None)
    return run


def _some_fail(i):
    """0, 1 or 2 failures, depending on the task index."""
    return i % 3


def _gemm_task(n):
    a = np.full((n, n), 1.0 / n)
    return float(gemm(a, a)[0, 0])


class TestExecutorRegression:
    """The failure reporting of ThreadTaskRunner.__call__."""

    def test_failure_reports_task_index(self):
        runner = ThreadTaskRunner(2)

        def boom():
            raise ValueError("broken hardware")

        tasks = [lambda: 1, lambda: 2, boom, lambda: 4]
        with pytest.raises(TaskExecutionError) as err:
            runner(tasks)
        assert err.value.task_index == 2
        assert err.value.node == "node0"
        assert isinstance(err.value.__cause__, ValueError)


class TestBalancerRegression:
    def test_history_records_smoothed_model(self):
        """Regression: history used to hold the raw per-iteration work,
        not the smoothed model the allocation is built from."""
        bal = DynamicLoadBalancer(8, [10, 10], smoothing=0.5)
        dist = bal.current_distribution()
        measured = [2.0, 6.0]
        raw = np.asarray(measured) * dist.nodes_per_k
        expected = 0.5 * np.array([10.0, 10.0]) + 0.5 * raw
        bal.record_iteration(measured)
        np.testing.assert_allclose(bal.history[0], expected)
        np.testing.assert_allclose(bal.history[0], bal._work)

    def test_distribution_cached_until_model_changes(self):
        """Regression: record_iteration rebuilt the distribution twice
        per call; it is now cached per work-model state."""
        bal = DynamicLoadBalancer(8, [10, 10])
        d0 = bal.current_distribution()
        assert bal.current_distribution() is d0
        bal.record_iteration([1.0, 3.0])
        assert bal.current_distribution() is not d0

    def test_predicted_time_guards_zero_nodes(self):
        """Regression: a zero entry in nodes_per_k divided to inf."""
        bal = DynamicLoadBalancer(4, [10, 10])
        dist = bal.current_distribution()
        dist.nodes_per_k = np.array([0, 4])  # simulate a drained group
        assert np.isfinite(bal.predicted_iteration_time())

    def test_nonfinite_timings_rejected(self):
        bal = DynamicLoadBalancer(4, [10, 10])
        with pytest.raises(ConfigurationError):
            bal.record_iteration([1.0, np.inf])
        with pytest.raises(ConfigurationError):
            bal.record_iteration([np.nan, 1.0])

class TestResilientRunner:
    def test_no_faults_passthrough(self):
        runner = ResilientTaskRunner(ThreadTaskRunner(2))
        out = runner([lambda i=i: i * i for i in range(6)])
        assert out == [i * i for i in range(6)]
        t = runner.telemetry
        assert t.tasks_submitted == 6
        assert t.attempts == 6
        assert t.retries == 0 and t.giveups == 0

    def test_sequential_fallback(self):
        runner = ResilientTaskRunner(max_retries=0)
        assert runner([lambda: 42]) == [42]

    def test_retries_recover_transient_faults(self):
        runner = ResilientTaskRunner(ThreadTaskRunner(2), max_retries=5)
        out = runner([flaky(lambda i=i: i, _some_fail(i))
                      for i in range(20)])
        assert out == list(range(20))
        assert runner.telemetry.retries == sum(map(_some_fail, range(20)))
        assert runner.telemetry.giveups == 0

    def test_retry_sequence_deterministic(self):
        def attempts():
            runner = ResilientTaskRunner(ThreadTaskRunner(3),
                                         max_retries=6)
            runner([flaky(lambda i=i: i, _some_fail(i))
                    for i in range(25)])
            return (runner.telemetry.attempts, runner.telemetry.retries,
                    dict(runner.telemetry.failures_by_type))

        assert attempts() == attempts()
        assert attempts() == (25 + 24, 24, {"RuntimeError": 24})

    def test_giveup_raises_indexed_error(self):
        def boom():
            raise RuntimeError("always broken")

        runner = ResilientTaskRunner(ThreadTaskRunner(2), max_retries=2)
        with pytest.raises(TaskExecutionError) as err:
            runner([lambda: 0, boom])
        assert err.value.task_index == 1
        assert err.value.attempts == 3
        assert runner.telemetry.giveups == 1
        assert runner.telemetry.failures_by_type["RuntimeError"] == 3

    def test_configuration_errors_not_retried(self):
        calls = []

        def bad():
            calls.append(1)
            raise ConfigurationError("user error, not hardware")

        runner = ResilientTaskRunner(max_retries=5)
        with pytest.raises(ConfigurationError):
            runner([bad])
        assert len(calls) == 1

    def test_timeout_from_injected_straggler(self):
        """A task that sleeps past its budget times out on every attempt."""
        runner = ResilientTaskRunner(ThreadTaskRunner(1), max_retries=1,
                                     timeout_s=0.01)
        with pytest.raises(TaskExecutionError) as err:
            runner([lambda: time.sleep(0.05)])
        assert isinstance(err.value.__cause__, TaskTimeoutError)
        assert runner.telemetry.timeouts == 2

    def test_wasted_flops_excluded_from_ledger(self):
        """Failed attempts burn flops into telemetry, not the ledger —
        a protected faulty run accounts exactly like a fault-free one."""
        a = np.eye(16)
        fails = {"left": 2}

        def flaky():
            out = gemm(a, a)
            if fails["left"] > 0:
                fails["left"] -= 1
                raise RuntimeError("transient")
            return out

        with ledger_scope() as clean:
            gemm(a, a)
        runner = ResilientTaskRunner(max_retries=4)
        with ledger_scope() as led:
            runner([flaky])
        assert led.total_flops == clean.total_flops
        assert runner.telemetry.wasted_flops == 2 * clean.total_flops

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            ResilientTaskRunner(max_retries=-1)
        with pytest.raises(ConfigurationError):
            ResilientTaskRunner(timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            ResilientTaskRunner(backoff_factor=0.5)

    def test_wasted_time_includes_straggler_delay(self):
        """A timed-out attempt is charged its whole real wall time: two
        attempts that each slept 0.05 s waste at least 0.1 s."""
        runner = ResilientTaskRunner(ThreadTaskRunner(1), max_retries=1,
                                     timeout_s=0.01)
        with pytest.raises(TaskExecutionError):
            runner([lambda: time.sleep(0.05)])
        assert runner.telemetry.wasted_time_s >= 2 * 0.05

    def test_fault_counts_equal_across_backends(self):
        """One flaky sequence counts the same attempts, retries,
        give-ups, failures and wasted flops on threads and processes.
        Only the last task gives up, so no runner aborts the batch
        before every other task has run."""
        from tests.test_process_backend import _descriptor_task

        counts = {}
        for name, inner in (("thread", ThreadTaskRunner(2)),
                            ("process", ProcessTaskRunner(2))):
            runner = ResilientTaskRunner(inner, max_retries=1)
            tasks = [flaky(_descriptor_task(_gemm_task, 4 + i),
                           2 if i == 5 else i % 2) for i in range(6)]
            try:
                with pytest.raises(TaskExecutionError) as err:
                    runner(tasks)
            finally:
                runner.close()
            t = runner.telemetry
            counts[name] = (t.tasks_submitted, t.attempts, t.retries,
                            t.giveups, t.failures_by_type, t.wasted_flops,
                            err.value.task_index)
        assert counts["thread"] == counts["process"]
        # tasks 1 and 3 fail once; task 5 fails twice and gives up
        with ledger_scope() as failed:
            for n in (5, 7, 9, 9):
                _gemm_task(n)
        assert counts["thread"] == (6, 9, 3, 1, {"RuntimeError": 4},
                                    failed.total_flops, 5)


@pytest.fixture(scope="module")
def chain():
    return linear_chain(10, 0.25)


class TestSpectrumUnderFaults:
    @staticmethod
    def _spectrum_is_fault_free(chain, inner):
        """Tasks failing 0-2 times reproduce the fault-free spectrum."""
        energies = [0.0, 0.1, 0.2, 0.3]
        clean = compute_spectrum(chain, single_s_basis(), 10, energies,
                                 obc_method="dense", solver="rgf")
        runner = ResilientTaskRunner(inner, max_retries=5)
        try:
            faulty = compute_spectrum(
                chain, single_s_basis(), 10, energies, obc_method="dense",
                solver="rgf", task_runner=flaky_runner(runner, _some_fail))
        finally:
            runner.close()
        np.testing.assert_array_equal(faulty.transmission,
                                      clean.transmission)
        np.testing.assert_array_equal(faulty.mode_counts,
                                      clean.mode_counts)
        assert runner.telemetry.retries == sum(map(_some_fail, range(4)))
        assert runner.telemetry.giveups == 0

    @staticmethod
    def _scf_is_fault_free(inner):
        """schroedinger_poisson completes with failing tasks in every
        iteration and reproduces the fault-free result exactly."""
        chain8 = linear_chain(8, 0.25)
        args = dict(SCF_ARGS, tol=1e-3, max_iter=6)
        clean = schroedinger_poisson(chain8, single_s_basis(), 8, **args)
        runner = ResilientTaskRunner(inner, max_retries=5)
        try:
            faulty = schroedinger_poisson(
                chain8, single_s_basis(), 8,
                task_runner=flaky_runner(runner, _some_fail), **args)
        finally:
            runner.close()
        np.testing.assert_array_equal(faulty.potential_atom,
                                      clean.potential_atom)
        np.testing.assert_array_equal(faulty.residuals, clean.residuals)
        assert runner.telemetry.retries > 0

    def test_faulty_run_identical_to_fault_free(self, chain):
        self._spectrum_is_fault_free(chain, ThreadTaskRunner(2))

    def test_faulty_run_identical_on_process_backend(self, chain):
        self._spectrum_is_fault_free(chain, ProcessTaskRunner(2))

    def test_scf_identical_under_faults(self):
        self._scf_is_fault_free(ThreadTaskRunner(2))

    def test_scf_identical_under_faults_on_process_backend(self):
        self._scf_is_fault_free(ProcessTaskRunner(2))

    def test_failure_annotated_with_k_and_energy(self, chain):
        runner = flaky_runner(ThreadTaskRunner(2), lambda i: 1)
        with pytest.raises(TaskExecutionError) as err:
            compute_spectrum(chain, single_s_basis(), 10, [0.1, 0.2],
                             obc_method="dense", solver="rgf",
                             task_runner=runner)
        assert err.value.kpoint_index == 0
        assert err.value.energy_index in (0, 1)


class TestCheckpointStore:
    def test_round_trip_types(self, tmp_path):
        store = CheckpointStore(tmp_path / "state.npz")
        store.save("scf", iteration=3, converged=False,
                   potential=np.arange(4.0), residuals=[0.5, 0.25])
        state = store.load("scf")
        assert state["iteration"] == 3
        assert state["converged"] is False
        np.testing.assert_array_equal(state["potential"], np.arange(4.0))
        np.testing.assert_allclose(state["residuals"], [0.5, 0.25])

    def test_kind_mismatch_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path / "state.npz")
        store.save("scf", iteration=1)
        with pytest.raises(CheckpointError):
            store.load("production")

    def test_missing_and_cleared(self, tmp_path):
        store = CheckpointStore(tmp_path / "state.npz")
        assert not store.exists()
        with pytest.raises(CheckpointError):
            store.load()
        store.save("x", a=1)
        store.clear()
        assert not store.exists()

    def test_object_payload_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path / "state.npz")
        with pytest.raises(CheckpointError):
            store.save("scf", bad={"a": 1})

    def test_save_is_atomic_overwrite(self, tmp_path):
        store = CheckpointStore(tmp_path / "state.npz")
        store.save("scf", iteration=1)
        store.save("scf", iteration=2)
        assert store.load("scf")["iteration"] == 2
        assert not (tmp_path / "state.npz.tmp").exists()


_FULL_DISK_PRELUDE = """
    import json, resource, sys
    import numpy as np

    def fill_the_disk(limit=4096):
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
"""


def _run_with_file_size_limit(script, *args):
    """Run ``script`` in a fresh interpreter, where ``fill_the_disk(limit)``
    stops files from growing past ``limit`` bytes (``RLIMIT_FSIZE``,
    4 KiB by default).  Python ignores ``SIGXFSZ``, so an oversized
    write fails with ``EFBIG``.
    Returns the JSON the script prints last."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c",
         textwrap.dedent(_FULL_DISK_PRELUDE) + textwrap.dedent(script),
         *args],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestFullDisk:
    """A full disk is a real fault: a child process under a lowered
    ``RLIMIT_FSIZE`` ends in a typed error or a counted failed cache
    write, never in a bare ``OSError``."""

    def test_checkpoint_save_is_a_checkpoint_error(self, tmp_path):
        path = str(tmp_path / "scf.npz")
        out = _run_with_file_size_limit("""
            from repro.runtime import CheckpointStore
            store = CheckpointStore(sys.argv[1])
            store.save("scf", iteration=1, potential=np.arange(4.0))
            fill_the_disk()
            try:
                store.save("scf", iteration=2, potential=np.zeros(10**5))
            except Exception as exc:
                print(json.dumps([type(exc).__name__, str(exc)]))
        """, path)
        assert out[0] == "CheckpointError"
        assert path in out[1]
        assert not os.path.exists(path + ".tmp")
        state = CheckpointStore(path).load("scf")
        assert state["iteration"] == 1
        np.testing.assert_array_equal(state["potential"], np.arange(4.0))

    def test_failed_store_put_leaves_the_spectrum_bitwise(self, tmp_path):
        out = _run_with_file_size_limit("""
            import os
            from repro.cache import ResultStore, pack_result
            from repro.core.runner import compute_spectrum
            from repro.observability.spans import SpanTracer, tracing
            from repro.structure import linear_chain
            from tests.test_hamiltonian import single_s_basis

            def spectrum(**kwargs):
                return compute_spectrum(
                    linear_chain(8, 0.25), single_s_basis(), 8,
                    [0.0, 0.1, 0.2], obc_method="dense", solver="rgf",
                    **kwargs)

            clean = spectrum()
            # every record this spectrum writes is larger than the limit
            limit = 512
            sizes = ResultStore(sys.argv[2])
            for i, res in enumerate(clean.results):
                sizes.put(f"{i:064x}", pack_result(res))
            smallest = min(os.path.getsize(sizes._object_path(f"{i:064x}"))
                           for i in range(len(clean.results)))
            assert smallest > limit, smallest
            store = ResultStore(sys.argv[1])
            record = {"x": np.zeros(10**4)}
            fill_the_disk(limit)
            direct = store.put("0" * 64, record)
            tracer = SpanTracer()
            with tracing(tracer):
                stored = spectrum(result_store=store)
            print(json.dumps({
                "direct_put": direct,
                "bitwise": bool(np.array_equal(stored.transmission,
                                               clean.transmission)
                                and np.array_equal(stored.mode_counts,
                                                   clean.mode_counts)),
                "put_failures": tracer.metrics.counter(
                    "result_store_put_failures").value,
                "objects": store.stats()["objects"]}))
        """, str(tmp_path / "store"), str(tmp_path / "sizes"))
        assert out == {"direct_put": False, "bitwise": True,
                       "put_failures": 3, "objects": 0}
        assert not list((tmp_path / "store").rglob("*.tmp"))


SCF_ARGS = dict(mu_l=-0.5, mu_r=-0.5, e_window=(-1.5, 0.0), mixing=0.3,
                tol=1e-12, density_scale=0.05)


class TestScfCheckpoint:
    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        chain = linear_chain(8, 0.25)
        straight = schroedinger_poisson(chain, single_s_basis(), 8,
                                        max_iter=4, **SCF_ARGS)
        ckpt = tmp_path / "scf.npz"
        # "crash" after two iterations, then resume to four
        schroedinger_poisson(chain, single_s_basis(), 8, max_iter=2,
                             checkpoint=ckpt, **SCF_ARGS)
        resumed = schroedinger_poisson(chain, single_s_basis(), 8,
                                       max_iter=4, checkpoint=ckpt,
                                       **SCF_ARGS)
        np.testing.assert_array_equal(resumed.potential_atom,
                                      straight.potential_atom)
        np.testing.assert_array_equal(resumed.density_atom,
                                      straight.density_atom)
        np.testing.assert_array_equal(resumed.residuals,
                                      straight.residuals)
        assert resumed.iterations == straight.iterations

    def test_converged_checkpoint_short_circuits(self, tmp_path):
        chain = linear_chain(8, 0.25)
        ckpt = tmp_path / "scf.npz"
        args = dict(SCF_ARGS, tol=1e-3)
        done = schroedinger_poisson(chain, single_s_basis(), 8,
                                    max_iter=20, checkpoint=ckpt, **args)
        assert done.converged
        again = schroedinger_poisson(chain, single_s_basis(), 8,
                                     max_iter=20, checkpoint=ckpt, **args)
        assert again.converged
        assert again.iterations == done.iterations
        np.testing.assert_array_equal(again.potential_atom,
                                      done.potential_atom)

    def test_wrong_structure_rejected(self, tmp_path):
        ckpt = tmp_path / "scf.npz"
        schroedinger_poisson(linear_chain(8, 0.25), single_s_basis(), 8,
                             max_iter=1, checkpoint=ckpt, **SCF_ARGS)
        with pytest.raises(CheckpointError):
            schroedinger_poisson(linear_chain(6, 0.25), single_s_basis(),
                                 6, max_iter=2, checkpoint=ckpt,
                                 **SCF_ARGS)


class TestProductionCheckpoint:
    def test_resume_matches_straight_sweep(self, tmp_path):
        chain = linear_chain(8, 0.25)
        common = dict(mu_source=-0.6, e_window=(-1.8, -0.2), num_nodes=8)
        straight = run_production(chain, single_s_basis(), 8,
                                  bias_points=[0.0, 0.1], **common)
        ckpt = tmp_path / "sweep.npz"
        # first point completes, then the allocation dies
        first = run_production(chain, single_s_basis(), 8,
                               bias_points=[0.0], checkpoint=ckpt, **common)
        resumed = run_production(chain, single_s_basis(), 8,
                                 bias_points=[0.0, 0.1],
                                 checkpoint=ckpt, **common)
        assert len(resumed.points) == 2
        for got, want in zip(resumed.points, straight.points):
            assert got.vds == want.vds
            assert got.current == want.current
            assert got.scf_iterations == want.scf_iterations
        # the balancer's learned model is restored from disk, not
        # recomputed: the first iteration's work vector is bit-identical
        # to the interrupted run's (the values themselves are *measured*
        # wall times now, so the straight sweep's model only matches in
        # shape and positivity, not numerically)
        np.testing.assert_array_equal(resumed.balancer.history[0],
                                      first.balancer.history[0])
        assert resumed.balancer._work.shape == \
            straight.balancer._work.shape
        assert np.all(resumed.balancer._work > 0)
        assert len(resumed.balancer.history) == 2

    def test_mismatched_sweep_rejected(self, tmp_path):
        chain = linear_chain(8, 0.25)
        ckpt = tmp_path / "sweep.npz"
        run_production(chain, single_s_basis(), 8, bias_points=[0.1],
                       mu_source=-0.6, e_window=(-1.8, -0.2),
                       checkpoint=ckpt)
        with pytest.raises(CheckpointError):
            run_production(chain, single_s_basis(), 8,
                           bias_points=[0.2, 0.3], mu_source=-0.6,
                           e_window=(-1.8, -0.2), checkpoint=ckpt)


class _Killed(Exception):
    """Stands in for the allocation dying."""


class _DyingStore(CheckpointStore):
    """A store whose run dies right after it writes the sweep record of
    SCF iteration ``iteration`` of bias point ``point`` (1-based)."""

    def __init__(self, path, point, iteration):
        super().__init__(path)
        self.point, self.iteration = point, iteration

    def save(self, kind, telemetry=None, **state):
        super().save(kind, telemetry=telemetry, **state)
        if len(state["vds"]) == self.point \
                and state.get("scf_iterations") == self.iteration:
            raise _Killed


SWEEP = dict(mu_source=-0.6, e_window=(-1.8, -0.2))


@pytest.fixture
def counted_balancer(monkeypatch):
    """Balancer feedback from counts of solved points, not wall times,
    so that two sweeps' balancer histories can be compared bit for
    bit."""
    def measured(self):
        return np.full(len(self.kpoints),
                       float(np.count_nonzero(self.seconds)))
    monkeypatch.setattr(TransportSpectrum, "measured_time_per_k", measured)


class TestSweepRecord:
    """One record resumes the bias sweep mid-point, and only the sweep
    that wrote it."""

    @staticmethod
    def _sweep(bias, **kwargs):
        kwargs = dict(SWEEP, **kwargs)
        kwargs.setdefault("scf_kwargs", dict(max_iter=4, tol=1e-12))
        return run_production(linear_chain(8, 0.25), single_s_basis(), 8,
                              bias_points=bias, **kwargs)

    def test_resume_mid_point_continues_its_scf(self, tmp_path,
                                                counted_balancer):
        straight = self._sweep([0.0, 0.1], num_nodes=8)
        ckpt = tmp_path / "sweep.npz"
        with pytest.raises(_Killed):
            self._sweep([0.0, 0.1], num_nodes=8,
                        checkpoint=_DyingStore(ckpt, point=2, iteration=2))
        with tracing() as tracer:
            resumed = self._sweep([0.0, 0.1], num_nodes=8, checkpoint=ckpt)
        # point 2 picks up at SCF iteration 3; point 1 is not re-run
        assert [sp.attrs["iteration"] for sp in tracer.records()
                if sp.category == "scf"] == [3, 4]
        assert [p.scf_iterations for p in straight.points] == [4, 4]
        for got, want in zip(resumed.points, straight.points, strict=True):
            assert got.vds == want.vds
            assert got.current.hex() == want.current.hex()
            assert got.scf_iterations == want.scf_iterations
            assert got.converged == want.converged
            np.testing.assert_array_equal(got.potential, want.potential)
        np.testing.assert_array_equal(resumed.balancer.history,
                                      straight.balancer.history)

    @pytest.fixture(scope="class")
    def record(self, tmp_path_factory):
        """The bytes of the record of the finished sweep ``[0.1]``."""
        path = tmp_path_factory.mktemp("record") / "sweep.npz"
        self._sweep([0.1], checkpoint=path)
        return path.read_bytes()

    @pytest.mark.parametrize("change", [
        dict(bias=[0.100001]),
        dict(mu_source=-0.6 + 1e-9),
        dict(e_window=(-1.8, -0.19)),
        dict(num_k=2),
    ], ids=["vds", "mu_source", "e_window", "num_k"])
    def test_record_of_another_sweep_rejected(self, tmp_path, record,
                                              change):
        path = tmp_path / "sweep.npz"
        path.write_bytes(record)
        change = dict(change)
        with pytest.raises(CheckpointError, match="another sweep"):
            self._sweep(change.pop("bias", [0.1]), checkpoint=path,
                        **change)

    def test_final_spectrum_uses_the_scf_method(self):
        chain, basis = linear_chain(8, 0.25), single_s_basis()
        method = dict(obc_method="feast", solver="splitsolve")
        point = self._sweep([0.1], scf_kwargs=method).points[0]
        energies = adaptive_energy_grid(
            build_device(chain, basis, 8).lead, *SWEEP["e_window"],
            **FINAL_GRID)

        def current(**kwargs):
            return compute_spectrum(
                chain, basis, 8, energies, potential=point.potential,
                **kwargs).current(SWEEP["mu_source"],
                                  SWEEP["mu_source"] - 0.1)

        assert point.current.hex() == current(**method).hex()
        assert point.current != current(obc_method="dense", solver="rgf")
