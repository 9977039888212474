"""Tests for the parallel substrate: communicator, topology, balancer."""

import numpy as np
import pytest

from repro.parallel import (
    DynamicLoadBalancer,
    ThreadTaskRunner,
    allocate_nodes_to_momentum,
    build_distribution,
    distribute_items,
    run_spmd,
)
from repro.utils.errors import ConfigurationError, ReproError


class TestComm:
    def test_rank_and_size(self):
        out = run_spmd(4, lambda c: (c.rank, c.size))
        assert out == [(0, 4), (1, 4), (2, 4), (3, 4)]

    def test_bcast(self):
        def prog(c):
            data = {"H": [1, 2, 3]} if c.rank == 0 else None
            return c.bcast(data, root=0)

        out = run_spmd(3, prog)
        assert all(o == {"H": [1, 2, 3]} for o in out)

    def test_gather(self):
        def prog(c):
            return c.gather(c.rank ** 2, root=0)

        out = run_spmd(4, prog)
        assert out[0] == [0, 1, 4, 9]
        assert out[1] is None

    def test_allgather_and_allreduce(self):
        def prog(c):
            return (c.allgather(c.rank), c.allreduce(c.rank + 1))

        out = run_spmd(3, prog)
        for table, total in out:
            assert table == [0, 1, 2]
            assert total == 6

    def test_allreduce_custom_op(self):
        out = run_spmd(4, lambda c: c.allreduce(c.rank + 1,
                                                op=lambda a, b: a * b))
        assert all(o == 24 for o in out)

    def test_scatter(self):
        def prog(c):
            return c.scatter([10, 20, 30] if c.rank == 0 else None, root=0)

        assert run_spmd(3, prog) == [10, 20, 30]

    def test_scatter_wrong_length(self):
        def prog(c):
            return c.scatter([1] if c.rank == 0 else None, root=0)

        with pytest.raises(ReproError):
            run_spmd(2, prog)

    def test_collectives_numpy_arrays(self):
        def prog(c):
            local = np.full(3, float(c.rank))
            return c.allreduce(local)

        out = run_spmd(3, prog)
        for o in out:
            np.testing.assert_allclose(o, [3.0, 3.0, 3.0])

    def test_split_subcommunicators(self):
        """The momentum/energy hierarchy: split world into 2 k-groups."""

        def prog(c):
            color = c.rank // 2
            sub = c.split(color)
            # sum ranks within the sub-communicator only
            s = sub.allreduce(c.rank)
            return (color, sub.rank, sub.size, s)

        out = run_spmd(4, prog)
        assert out[0] == (0, 0, 2, 1)   # ranks 0+1
        assert out[3] == (1, 1, 2, 5)   # ranks 2+3

    def test_sequenced_collectives(self):
        """Several collectives in a row must not cross-talk."""

        def prog(c):
            a = c.bcast(c.rank, root=0)
            b = c.bcast(c.rank, root=1)
            return (a, b)

        assert run_spmd(3, prog) == [(0, 1)] * 3

    def test_invalid_ranks(self):
        with pytest.raises(ConfigurationError):
            run_spmd(0, lambda c: None)

    def test_rank_failure_aborts_promptly(self):
        """A failing rank must break blocked ranks out of the barrier
        immediately — not after the full (120 s default) timeout."""
        import time

        def prog(c):
            if c.rank == 1:
                raise ValueError("rank 1 exploded")
            c.barrier()   # ranks 0 and 2 block here forever otherwise
            return c.rank

        t0 = time.perf_counter()
        with pytest.raises(ReproError, match="rank 1 exploded"):
            run_spmd(3, prog)
        assert time.perf_counter() - t0 < 30.0

    def test_repro_error_passes_through(self):
        def prog(c):
            raise ReproError("domain failure")

        with pytest.raises(ReproError, match="domain failure"):
            run_spmd(2, prog)

    def test_timeout_reports_unfinished_ranks(self):
        import threading

        release = threading.Event()

        def prog(c):
            if c.rank == 1:
                release.wait(5.0)
            return c.rank

        try:
            with pytest.raises(ReproError, match="timed out"):
                run_spmd(2, prog, timeout=0.2)
        finally:
            release.set()


class TestTopology:
    def test_allocation_sums_to_nodes(self):
        alloc = allocate_nodes_to_momentum(21, [100, 200, 400])
        assert alloc.sum() == 21
        assert np.all(alloc >= 1)
        assert alloc[2] > alloc[0]  # more work -> more nodes

    def test_allocation_with_solver_groups(self):
        alloc = allocate_nodes_to_momentum(16, [1, 1], nodes_per_solver=4)
        assert alloc.sum() == 16
        assert np.all(alloc % 4 == 0)

    def test_allocation_errors(self):
        with pytest.raises(ConfigurationError):
            allocate_nodes_to_momentum(2, [1, 1, 1])
        with pytest.raises(ConfigurationError):
            allocate_nodes_to_momentum(4, [0.0, 1.0])

    def test_distribute_items_complete(self):
        chunks = distribute_items(10, 3)
        flat = [i for ch in chunks for i in ch]
        assert flat == list(range(10))
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_build_distribution_complete(self):
        e_per_k = [120, 90, 150]
        dist = build_distribution(12, e_per_k, nodes_per_solver=2)
        assert dist.validate_complete(e_per_k)
        assert dist.total_energy_points == sum(e_per_k)
        assert dist.nodes_per_k.sum() == 12

    def test_tasks_per_node_near_constant_weak_scaling(self):
        """The Table II situation: E/node stays ~constant when nodes and
        energies scale together."""
        per_node = []
        for scale in (1, 2, 4):
            nodes = 7 * scale
            e_per_k = [90 * scale] * 7
            dist = build_distribution(nodes, e_per_k)
            per_node.append(dist.tasks_per_node().mean())
        assert max(per_node) / min(per_node) < 1.15

    def test_imbalance_metric(self):
        dist = build_distribution(4, [10, 10])
        assert dist.imbalance() <= 0.5
        dist_bad = build_distribution(2, [1, 100])
        assert dist_bad.imbalance() > dist.imbalance() or \
            dist_bad.imbalance() >= 0.0


class TestBalancer:
    def test_rebalancing_reduces_predicted_time(self):
        """Feeding back skewed timings must shift nodes to the slow k."""
        bal = DynamicLoadBalancer(12, [100, 100, 100], smoothing=0.0)
        d0 = bal.current_distribution()
        t0 = bal.predicted_iteration_time()
        # k=2 is secretly 4x more expensive per point
        measured = []
        for ik in range(3):
            cost = 4.0 if ik == 2 else 1.0
            measured.append(cost * 100 / d0.nodes_per_k[ik])
        bal.record_iteration(measured)
        d1 = bal.current_distribution()
        assert d1.nodes_per_k[2] > d0.nodes_per_k[2]
        assert bal.predicted_iteration_time() < max(measured) + 1e-9

    def test_allocation_conserves_nodes(self):
        bal = DynamicLoadBalancer(10, [50, 70], smoothing=0.3)
        bal.record_iteration([3.0, 9.0])
        assert bal.current_distribution().nodes_per_k.sum() == 10

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DynamicLoadBalancer(4, [10], smoothing=1.0)
        bal = DynamicLoadBalancer(4, [10, 10])
        with pytest.raises(ConfigurationError):
            bal.record_iteration([1.0])
        with pytest.raises(ConfigurationError):
            bal.record_iteration([1.0, -1.0])


class TestTaskRunner:
    def test_runs_all_tasks_in_order(self):
        runner = ThreadTaskRunner(3)
        out = runner([lambda i=i: i * i for i in range(7)])
        assert out == [i * i for i in range(7)]

    def test_flops_attributed_to_nodes(self):
        from repro.linalg import gemm, ledger_scope

        runner = ThreadTaskRunner(2)

        def task():
            a = np.eye(8)
            return gemm(a, a)

        with ledger_scope() as led:
            runner([task] * 4)
        assert led.flops_on("node0") > 0
        assert led.flops_on("node1") > 0

    def test_invalid_workers(self):
        with pytest.raises(ConfigurationError):
            ThreadTaskRunner(0)
