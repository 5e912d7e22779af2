"""Dynamic vs. static chunk scheduling (Section III-E load balance)."""

import numpy as np
import pytest

from repro.device.scheduler import dynamic_schedule, static_schedule


class TestDynamic:
    def test_uniform_costs_balance_perfectly(self):
        res = dynamic_schedule(np.ones(64), 8)
        assert res.makespan == pytest.approx(8.0)
        assert res.imbalance == pytest.approx(1.0)

    def test_all_chunks_assigned_once(self):
        costs = np.random.default_rng(1).uniform(0.1, 3.0, 100)
        res = dynamic_schedule(costs, 7)
        assert res.assignment.size == 100
        assert set(res.order) == set(range(100))
        # per-worker busy time adds up to the total work
        assert res.worker_finish.sum() == pytest.approx(costs.sum())

    def test_deterministic(self):
        costs = np.random.default_rng(2).uniform(0.1, 3.0, 50)
        a = dynamic_schedule(costs, 4)
        b = dynamic_schedule(costs, 4)
        assert np.array_equal(a.assignment, b.assignment)

    def test_single_worker_serializes(self):
        costs = np.array([1.0, 2.0, 3.0])
        res = dynamic_schedule(costs, 1)
        assert res.makespan == pytest.approx(6.0)
        assert list(res.start_times) == [0.0, 1.0, 3.0]

    def test_empty(self):
        res = dynamic_schedule(np.zeros(0), 4)
        assert res.makespan == 0.0


class TestDynamicBeatsStatic:
    def test_skewed_costs(self):
        """The reason the paper schedules dynamically: uneven chunks."""
        r = np.random.default_rng(3)
        costs = r.uniform(0.1, 1.0, 256)
        costs[: 32] *= 20  # a run of expensive chunks at the front
        dyn = dynamic_schedule(costs, 16)
        stat = static_schedule(costs, 16)
        assert dyn.makespan < stat.makespan

    def test_uniform_costs_tie(self):
        costs = np.ones(64)
        dyn = dynamic_schedule(costs, 8)
        stat = static_schedule(costs, 8)
        assert dyn.makespan == pytest.approx(stat.makespan)


class TestStatic:
    def test_blocked_assignment(self):
        res = static_schedule(np.ones(8), 4)
        assert list(res.assignment) == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_more_workers_than_chunks(self):
        res = static_schedule(np.ones(3), 10)
        assert res.makespan == pytest.approx(1.0)


class TestOrderFeed:
    """`order=` models a queue fed out of index order (e.g. longest-first)."""

    def test_default_is_index_order(self):
        costs = np.array([3.0, 1.0, 2.0])
        res = dynamic_schedule(costs, 1)
        assert res.order == [0, 1, 2]

    def test_explicit_order_is_followed(self):
        from repro.device.scheduler import submission_order

        costs = np.array([1.0, 5.0, 3.0, 2.0])
        feed = submission_order(costs)
        res = dynamic_schedule(costs, 1, order=feed)
        assert res.order == [int(i) for i in feed]
        # One worker runs the queue back to back regardless of feed order.
        assert res.makespan == pytest.approx(costs.sum())

    def test_order_must_be_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            dynamic_schedule(np.ones(4), 2, order=[0, 1, 1, 3])

    def test_reordered_feed_changes_assignment(self):
        from repro.device.scheduler import submission_order

        costs = np.array([0.1, 0.1, 0.1, 0.1, 10.0, 0.1])
        plain = dynamic_schedule(costs, 2)
        fed = dynamic_schedule(costs, 2, order=submission_order(costs))
        # Longest-first dispatch starts the heavy chunk immediately.
        assert fed.order[0] == 4
        assert fed.makespan <= plain.makespan


class TestSimulationVsReality:
    """The simulated order can be checked against what the pool really did."""

    def test_threaded_backend_records_execution_order(self):
        from repro.device.backend import ThreadedBackend
        from repro.device.scheduler import submission_order

        costs = np.random.default_rng(5).uniform(0.5, 4.0, 20)
        backend = ThreadedBackend(n_threads=1)
        backend.map_chunks(lambda x: x, list(range(20)), costs=costs)
        # One worker drains the queue exactly in submission order, which
        # is also what the simulator predicts for the same feed.
        expected = [int(i) for i in submission_order(costs)]
        assert backend.last_order == expected
        sim = dynamic_schedule(costs, 1, order=submission_order(costs))
        assert backend.last_order == sim.order

    def test_multithread_order_is_permutation(self):
        from repro.device.backend import ThreadedBackend

        backend = ThreadedBackend(n_threads=4)
        backend.map_chunks(lambda x: x, list(range(40)),
                           costs=np.ones(40))
        assert sorted(backend.last_order) == list(range(40))

    def test_serial_backends_identity_order(self):
        from repro.core.compressor import InlineBackend
        from repro.device.backend import GpuSimBackend, SerialBackend

        for backend in (InlineBackend(), SerialBackend(), GpuSimBackend()):
            backend.map_chunks(lambda x: x, list(range(9)))
            assert backend.last_order == list(range(9))

    def test_decode_order_matches_simulation_single_worker(self, smooth_f32):
        from repro.core.compressor import compress, decompress
        from repro.device.backend import ThreadedBackend
        from repro.device.scheduler import submission_order

        class PerChunkThreadedBackend(ThreadedBackend):
            # The per-chunk scheduler is the object under test; decline
            # batches (batched decode issues map_batch shards, not one
            # map_chunks call per chunk).
            batch_capable = False

        stream = compress(smooth_f32, mode="abs", error_bound=1e-3)
        backend = PerChunkThreadedBackend(n_threads=1)
        decompress(stream, backend=backend)
        # Feed the simulator the stream's real size table (decode costs).
        from repro.core.random_access import StreamDecoder

        sizes = StreamDecoder(stream)._sizes
        sim = dynamic_schedule(sizes.astype(np.float64), 1,
                               order=submission_order(sizes))
        assert backend.last_order == sim.order
