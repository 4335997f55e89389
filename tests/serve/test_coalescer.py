"""Tests for repro.serve.coalescer."""

import threading

import pytest

from repro.serve.coalescer import RequestCoalescer


def _echo_batch(requests):
    return [("done", request) for request in requests]


class TestSingleCaller:
    def test_single_request_round_trips(self):
        coalescer = RequestCoalescer(_echo_batch, max_wait=0.0)
        assert coalescer.submit(42) == ("done", 42)
        assert coalescer.stats.requests == 1
        assert coalescer.stats.batches == 1
        assert coalescer.stats.batch_sizes == [1]

    def test_sequential_requests_each_get_own_batch(self):
        coalescer = RequestCoalescer(_echo_batch, max_wait=0.0)
        for value in range(5):
            assert coalescer.submit(value) == ("done", value)
        assert coalescer.stats.batches == 5

    def test_compute_error_propagates(self):
        def boom(requests):
            raise RuntimeError("scoring failed")

        coalescer = RequestCoalescer(boom, max_wait=0.0)
        with pytest.raises(RuntimeError, match="scoring failed"):
            coalescer.submit(1)

    def test_result_count_mismatch_is_an_error(self):
        coalescer = RequestCoalescer(lambda requests: [], max_wait=0.0)
        with pytest.raises(RuntimeError, match="0 results for 1 requests"):
            coalescer.submit(1)

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            RequestCoalescer(_echo_batch, max_batch=0)
        with pytest.raises(ValueError):
            RequestCoalescer(_echo_batch, max_wait=-0.1)


class TestConcurrentCallers:
    def _run_clients(self, coalescer, n_clients, values=None):
        values = list(range(n_clients)) if values is None else values
        results = [None] * len(values)
        errors = []
        barrier = threading.Barrier(len(values))

        def client(position, value):
            barrier.wait()
            try:
                results[position] = coalescer.submit(value)
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [
            threading.Thread(target=client, args=(position, value))
            for position, value in enumerate(values)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        return results, errors

    def test_concurrent_requests_all_answered(self):
        calls = []

        def compute(requests):
            calls.append(len(requests))
            return [request * 10 for request in requests]

        coalescer = RequestCoalescer(compute, max_batch=8, max_wait=0.05)
        results, errors = self._run_clients(coalescer, 8)
        assert not errors
        assert results == [value * 10 for value in range(8)]
        # Everyone must have been computed exactly once overall.
        assert sum(calls) == 8
        assert coalescer.stats.requests == 8

    def test_batches_actually_coalesce(self):
        started = threading.Event()

        def compute(requests):
            started.set()
            return list(requests)

        coalescer = RequestCoalescer(compute, max_batch=16, max_wait=0.2)
        results, errors = self._run_clients(coalescer, 8)
        assert not errors
        assert sorted(results) == list(range(8))
        # With a generous fill window and simultaneous arrival, at least
        # one multi-request batch must have formed.
        assert coalescer.stats.max_batch_size >= 2

    def test_max_batch_respected(self):
        def compute(requests):
            return list(requests)

        coalescer = RequestCoalescer(compute, max_batch=3, max_wait=0.05)
        results, errors = self._run_clients(coalescer, 10)
        assert not errors
        assert sorted(results) == list(range(10))
        assert coalescer.stats.max_batch_size <= 3
        assert sum(coalescer.stats.batch_sizes) == 10

    def test_error_reaches_every_batch_member(self):
        def boom(requests):
            raise ValueError("batch failed")

        coalescer = RequestCoalescer(boom, max_batch=8, max_wait=0.05)
        results, errors = self._run_clients(coalescer, 4)
        assert results == [None] * 4
        assert len(errors) == 4
        assert all(isinstance(error, ValueError) for error in errors)


class TestFailureSemantics:
    """Leader failure must never wedge the queue (the reliability-layer
    regression fix), and follower waits can be deadline-bounded."""

    def test_failed_batch_does_not_wedge_the_queue(self):
        calls = {"n": 0}

        def flaky(requests):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("first batch dies")
            return list(requests)

        coalescer = RequestCoalescer(flaky, max_wait=0.0)
        with pytest.raises(RuntimeError):
            coalescer.submit(1)
        # The next submit elects a fresh leader and succeeds.
        assert coalescer.submit(2) == 2

    def test_error_delivered_exactly_once_per_caller(self):
        delivered = []

        def boom(requests):
            raise ValueError("batch failed")

        coalescer = RequestCoalescer(boom, max_batch=8, max_wait=0.2)
        barrier = threading.Barrier(4)

        def client(value):
            barrier.wait()
            try:
                coalescer.submit(value)
            except ValueError as error:
                delivered.append((value, error))

        threads = [
            threading.Thread(target=client, args=(v,)) for v in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(value for value, _ in delivered) == [0, 1, 2, 3]

    def test_leader_death_outside_compute_aborts_followers(self):
        coalescer = RequestCoalescer(_echo_batch, max_wait=0.0)

        # Simulate the leader thread dying between rounds (a bug, a
        # KeyboardInterrupt): followers queued behind it must be failed,
        # not left waiting on a leader that no longer exists.
        def broken_lead():
            raise KeyboardInterrupt("leader killed")

        coalescer._lead = broken_lead
        with pytest.raises(KeyboardInterrupt):
            coalescer.submit(1)
        assert coalescer.stats.leader_aborts == 1
        # The coalescer recovers: leadership was vacated.
        del coalescer._lead  # restore the real method
        assert coalescer.submit(2) == ("done", 2)
