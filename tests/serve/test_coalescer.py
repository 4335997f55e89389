"""Tests for repro.serve.coalescer."""

import threading
import time

import pytest

from repro.serve.coalescer import RequestCoalescer


def _echo_batch(requests):
    return [("done", request) for request in requests]


def _times_ten(requests):
    return [request * 10 for request in requests]


def _backlog(compute, *, max_batch, n_followers):
    """Block the first ``compute`` call on request 0 until ``n_followers``
    more requests (1..n_followers) have queued behind it, then release it.

    Returns the coalescer, the batches ``compute`` received, and each
    caller's outcomes as ``value -> [("ok", result) | ("error", error)]``.
    """
    entered, release = threading.Event(), threading.Event()
    batches = []

    def blocking_compute(requests):
        batches.append(list(requests))
        if len(batches) == 1:
            entered.set()
            assert release.wait(timeout=10)
        return compute(requests)

    coalescer = RequestCoalescer(blocking_compute, max_batch=max_batch)
    outcomes = {value: [] for value in range(n_followers + 1)}

    def client(value):
        try:
            result = coalescer.submit(value)
        except Exception as error:  # noqa: BLE001
            outcomes[value].append(("error", error))
        else:
            outcomes[value].append(("ok", result))

    threads = [threading.Thread(target=client, args=(0,), daemon=True)]
    threads[0].start()
    assert entered.wait(timeout=10)
    for value in range(1, n_followers + 1):
        threads.append(threading.Thread(target=client, args=(value,), daemon=True))
        threads[-1].start()
    # Hang guard only: every follower has queued once the counter
    # reaches them, whatever the timing.
    deadline = time.monotonic() + 10
    while coalescer.stats.requests < n_followers + 1:
        assert time.monotonic() < deadline, "followers never queued"
        time.sleep(0.001)
    release.set()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert coalescer.stats.batch_sizes == [len(batch) for batch in batches]
    return coalescer, batches, outcomes


class TestSingleCaller:
    def test_single_request_round_trips(self):
        coalescer = RequestCoalescer(_echo_batch)
        assert coalescer.submit(42) == ("done", 42)
        assert coalescer.stats.requests == 1
        assert coalescer.stats.batches == 1
        assert coalescer.stats.batch_sizes == [1]

    def test_sequential_requests_each_get_own_batch(self):
        coalescer = RequestCoalescer(_echo_batch)
        for value in range(5):
            assert coalescer.submit(value) == ("done", value)
        assert coalescer.stats.batches == 5

    def test_compute_error_propagates(self):
        def boom(requests):
            raise RuntimeError("scoring failed")

        coalescer = RequestCoalescer(boom)
        with pytest.raises(RuntimeError, match="scoring failed"):
            coalescer.submit(1)

    def test_result_count_mismatch_is_an_error(self):
        coalescer = RequestCoalescer(lambda requests: [])
        with pytest.raises(RuntimeError, match="0 results for 1 requests"):
            coalescer.submit(1)

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            RequestCoalescer(_echo_batch, max_batch=0)

    def test_lone_submit_makes_no_timed_wait(self, monkeypatch):
        # A lone caller has no batch partners to wait for: no condition
        # variable (an Event's included) may be waited on.
        waits = []

        class CountingCondition(threading.Condition):
            def wait(self, timeout=None):
                waits.append(timeout)
                return super().wait(timeout)

        monkeypatch.setattr(threading, "Condition", CountingCondition)
        coalescer = RequestCoalescer(_echo_batch)
        assert coalescer.submit(42) == ("done", 42)
        assert waits == []


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

        coalescer = RequestCoalescer(compute, max_batch=8)
        results, errors = self._run_clients(coalescer, 8)
        assert not errors
        assert results == [value * 10 for value in range(8)]
        # Everyone must have been computed exactly once overall.
        assert sum(calls) == 8
        assert coalescer.stats.requests == 8

    def test_batches_actually_coalesce(self):
        # Seven misses queued behind a running batch share one gemm.
        _, batches, outcomes = _backlog(_times_ten, max_batch=16, n_followers=7)
        assert batches[0] == [0]
        assert [sorted(batch) for batch in batches[1:]] == [list(range(1, 8))]
        assert outcomes == {value: [("ok", value * 10)] for value in range(8)}

    def test_max_batch_respected(self):
        _, batches, outcomes = _backlog(_times_ten, max_batch=3, n_followers=7)
        assert [len(batch) for batch in batches] == [1, 3, 3, 1]
        assert outcomes == {value: [("ok", value * 10)] for value in range(8)}

    def test_error_reaches_every_batch_member(self):
        # Only the backlog batch fails: each of its four members gets
        # that very error, and the leader's own request, computed in the
        # batch before, still gets its result.
        failure = ValueError("batch failed")

        def fail_backlog(requests):
            if requests != [0]:
                raise failure
            return _times_ten(requests)

        coalescer, batches, outcomes = _backlog(
            fail_backlog, max_batch=8, n_followers=4
        )
        assert coalescer.stats.batch_sizes == [1, 4]
        assert sorted(batches[1]) == [1, 2, 3, 4]
        assert outcomes[0] == [("ok", 0)]
        for value in (1, 2, 3, 4):
            assert len(outcomes[value]) == 1
            kind, error = outcomes[value][0]
            assert kind == "error" and error is failure


class TestFailureSemantics:
    """Leader failure must never wedge the queue (the reliability-layer
    regression fix)."""

    def test_failed_batch_does_not_wedge_the_queue(self):
        calls = {"n": 0}

        def flaky(requests):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("first batch dies")
            return list(requests)

        coalescer = RequestCoalescer(flaky)
        with pytest.raises(RuntimeError):
            coalescer.submit(1)
        # The next submit elects a fresh leader and succeeds.
        assert coalescer.submit(2) == 2

    def test_error_delivered_exactly_once_per_caller(self):
        # Every batch fails, the leader's lone one and the backlog of
        # four behind it: each caller hears of its own batch's error
        # exactly once, and the leader does not stop at its own failure.
        def boom(requests):
            raise ValueError(f"batch of {len(requests)} failed")

        coalescer, _, outcomes = _backlog(boom, max_batch=8, n_followers=4)
        assert coalescer.stats.batch_sizes == [1, 4]
        assert [len(outcomes[value]) for value in range(5)] == [1] * 5
        messages = {
            value: str(error)
            for value, [(kind, error)] in outcomes.items()
            if kind == "error"
        }
        assert messages == {
            0: "batch of 1 failed",
            **{value: "batch of 4 failed" for value in (1, 2, 3, 4)},
        }

    def test_leader_death_outside_compute_aborts_followers(self):
        coalescer = RequestCoalescer(_echo_batch)

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
