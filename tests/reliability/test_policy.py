"""RetryPolicy and call_with_retry — determinism pinned exact."""

import pytest

from repro.reliability.policy import RetryPolicy, call_with_retry


class TestRetryPolicySchedule:
    def test_schedule_pinned_bitwise(self):
        # The full backoff schedule is a pure function of
        # (seed, key, attempt); these exact floats must never drift —
        # they are what makes a retried grid reproducible in time.
        policy = RetryPolicy(
            max_attempts=4,
            base_delay=0.05,
            multiplier=2.0,
            max_delay=5.0,
            jitter=0.1,
            seed=0,
        )
        assert policy.schedule("deadbeef") == (
            0.050517262027885895,
            0.09771262330471275,
            0.20934515417513044,
        )
        assert policy.schedule("cafebabe") == (
            0.046902933940497514,
            0.09965894582160215,
            0.1909173475868842,
        )

    def test_delay_pure(self):
        policy = RetryPolicy()
        assert policy.delay("k", 2) == policy.delay("k", 2)

    def test_keys_get_distinct_jitter(self):
        policy = RetryPolicy()
        assert policy.delay("k1", 1) != policy.delay("k2", 1)

    def test_jitter_bounded(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=10.0, jitter=0.25
        )
        for attempt in range(1, 6):
            raw = min(0.1 * 2.0 ** (attempt - 1), 10.0)
            delay = policy.delay("some-key", attempt)
            assert raw * 0.75 <= delay <= raw * 1.25

    def test_no_jitter_is_exact_exponential_with_cap(self):
        policy = RetryPolicy(
            max_attempts=4,
            base_delay=0.1,
            multiplier=3.0,
            max_delay=0.5,
            jitter=0.0,
        )
        assert policy.schedule("anything") == (0.1, 0.30000000000000004, 0.5)

    def test_should_retry_budget(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(1)
        assert policy.should_retry(2)
        assert not policy.should_retry(3)

    def test_single_attempt_never_retries(self):
        assert not RetryPolicy(max_attempts=1).should_retry(1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay": -0.1},
            {"multiplier": 0.5},
            {"jitter": 1.0},
            {"jitter": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay("k", 0)


class TestCallWithRetry:
    def test_success_after_failures_sleeps_the_schedule(self):
        policy = RetryPolicy(max_attempts=3, jitter=0.1, seed=0)
        sleeps = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise IOError("transient")
            return "ok"

        result = call_with_retry(
            flaky, policy, key="job-1", sleeper=sleeps.append
        )
        assert result == "ok"
        assert calls["n"] == 3
        # The sleeps are exactly the policy's deterministic schedule.
        assert tuple(sleeps) == policy.schedule("job-1")

    def test_exhaustion_reraises_last_error(self):
        policy = RetryPolicy(max_attempts=2)

        def always_fails():
            raise ValueError("permanent")

        with pytest.raises(ValueError, match="permanent"):
            call_with_retry(
                always_fails, policy, sleeper=lambda _s: None
            )

    def test_retry_on_filters_exception_types(self):
        policy = RetryPolicy(max_attempts=5)

        def fails():
            raise KeyError("not retryable")

        with pytest.raises(KeyError):
            call_with_retry(
                fails, policy, retry_on=(OSError,), sleeper=lambda _s: None
            )

    def test_on_retry_observes_each_failure(self):
        policy = RetryPolicy(max_attempts=3)
        seen = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise IOError(f"fail-{calls['n']}")
            return 42

        call_with_retry(
            flaky,
            policy,
            sleeper=lambda _s: None,
            on_retry=lambda attempt, error: seen.append((attempt, str(error))),
        )
        assert seen == [(1, "fail-1"), (2, "fail-2")]
