"""Tests for repro.core.executor (lane scheduling and fault tolerance)."""

import json

import pytest

from repro.core.executor import BatchExecutor, ExecutorConfig
from repro.errors import (
    ExecutionGiveUpError,
    RateLimitError,
    TransientLLMError,
)
from repro.llm.base import (
    ChatMessage,
    CompletionRequest,
    CompletionResponse,
    Usage,
)
from repro.llm.faults import Fault, FaultInjectingClient, fail_first
from repro.llm.ratelimit import RateLimit


def _request(i=1):
    return CompletionRequest(
        messages=(ChatMessage(role="user", content=f"Question {i}: ping"),),
        model="gpt-3.5",
    )


class _FixedLatencyClient:
    """Serves a canned reply with a fixed modeled latency."""

    def __init__(self, latency_s=10.0):
        self._latency = latency_s
        self.n_calls = 0

    def complete(self, request):
        self.n_calls += 1
        return CompletionResponse(
            text="Answer 1: yes",
            model=request.model,
            usage=Usage(prompt_tokens=10, completion_tokens=5),
            latency_s=self._latency,
        )


class TestExecutorConfig:
    def test_defaults_are_sequential(self):
        config = ExecutorConfig()
        assert config.concurrency == 1
        assert config.timeout_s is None

    @pytest.mark.parametrize("kwargs", [
        {"concurrency": 0},
        {"max_attempts": 0},
        {"timeout_s": 0.0},
        {"base_backoff_s": -1.0},
        {"backoff_multiplier": 0.5},
        {"jitter": 1.5},
        {"breaker_threshold": -1},
        {"breaker_cooldown_s": -1.0},
        {"max_rate_limit_waits": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ExecutorConfig(**kwargs)


class TestLaneScheduling:
    def test_single_lane_sums_latency(self):
        executor = BatchExecutor(_FixedLatencyClient(10.0), ExecutorConfig())
        for i in range(4):
            executor.call(_request(i))
        report = executor.report()
        assert report.makespan_s == pytest.approx(40.0)
        assert report.sequential_s == pytest.approx(40.0)
        assert report.speedup == pytest.approx(1.0)

    def test_two_lanes_overlap_latency(self):
        executor = BatchExecutor(
            _FixedLatencyClient(10.0), ExecutorConfig(concurrency=2)
        )
        for i in range(4):
            executor.call(_request(i))
        report = executor.report()
        assert report.makespan_s == pytest.approx(20.0)
        assert report.sequential_s == pytest.approx(40.0)
        assert report.speedup == pytest.approx(2.0)
        assert [lane.n_calls for lane in report.lanes] == [2, 2]
        assert all(
            lane.utilization == pytest.approx(1.0) for lane in report.lanes
        )

    def test_more_lanes_than_calls(self):
        executor = BatchExecutor(
            _FixedLatencyClient(10.0), ExecutorConfig(concurrency=8)
        )
        for i in range(3):
            executor.call(_request(i))
        report = executor.report()
        assert report.makespan_s == pytest.approx(10.0)
        assert report.n_calls == 3

    def test_ready_at_delays_start(self):
        executor = BatchExecutor(_FixedLatencyClient(10.0), ExecutorConfig())
        __, finished = executor.call(_request(), ready_at=100.0)
        assert finished == pytest.approx(110.0)
        # The waiting gap is idle, not busy.
        assert executor.report().sequential_s == pytest.approx(10.0)

    def test_calls_issue_in_submission_order(self):
        client = _FixedLatencyClient(10.0)
        executor = BatchExecutor(client, ExecutorConfig(concurrency=4))
        responses = [executor.call(_request(i))[0] for i in range(6)]
        assert client.n_calls == 6
        assert all(r.text == "Answer 1: yes" for r in responses)


class TestRetries:
    def test_transient_failure_retried(self):
        client = FaultInjectingClient(
            _FixedLatencyClient(10.0),
            fail_first(1, Fault("transient", latency_s=2.0)),
        )
        executor = BatchExecutor(client, ExecutorConfig(max_attempts=3))
        response, finished = executor.call(_request())
        assert response.text == "Answer 1: yes"
        report = executor.report()
        assert report.n_retries == 1
        assert report.n_giveups == 0
        # Busy time includes the burned 2s of the failed attempt.
        assert report.sequential_s == pytest.approx(12.0)
        # Finish time adds the backoff wait between attempts.
        assert finished > 12.0

    def test_retries_exhausted_gives_up(self):
        client = FaultInjectingClient(
            _FixedLatencyClient(10.0), fail_first(99, Fault("transient"))
        )
        executor = BatchExecutor(client, ExecutorConfig(max_attempts=3))
        with pytest.raises(ExecutionGiveUpError) as excinfo:
            executor.call(_request())
        assert excinfo.value.attempts == 3
        report = executor.report()
        assert report.n_giveups == 1
        assert report.n_retries == 2  # two retries after the first attempt

    def test_timeout_converts_spike_to_retry(self):
        client = FaultInjectingClient(
            _FixedLatencyClient(10.0),
            {1: Fault("latency", latency_s=500.0)},
        )
        executor = BatchExecutor(
            client, ExecutorConfig(max_attempts=2, timeout_s=60.0)
        )
        response, __ = executor.call(_request())
        assert response.text == "Answer 1: yes"
        report = executor.report()
        assert report.n_timeouts == 1
        assert report.n_retries == 1
        # The lane burned the timeout, not the whole 500s spike.
        assert report.sequential_s == pytest.approx(60.0 + 10.0)

    def test_backoff_is_deterministic(self):
        def build():
            client = FaultInjectingClient(
                _FixedLatencyClient(10.0),
                fail_first(2, Fault("transient")),
            )
            executor = BatchExecutor(
                client, ExecutorConfig(max_attempts=3, seed=7)
            )
            executor.call(_request())
            return executor.report().makespan_s

        assert build() == build()


class TestCircuitBreaker:
    def test_consecutive_failures_trip_the_lane(self):
        client = FaultInjectingClient(
            _FixedLatencyClient(10.0), fail_first(3, Fault("transient"))
        )
        executor = BatchExecutor(
            client,
            ExecutorConfig(
                max_attempts=4, breaker_threshold=3, breaker_cooldown_s=120.0
            ),
        )
        response, finished = executor.call(_request())
        assert response.text == "Answer 1: yes"
        report = executor.report()
        assert report.n_breaker_trips == 1
        assert report.lanes[0].n_breaker_trips == 1
        # The successful attempt had to wait out the cooldown.
        assert finished >= 120.0

    def test_breaker_disabled_with_zero_threshold(self):
        client = FaultInjectingClient(
            _FixedLatencyClient(10.0), fail_first(3, Fault("transient"))
        )
        executor = BatchExecutor(
            client, ExecutorConfig(max_attempts=4, breaker_threshold=0)
        )
        executor.call(_request())
        assert executor.report().n_breaker_trips == 0

    def test_open_lane_is_avoided(self):
        # Lane 0 trips; the next call should land on lane 1 untouched by
        # the cooldown.
        client = FaultInjectingClient(
            _FixedLatencyClient(10.0), fail_first(2, Fault("transient"))
        )
        executor = BatchExecutor(
            client,
            ExecutorConfig(
                concurrency=2, max_attempts=1, breaker_threshold=2,
                breaker_cooldown_s=500.0,
            ),
        )
        with pytest.raises(ExecutionGiveUpError):
            executor.call(_request())
        with pytest.raises(ExecutionGiveUpError):
            executor.call(_request())
        __, finished = executor.call(_request())
        assert finished < 500.0
        report = executor.report()
        assert report.n_breaker_trips == 1


class TestRateLimits:
    def test_own_budget_stalls_and_recovers(self):
        executor = BatchExecutor(
            _FixedLatencyClient(1.0),
            ExecutorConfig(rate_limit=RateLimit(2, 10**9)),
        )
        for i in range(3):
            executor.call(_request(i))
        report = executor.report()
        assert report.n_rate_limit_waits >= 1
        assert report.makespan_s >= 60.0
        assert report.n_giveups == 0

    def test_budget_is_global_across_lanes(self):
        executor = BatchExecutor(
            _FixedLatencyClient(1.0),
            ExecutorConfig(concurrency=4, rate_limit=RateLimit(2, 10**9)),
        )
        for i in range(4):
            executor.call(_request(i))
        report = executor.report()
        # Four lanes could all start at t=0, but only two requests fit in
        # the shared minute window.
        assert report.n_rate_limit_waits >= 1
        assert report.makespan_s >= 60.0

    def test_upstream_429_is_a_stall_not_a_failure(self):
        client = FaultInjectingClient(
            _FixedLatencyClient(1.0),
            {1: Fault("rate_limit", retry_after=30.0)},
        )
        executor = BatchExecutor(client, ExecutorConfig(max_attempts=1))
        response, finished = executor.call(_request())
        assert response.text == "Answer 1: yes"
        report = executor.report()
        assert report.n_rate_limit_waits == 1
        assert report.n_retries == 0
        assert report.n_breaker_trips == 0
        assert finished >= 30.0

    def test_endless_429_eventually_gives_up(self):
        client = FaultInjectingClient(
            _FixedLatencyClient(1.0),
            fail_first(999, Fault("rate_limit", retry_after=1.0)),
        )
        executor = BatchExecutor(
            client, ExecutorConfig(max_rate_limit_waits=3)
        )
        with pytest.raises(ExecutionGiveUpError):
            executor.call(_request())
        assert executor.report().n_giveups == 1


class TestJitterCheckpoint:
    """The journal keeps the jitter generator as a count of draws."""

    @pytest.mark.parametrize("k", [0, 1, 50])
    def test_restored_executor_continues_the_jitter_sequence(self, k):
        # calls 1..k fail (the first request's k jittered backoffs), then
        # calls k+2..k+4 fail (the follow-up request's three)
        def plan(index):
            failing = index <= k or k + 2 <= index <= k + 4
            return Fault("transient") if failing else None

        def executor():
            client = FaultInjectingClient(_FixedLatencyClient(10.0), plan)
            config = ExecutorConfig(max_attempts=60, seed=11)
            return BatchExecutor(client, config), client

        original, original_client = executor()
        original.call(_request())
        assert original.report().n_retries == k
        state = json.loads(json.dumps(original.checkpoint_state()))
        assert state["rng_draws"] == k

        resumed, resumed_client = executor()
        resumed.restore_checkpoint_state(state)
        resumed_client.restore_checkpoint_state(
            original_client.checkpoint_state()
        )
        assert resumed.checkpoint_state() == original.checkpoint_state()

        def follow_up(run):
            __, finished = run.call(_request(2))
            return finished, [run._jittered(1.0) for __ in range(20)]

        assert follow_up(resumed) == follow_up(original)
        assert resumed.checkpoint_state() == original.checkpoint_state()
        assert resumed.checkpoint_state()["rng_draws"] == k + 23
