"""Failure injection: the pipeline under a misbehaving API.

Production LLM pipelines survive flaky clients; these tests inject
transient garbage, intermittent rate-limit storms, partially-numbered
replies, and abrupt context-window changes, and assert the stack degrades
gracefully (correct alignment, counted fallbacks, no crashes).

The executor-era matrix at the bottom drives the scripted
:class:`~repro.llm.faults.FaultInjectingClient` through the
:class:`~repro.core.executor.BatchExecutor`: timeout-then-retry-success,
retries-exhausted, circuit-breaker trip with fallback to smaller batches,
and rate-limit stalls under lane contention — each asserting the
``ExecutionReport`` counters.
"""

import pytest

from repro import PipelineConfig, Preprocessor, SimulatedLLM
from repro.core.executor import ExecutorConfig
from repro.errors import ContextWindowExceededError, RateLimitError
from repro.llm.accounting import meter_response
from repro.llm.base import CompletionRequest, CompletionResponse
from repro.llm.faults import Fault, FaultInjectingClient
from repro.llm.profiles import get_profile
from repro.llm.ratelimit import RateLimit
from tests.fixtures import fail_first


class _FlakyClient:
    """Returns garbage on the first attempt of every batch, then recovers."""

    def __init__(self, inner):
        self._inner = inner
        self._seen: set[tuple] = set()

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        key = tuple(request.transcript)
        if key not in self._seen:
            self._seen.add(key)
            return meter_response(
                get_profile(request.model), request, "ERROR: upstream glitch"
            )
        return self._inner.complete(request)


class _PartialClient:
    """Answers only the odd-numbered questions of every batch."""

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        final = request.messages[-1].content
        count = final.count("Question ")
        blocks = [
            f"Answer {i}: yes" for i in range(1, count + 1) if i % 2 == 1
        ]
        return meter_response(
            get_profile(request.model), request, "\n".join(blocks)
        )


class _StormyLimiter:
    """A client that raises RateLimitError on every other call."""

    def __init__(self, inner):
        self._inner = inner
        self._calls = 0

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        self._calls += 1
        if self._calls % 2 == 1:
            raise RateLimitError(retry_after=0.5)
        return self._inner.complete(request)


class _ShrinkingWindowClient:
    """Starts refusing prompts over a budget after the first call."""

    def __init__(self, inner, budget):
        self._inner = inner
        self._budget = budget
        self._calls = 0

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        from repro.llm.accounting import request_prompt_tokens

        self._calls += 1
        if self._calls > 1 and request_prompt_tokens(request) > self._budget:
            raise ContextWindowExceededError(
                request.model, request_prompt_tokens(request), self._budget
            )
        return self._inner.complete(request)


class TestTransientGarbage:
    def test_retry_recovers_everything(self, restaurant_dataset):
        client = _FlakyClient(SimulatedLLM("gpt-4"))
        result = Preprocessor(
            client, PipelineConfig(model="gpt-4", max_format_retries=1)
        ).run(restaurant_dataset)
        assert result.n_fallbacks == 0
        assert result.n_format_retries > 0
        assert all(p for p in result.predictions)

    def test_no_retry_budget_counts_fallbacks(self, restaurant_dataset):
        client = _FlakyClient(SimulatedLLM("gpt-4"))
        result = Preprocessor(
            client, PipelineConfig(model="gpt-4", max_format_retries=0)
        ).run(restaurant_dataset)
        assert result.n_fallbacks == len(restaurant_dataset.instances)


class TestPartialReplies:
    def test_salvage_preserves_alignment(self, beer_dataset):
        result = Preprocessor(
            _PartialClient(),
            PipelineConfig(model="gpt-3.5", batch_size=4,
                           max_format_retries=0),
        ).run(beer_dataset)
        n = len(beer_dataset.instances)
        yes_count = sum(1 for p in result.predictions if p is True)
        no_count = sum(1 for p in result.predictions if p is False)
        assert yes_count + no_count == n
        # Odd positions answered yes, even positions fell back to no.
        assert yes_count > 0 and no_count > 0
        assert result.n_fallbacks == no_count


class TestRateLimitStorm:
    def test_retrying_client_rides_it_out(self, restaurant_dataset):
        # Every other call is an upstream 429; the executor's retry loop
        # waits each one out under its own rate limit.
        result = Preprocessor(
            _StormyLimiter(SimulatedLLM("gpt-4")),
            PipelineConfig(model="gpt-4"),
            ExecutorConfig(rate_limit=RateLimit(10**6, 10**9)),
        ).run(restaurant_dataset)
        assert result.n_fallbacks == 0
        assert result.execution.n_rate_limit_waits > 0


class TestWindowShrink:
    def test_batch_splitting_adapts(self, restaurant_dataset):
        client = _ShrinkingWindowClient(SimulatedLLM("gpt-4"), budget=1200)
        result = Preprocessor(
            client, PipelineConfig(model="gpt-4", batch_size=12)
        ).run(restaurant_dataset)
        assert len(result.predictions) == len(restaurant_dataset.instances)
        assert result.n_fallbacks < len(restaurant_dataset.instances) * 0.2


# --------------------------------------------------------------------------
# Executor fault matrix: scripted faults through the concurrent executor.
# --------------------------------------------------------------------------


def _run_with_faults(dataset, plan, executor_config, **config_kwargs):
    client = FaultInjectingClient(SimulatedLLM("gpt-4"), plan)
    config = PipelineConfig(model="gpt-4", **config_kwargs)
    result = Preprocessor(client, config, executor_config).run(dataset)
    assert len(result.predictions) == len(dataset.instances)
    return result, client


class TestTimeoutThenRetrySuccess:
    def test_spike_times_out_and_retry_recovers(self, restaurant_dataset):
        result, client = _run_with_faults(
            restaurant_dataset,
            {1: Fault("latency", latency_s=500.0)},
            ExecutorConfig(timeout_s=60.0, max_attempts=3),
        )
        report = result.execution
        assert report.n_timeouts == 1
        assert report.n_retries == 1
        assert report.n_giveups == 0
        assert report.n_fallback_splits == 0
        assert result.n_fallbacks == 0
        # The lane was charged the 60s deadline, not the 500s spike.
        assert report.sequential_s < 500.0

    def test_without_timeout_the_spike_is_paid_in_full(self, restaurant_dataset):
        result, __ = _run_with_faults(
            restaurant_dataset,
            {1: Fault("latency", latency_s=500.0)},
            ExecutorConfig(timeout_s=None),
        )
        report = result.execution
        assert report.n_timeouts == 0
        assert report.sequential_s > 500.0


class TestRetriesExhausted:
    def test_giveup_splits_then_succeeds(self, restaurant_dataset):
        # Calls 1-3 fail: the first batch exhausts its three attempts and
        # is split in half; both halves then get through.
        result, __ = _run_with_faults(
            restaurant_dataset,
            fail_first(3, Fault("transient", latency_s=1.0)),
            ExecutorConfig(max_attempts=3, breaker_threshold=0),
        )
        report = result.execution
        assert report.n_giveups == 1
        assert report.n_retries == 2
        assert report.n_fallback_splits == 2
        assert result.n_fallbacks == 0

    def test_single_instance_giveup_falls_back(self, restaurant_dataset):
        # batch_size=1 leaves nothing to split: the first instance becomes
        # a safe fallback answer.
        result, __ = _run_with_faults(
            restaurant_dataset,
            fail_first(2, Fault("transient")),
            ExecutorConfig(max_attempts=2, breaker_threshold=0),
            batch_size=1,
        )
        report = result.execution
        assert report.n_giveups == 1
        assert report.n_fallback_splits == 0
        assert result.n_fallbacks == 1
        # Exactly one instance got DI's safe fallback answer (batching
        # shuffles, so its position is seed-dependent).
        assert sum(1 for p in result.predictions if p == "") == 1


class TestCircuitBreakerTripAndDegrade:
    def test_trip_then_fallback_to_smaller_batches(self, restaurant_dataset):
        # A burst of consecutive failures: attempts exhaust (give-up →
        # split into smaller batches) and the lane's breaker trips along
        # the way; the run still completes every instance.
        result, __ = _run_with_faults(
            restaurant_dataset,
            fail_first(6, Fault("transient", latency_s=1.0)),
            ExecutorConfig(
                max_attempts=2, breaker_threshold=3,
                breaker_cooldown_s=120.0,
            ),
        )
        report = result.execution
        assert report.n_breaker_trips >= 1
        assert report.n_giveups >= 2
        assert report.n_fallback_splits >= 2
        # Degradation, not collapse: most instances still answered.
        assert result.n_fallbacks < len(restaurant_dataset.instances) * 0.3
        # The cooldown is visible in the modeled wall-clock.
        assert result.estimated_seconds >= 120.0

    def test_breaker_cooldown_respected_across_batches(self, beer_dataset):
        result, __ = _run_with_faults(
            beer_dataset,
            fail_first(3, Fault("transient")),
            ExecutorConfig(
                max_attempts=4, breaker_threshold=3,
                breaker_cooldown_s=300.0,
            ),
        )
        report = result.execution
        assert report.n_breaker_trips == 1
        assert report.n_giveups == 0
        assert result.n_fallbacks == 0
        assert result.estimated_seconds >= 300.0


class TestRateLimitStallUnderContention:
    def test_lanes_contend_for_one_global_budget(self, restaurant_dataset):
        client = SimulatedLLM("gpt-4")
        config = PipelineConfig(model="gpt-4", concurrency=4)
        limited = ExecutorConfig(rate_limit=RateLimit(3, 10**9))
        result = Preprocessor(client, config, limited).run(restaurant_dataset)
        report = result.execution
        assert result.n_requests > 3  # enough traffic to contend
        assert report.n_rate_limit_waits >= 1
        assert report.n_giveups == 0
        assert result.n_fallbacks == 0
        # Stalls push the makespan past the window boundary.
        assert result.estimated_seconds >= 60.0

    def test_stalls_do_not_change_predictions(self, restaurant_dataset):
        free = Preprocessor(
            SimulatedLLM("gpt-4"),
            PipelineConfig(model="gpt-4", concurrency=4),
        ).run(restaurant_dataset)
        limited = Preprocessor(
            SimulatedLLM("gpt-4"),
            PipelineConfig(model="gpt-4", concurrency=4),
            ExecutorConfig(rate_limit=RateLimit(3, 10**9)),
        ).run(restaurant_dataset)
        assert limited.predictions == free.predictions
        assert limited.estimated_seconds > free.estimated_seconds
