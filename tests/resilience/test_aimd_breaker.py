"""AIMD lane adaptation and breaker transition accounting in the executor.

The controller itself is pure arithmetic; the integration contract is
that throttle signals narrow the usable width, successes widen it back,
breaker transitions are counted in the report, and — crucially — a run
without a :class:`ResilienceConfig` is bit-identical to the historical
executor (no new report fields, no new checkpoint content).
"""

import dataclasses
import json

import pytest

from repro.core.executor import BatchExecutor, ExecutorConfig
from repro.errors import ExecutionGiveUpError
from repro.llm.base import (
    ChatMessage,
    CompletionRequest,
    CompletionResponse,
    Usage,
)
from repro.llm.faults import Fault, FaultInjectingClient
from repro.resilience import AimdController, ResilienceConfig
from tests.fixtures import fail_first


def _request(i=1):
    return CompletionRequest(
        messages=(ChatMessage(role="user", content=f"Question {i}: ping"),),
        model="gpt-3.5",
    )


class _Served:
    def __init__(self, latency_s=1.0):
        self.latency_s = latency_s
        self.n_calls = 0

    def complete(self, request):
        self.n_calls += 1
        return CompletionResponse(
            text="Answer 1: yes", model=request.model,
            usage=Usage(prompt_tokens=10, completion_tokens=5),
            latency_s=self.latency_s,
        )


class TestAimdController:
    def test_width_starts_at_full_concurrency(self):
        controller = AimdController(ResilienceConfig(), 4)
        assert controller.width == 4

    def test_throttle_halves_success_creeps_back(self):
        controller = AimdController(ResilienceConfig(), 4)
        controller.on_throttle()
        assert controller.fractional_width == pytest.approx(2.0)
        controller.on_throttle()
        assert controller.fractional_width == pytest.approx(1.0)
        for __ in range(12):
            controller.on_success()
        assert controller.width == 4  # capped at concurrency

    def test_width_never_leaves_bounds(self):
        controller = AimdController(ResilienceConfig(), 3)
        for __ in range(50):
            controller.on_throttle()
            assert 1 <= controller.width <= 3
        for __ in range(50):
            controller.on_success()
            assert 1 <= controller.width <= 3

    def test_invalid_concurrency_rejected(self):
        with pytest.raises(ValueError):
            AimdController(ResilienceConfig(), 0)

    def test_checkpoint_roundtrip(self):
        controller = AimdController(ResilienceConfig(), 4)
        controller.on_throttle()
        controller.on_success()
        resumed = AimdController(ResilienceConfig(), 4)
        resumed.restore_checkpoint_state(controller.checkpoint_state())
        assert resumed.fractional_width == controller.fractional_width
        assert resumed.n_throttle_events == controller.n_throttle_events


class TestExecutorAimd:
    def test_upstream_throttles_narrow_the_width(self):
        client = FaultInjectingClient(
            _Served(),
            fail_first(2, Fault(kind="rate_limit", retry_after=1.0)),
        )
        executor = BatchExecutor(
            client,
            ExecutorConfig(concurrency=4, resilience=ResilienceConfig()),
        )
        executor.call(_request())
        aimd_state = executor.checkpoint_state()["aimd"]
        # two 429s halved 4 -> 2 -> 1; the success added 0.25 back
        assert aimd_state["n_throttle_events"] == 2
        assert aimd_state["width"] == pytest.approx(1.25)

    def test_width_recovers_under_success(self):
        executor = BatchExecutor(
            _Served(),
            ExecutorConfig(concurrency=2, resilience=ResilienceConfig()),
        )
        for i in range(8):
            executor.call(_request(i))
        aimd_state = executor.checkpoint_state()["aimd"]
        assert aimd_state["width"] == pytest.approx(2.0)
        assert aimd_state["n_success_events"] == 8

    def test_no_resilience_means_no_aimd_state(self):
        executor = BatchExecutor(_Served(), ExecutorConfig(concurrency=4))
        executor.call(_request())
        assert executor.checkpoint_state()["aimd"] is None


class TestBreakerTransitions:
    def _tripped_executor(self):
        client = FaultInjectingClient(
            _Served(),
            fail_first(2, Fault(kind="transient", latency_s=1.0)),
        )
        executor = BatchExecutor(
            client,
            ExecutorConfig(
                concurrency=1, max_attempts=2, breaker_threshold=2
            ),
        )
        return executor

    def test_trip_probe_close_are_counted(self):
        executor = self._tripped_executor()
        with pytest.raises(ExecutionGiveUpError):
            executor.call(_request(1))
        report = executor.report()
        assert report.n_breaker_trips == 1
        assert report.breaker_transitions["open"] == 1
        # the next call on the tripped lane is the half-open probe; the
        # healed client closes the circuit again
        executor.call(_request(2))
        transitions = executor.report().breaker_transitions
        assert transitions == {"open": 1, "half_open": 1, "close": 1}

    def test_transitions_ride_outside_the_dataclass_fields(self):
        # Run manifests serialize the report via dataclasses.asdict; the
        # transition counters must not change those bytes.
        executor = self._tripped_executor()
        with pytest.raises(ExecutionGiveUpError):
            executor.call(_request(1))
        report = executor.report()
        assert "breaker_transitions" not in dataclasses.asdict(report)
        assert report.breaker_transitions["open"] == 1

    def test_checkpoint_roundtrip_restores_circuit_view(self):
        executor = self._tripped_executor()
        with pytest.raises(ExecutionGiveUpError):
            executor.call(_request(1))
        # through sorted JSON, as the journal stores it
        state = json.loads(
            json.dumps(executor.checkpoint_state(), sort_keys=True)
        )
        assert state["circuit"]["lanes"] == ["open"]
        resumed = self._tripped_executor()
        resumed.restore_checkpoint_state(state)
        transitions = resumed.report().breaker_transitions
        assert transitions["open"] == 1
        # a resumed run prints the counts in the journaled run's order
        assert list(transitions) == list(executor.report().breaker_transitions)

    def test_legacy_checkpoints_without_resilience_keys_restore(self):
        # Journals written before the resilience PR carry no "aimd" or
        # "circuit" keys; restoring them must keep working.
        executor = BatchExecutor(_Served(), ExecutorConfig())
        executor.call(_request())
        state = executor.checkpoint_state()
        state.pop("aimd")
        state.pop("circuit")
        resumed = BatchExecutor(_Served(), ExecutorConfig())
        resumed.restore_checkpoint_state(state)
        resumed.call(_request(2))  # still schedules fine
