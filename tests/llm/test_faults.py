"""Fault plans: positional, fingerprint-keyed, and checkpointable.

Positional schedules (1-based call index) drift the moment the pipeline
re-orders or bisects work; fingerprint-keyed schedules pin each fault to
the request's content, so a drill reproduces at any concurrency and any
retry order.
"""

import pytest

from repro.errors import InjectedCrashError, LLMError, TransientLLMError
from repro.llm.base import ChatMessage, CompletionRequest
from repro.llm.faults import Fault, FaultInjectingClient, request_fingerprint
from repro.llm.simulated import SimulatedLLM
from tests.fixtures import fail_first


def _request(content="hello", model="gpt-3.5", temperature=0.75):
    return CompletionRequest(
        messages=(
            ChatMessage(role="system", content="be terse"),
            ChatMessage(role="user", content=content),
        ),
        model=model,
        temperature=temperature,
    )


class _EchoClient:
    def complete(self, request):
        from repro.llm.accounting import meter_response
        from repro.llm.profiles import get_profile

        return meter_response(get_profile(request.model), request, "Answer 1: yes")


class TestRequestFingerprint:
    def test_identical_requests_share_a_fingerprint(self):
        assert request_fingerprint(_request()) == request_fingerprint(_request())

    def test_any_content_change_changes_it(self):
        base = request_fingerprint(_request())
        assert request_fingerprint(_request(content="other")) != base
        assert request_fingerprint(_request(model="gpt-4")) != base
        assert request_fingerprint(_request(temperature=0.2)) != base


class TestFingerprintKeyedPlans:
    def test_fault_fires_on_the_keyed_request_only(self):
        target = request_fingerprint(_request("fail me"))
        client = FaultInjectingClient(
            _EchoClient(), plan={target: Fault("transient")}
        )
        client.complete(_request("innocent"))  # untouched
        with pytest.raises(TransientLLMError):
            client.complete(_request("fail me"))
        assert client.n_injected == 1

    def test_schedule_is_consumed_per_occurrence(self):
        target = request_fingerprint(_request())
        client = FaultInjectingClient(
            _EchoClient(),
            plan={target: (Fault("transient"), None, Fault("transient"))},
        )
        with pytest.raises(TransientLLMError):
            client.complete(_request())       # occurrence 0: fault
        client.complete(_request())           # occurrence 1: served
        with pytest.raises(TransientLLMError):
            client.complete(_request())       # occurrence 2: fault
        client.complete(_request())           # schedule exhausted: served
        assert client.n_injected == 2
        assert client.n_calls == 4

    def test_single_fault_means_first_occurrence_only(self):
        target = request_fingerprint(_request())
        client = FaultInjectingClient(
            _EchoClient(), plan={target: Fault("transient")}
        )
        with pytest.raises(TransientLLMError):
            client.complete(_request())
        client.complete(_request())
        assert client.n_injected == 1

    def test_mixed_key_types_are_rejected(self):
        target = request_fingerprint(_request())
        with pytest.raises(LLMError):
            FaultInjectingClient(
                _EchoClient(),
                plan={1: Fault("transient"), target: Fault("transient")},
            )

    def test_crash_fault_raises_injected_crash(self):
        client = FaultInjectingClient(
            _EchoClient(), plan={1: Fault("crash", message="drill")}
        )
        with pytest.raises(InjectedCrashError) as excinfo:
            client.complete(_request())
        assert excinfo.value.site == "mid_batch"


class TestPositionalPlans:
    def test_positional_mapping_still_works(self):
        client = FaultInjectingClient(
            _EchoClient(), plan={2: Fault("transient")}
        )
        client.complete(_request())
        with pytest.raises(TransientLLMError):
            client.complete(_request())
        client.complete(_request())
        assert client.n_calls == 3

    def test_callable_plans_fault_by_call_index(self):
        first = FaultInjectingClient(_EchoClient(), fail_first(1, Fault("transient")))
        with pytest.raises(TransientLLMError):
            first.complete(_request())
        first.complete(_request())
        fault = Fault("transient")
        every = FaultInjectingClient(
            _EchoClient(), lambda index: fault if index % 2 == 0 else None
        )
        every.complete(_request())
        with pytest.raises(TransientLLMError):
            every.complete(_request())

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(LLMError):
            Fault("gremlin")


class TestCheckpointing:
    def _di_request(self, dataset):
        from repro.core.config import PipelineConfig
        from repro.core.prompts import PromptBuilder
        from repro.data.instances import Task

        builder = PromptBuilder(
            Task.DATA_IMPUTATION,
            PipelineConfig(),
            target_attribute="city",
        )
        prompt = builder.build(list(dataset.instances[:2]))
        return CompletionRequest(messages=prompt.messages, model="gpt-3.5")

    def test_state_round_trips_including_inner_client(self, restaurant_dataset):
        request = self._di_request(restaurant_dataset)
        target = request_fingerprint(request)
        original = FaultInjectingClient(
            SimulatedLLM("gpt-3.5", seed=0),
            plan={target: (Fault("transient"), None)},
        )
        with pytest.raises(TransientLLMError):
            original.complete(request)
        reply_a = original.complete(request).text
        state = original.checkpoint_state()
        reply_b = original.complete(request).text

        clone = FaultInjectingClient(
            SimulatedLLM("gpt-3.5", seed=0),
            plan={target: (Fault("transient"), None)},
        )
        clone.restore_checkpoint_state(state)
        assert clone.n_calls == 2
        assert clone.complete(request).text == reply_b
        assert reply_a is not None
