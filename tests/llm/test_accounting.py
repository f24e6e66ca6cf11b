"""Tests for repro.llm.accounting."""

import pytest

from repro.llm.accounting import (
    completion_tokens,
    meter_response,
    request_prompt_tokens,
)
from repro.llm.base import ChatMessage, CompletionRequest
from repro.llm.profiles import get_profile


@pytest.fixture()
def request_():
    return CompletionRequest(
        messages=(ChatMessage(role="system", content="You are helpful."),
                  ChatMessage(role="user", content="Question 1: hello?")),
        model="gpt-3.5",
    )


class TestMetering:
    def test_prompt_tokens_positive(self, request_):
        assert request_prompt_tokens(request_) > 5

    def test_meter_response_fills_usage_and_latency(self, request_):
        profile = get_profile("gpt-3.5")
        response = meter_response(profile, request_, "Answer 1: hi")
        assert response.usage.prompt_tokens == request_prompt_tokens(request_)
        assert response.usage.completion_tokens == completion_tokens("Answer 1: hi")
        assert response.latency_s > profile.latency.base_s


class TestUsageLedger:
    """The dollars column of a run's usage (Table 3)."""

    def test_cost_uses_model_prices(self, request_):
        cheap, pricey = get_profile("gpt-3.5"), get_profile("gpt-4")
        gpt4_request = CompletionRequest(messages=request_.messages, model="gpt-4")
        a = meter_response(cheap, request_, "x").usage
        b = meter_response(pricey, gpt4_request, "x").usage
        assert pricey.cost_usd(b.prompt_tokens, b.completion_tokens) > (
            cheap.cost_usd(a.prompt_tokens, a.completion_tokens)
        )
