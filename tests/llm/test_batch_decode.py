"""The production decode path against the memo-free reference decoder.

:class:`SimulatedLLM` remembers shared prompt blocks, solver fits and
token counts; :class:`~tests.oracles.ReferenceLLM` decodes every
request from scratch.  The memo may only ever change host-CPU cost:
everything a caller can observe — reply text, token usage, latency, retry
resampling — must match the reference exactly, because the reference is
the decoder every golden snapshot and journal digest was recorded with.
"""

import pytest

from repro.core.config import PipelineConfig
from repro.core.prompts import PromptBuilder
from repro.core.tasks import target_attribute_of
from repro.datasets import load_dataset
from repro.errors import ContextWindowExceededError
from repro.llm.accounting import _shared_block_tokens
from repro.llm.base import ChatMessage, CompletionRequest
from repro.llm.promptparse import MEMO_MAX_ENTRIES, PromptParseMemo
from repro.llm.simulated import SimulatedLLM
from tests.oracles import (
    ReferenceLLM,
    build_decode_requests,
    decode_microbench,
)

#: (dataset, few-shot examples when on): ED, DI, SM and EM
_TASKS = (("adult", 10), ("restaurant", 10), ("synthea", 3), ("beer", 10))


def _pipeline_requests(dataset_name, reasoning, fewshot, model="gpt-3.5"):
    """Batched and single-question prompts as the pipeline builds them."""
    data = load_dataset(dataset_name, size=24)
    config = PipelineConfig(model=model, reasoning=reasoning, fewshot=fewshot)
    examples = data.sample_fewshot(fewshot) if fewshot else None
    by_target: dict = {}
    for instance in data.instances[:8]:
        by_target.setdefault(target_attribute_of(instance), []).append(instance)
    requests = []
    for target, instances in by_target.items():
        builder = PromptBuilder(data.task, config, target_attribute=target)
        for batch in (instances[:3], instances[3:4]):
            if batch:
                prompt = builder.build(batch, fewshot_examples=examples)
                requests.append(CompletionRequest(
                    messages=prompt.messages, model=model, temperature=0.75
                ))
    return requests


def _outcome(client, request):
    try:
        return client.complete(request)
    except ContextWindowExceededError as exc:
        return str(exc)


def _assert_match_reference(requests, model="gpt-3.5"):
    reference = ReferenceLLM(model, seed=0)
    client = SimulatedLLM(model, seed=0)
    for request in requests:
        expected = _outcome(reference, request)
        actual = _outcome(client, request)
        if isinstance(expected, str):
            assert actual == expected  # the same context-window refusal
            continue
        assert actual.text == expected.text
        assert actual.usage == expected.usage
        assert actual.latency_s == expected.latency_s


@pytest.fixture(scope="module")
def requests():
    # Every task, with and without reasoning, zero-shot and few-shot, then
    # one request repeated (a retry must still resample).
    built = []
    for dataset, fewshot in _TASKS:
        for reasoning in (True, False):
            for shots in (0, fewshot):
                built.extend(_pipeline_requests(dataset, reasoning, shots))
    return built + [built[0]] * 3


class TestVectorizedEquivalence:
    def test_replies_usage_and_latency_match_scalar(self, requests):
        _assert_match_reference(requests)

    def test_batch_equals_sequential_calls(self, requests):
        batched = SimulatedLLM("gpt-3.5", seed=0)
        sequential = SimulatedLLM("gpt-3.5", seed=0)
        batch = batched.complete_batch(requests)
        singles = [sequential.complete(request) for request in requests]
        assert batch == singles

    def test_retries_still_resample(self, requests):
        # The call counter advances on every call in both decoders: a
        # repeated prompt is a retry and may legitimately change its reply.
        repeated = [requests[0]] * 6
        replies = [
            r.text for r in SimulatedLLM("gpt-3.5", seed=0).complete_batch(repeated)
        ]
        reference = ReferenceLLM("gpt-3.5", seed=0)
        assert replies == [reference.complete(r).text for r in repeated]


class TestPromptShapes:
    def test_weak_model_rambles_identically(self):
        # Vicuna breaks the answer format often, which exercises the
        # per-question token counts behind the format-fidelity roll; its
        # 2k window refuses some 10-shot prompts, identically on both sides.
        for shots in (3, 10):
            requests = _pipeline_requests("adult", True, shots, model="vicuna-13b")
            _assert_match_reference(requests, model="vicuna-13b")

    def test_a_count_carried_from_elsewhere_is_reused(self):
        # The pipeline and rate limiters count a request before the client
        # sees it; the client must bill that same count.
        request = build_decode_requests(1)[0]
        assert request.prompt_tokens > 0
        reference = ReferenceLLM("gpt-3.5").complete(request)
        assert SimulatedLLM("gpt-3.5").complete(request) == reference


def _shared_prefix_requests(n):
    """``n`` requests with one shared prefix and distinct questions."""
    template = build_decode_requests(1)[0]
    *prefix, question = template.messages
    return [
        CompletionRequest(
            messages=(*prefix, ChatMessage(
                role="user",
                content=question.content.replace(
                    "Record is [", f'Record is [id: "{i}", ', 1
                ),
            )),
            model=template.model,
            temperature=template.temperature,
        )
        for i in range(n)
    ]


class TestMemoBehaviour:
    def test_shared_prefixes_hit_the_memo(self, requests):
        client = SimulatedLLM("gpt-3.5", seed=0)
        client.complete_batch(requests)
        memo = client.memo
        assert memo.hits > memo.misses
        assert memo.hits > 0

    def test_memo_does_not_grow_with_distinct_questions(self):
        sizes = {}
        for n in (50, 500):
            client = SimulatedLLM("gpt-3.5", seed=0)
            client.complete_batch(_shared_prefix_requests(n))
            sizes[n] = (len(client.memo), _shared_block_tokens.cache_info().currsize)
        assert sizes[50] == sizes[500]
        assert 0 < sizes[500][0] <= 3  # one system, one example pair, one fit

    def test_memo_is_bounded(self):
        memo = PromptParseMemo()
        for i in range(MEMO_MAX_ENTRIES + 5):
            memo.fit(("key", i), lambda: i)
        assert len(memo) == MEMO_MAX_ENTRIES
        newest = MEMO_MAX_ENTRIES + 4
        assert memo.fit(("key", newest), lambda: -1) == newest
        assert memo.fit(("key", 0), lambda: -1) == -1  # oldest evicted


class TestMicrobench:
    def test_microbench_reports_identity_and_positive_speedup(self):
        result = decode_microbench(n=60)
        assert result["identical"]
        assert result["speedup"] > 0
        assert result["memo"]["hits"] > 0
