"""Reference oracles: the slow, obviously correct paths tests compare against.

The reference decoder is the simulated model with nothing remembered.

:class:`~repro.llm.simulated.SimulatedLLM` decodes on one path that skips
repeated work: a bounded memo replays the parse of shared system and
few-shot blocks and each solver's few-shot fit, a request counts its
prompt once (shared blocks from a cache, the question block line by
line), and each question's token count is read off its line's count.
:class:`ReferenceLLM` is the oracle those shortcuts are tested against.
It decodes every request from scratch:

- the whole transcript is parsed (:func:`reference_parse_prompt`);
- every solver fit is recomputed;
- tokens are counted over the full transcript
  (:func:`~repro.text.tokenize.count_message_tokens`) and over each
  question's own text.

It never reads a request's carried counts
(:attr:`~repro.llm.base.CompletionRequest.prompt_tokens`,
:attr:`~repro.llm.base.ChatMessage.line_tokens`), so running it beside the
production client shares no decode state.  The model's kernels (knowledge
domains, edit distances, Jaro-Winkler similarity) belong to the model,
not the decoder: both clients use them, and :func:`reset_caches` empties
their process-wide caches so that a timing comparison starts both sides
cold.

Replies, usage and latency must match the production client exactly
(``tests/llm/test_batch_decode.py``); :func:`decode_microbench` times the
two side by side over :func:`build_decode_requests`.

:func:`embed_all_reference` is the row-by-row oracle for
:meth:`~repro.text.embeddings.HashingEmbedder.embed_all`: it embeds one
text at a time through :meth:`~repro.text.embeddings.HashingEmbedder.embed`.
:func:`levenshtein_reference` is the two-row dynamic program that the
bit-parallel :func:`~repro.text.similarity.levenshtein` must equal.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Iterable

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.prompts import PromptBuilder
from repro.core.tasks import target_attribute_of
from repro.datasets import load_dataset
from repro.errors import ContextWindowExceededError, LLMError
from repro.llm import accounting, promptparse
from repro.llm.base import CompletionRequest, CompletionResponse, Usage
from repro.llm.profiles import ModelProfile
from repro.llm.promptparse import ParsedExample, ParsedPrompt, ParsedQuestion
from repro.llm.simulated import SimulatedLLM
from repro.llm.solvers import ed
from repro.text import similarity
from repro.text.embeddings import HashingEmbedder
from repro.text.tokenize import count_message_tokens, count_tokens


class _FitFromScratch:
    """Takes the client memo's place in the solvers: nothing is kept."""

    def fit(self, key: tuple, compute):
        return compute()


def reference_parse_prompt(request: CompletionRequest) -> ParsedPrompt:
    """Parse a whole transcript with no memo, counting each question."""
    system_texts = [m.content for m in request.messages if m.role == "system"]
    if not system_texts:
        raise LLMError("prompt has no system message")
    system = promptparse._parse_system("\n".join(system_texts))
    messages = request.messages
    examples: list[ParsedExample] = []
    for i, message in enumerate(messages[:-1]):
        if message.role == "user" and messages[i + 1].role == "assistant":
            examples.extend(
                promptparse._examples_in(
                    message.content, messages[i + 1].content, system.task
                )
            )
    questions: list[ParsedQuestion] = []
    for message in reversed(messages):
        if message.role == "user":
            questions = [
                replace(question, tokens=count_tokens(question.raw))
                for question in promptparse._questions_in(
                    message.content, system.task
                )
            ]
            break
    if not questions:
        raise LLMError("prompt contains no questions to answer")
    return ParsedPrompt(
        task=system.task,
        reasoning=system.reasoning,
        target_attribute=system.target,
        confirm_target=system.confirm_target,
        type_hint=system.type_hint,
        examples=examples,
        questions=questions,
    )


class ReferenceLLM(SimulatedLLM):
    """A :class:`SimulatedLLM` that decodes every request from scratch.

    Same profile, knowledge, seed and call counter as the production
    client, so for the same call sequence it must give the same replies.
    """

    def __init__(self, model: str | ModelProfile = "gpt-3.5", seed: int = 0):
        super().__init__(model, seed=seed)
        self._memo = _FitFromScratch()

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        profile = self._profile
        if request.model != profile.name:
            raise LLMError(
                f"client serves {profile.name!r}, request asks for "
                f"{request.model!r}"
            )
        prompt_tokens = count_message_tokens(request.transcript)
        if prompt_tokens > profile.context_window:
            raise ContextWindowExceededError(
                profile.name, prompt_tokens, profile.context_window
            )
        parsed = reference_parse_prompt(request)
        rng = self._request_rng(request)
        solver = self._solver_for(parsed.task, rng, request.temperature)
        text = self._render(parsed, solver.solve(parsed), rng)
        completion_tokens = count_tokens(text)
        return CompletionResponse(
            text=text,
            model=profile.name,
            usage=Usage(
                prompt_tokens=prompt_tokens,
                completion_tokens=completion_tokens,
            ),
            latency_s=profile.latency.latency(prompt_tokens, completion_tokens),
        )


def reset_caches() -> None:
    """Empty every process-wide cache on the decode path."""
    accounting._shared_block_tokens.cache_clear()
    promptparse._prefix_tokens.cache_clear()
    ed._nearest_distance.cache_clear()
    similarity.jaro_winkler.cache_clear()


def build_decode_requests(
    n: int = 1000,
    dataset: str = "adult",
    model: str = "gpt-3.5",
    seed: int = 0,
) -> list[CompletionRequest]:
    """``n`` realistic single-instance completion requests.

    Realistic means what the pipeline actually sends: a shared system
    instruction and few-shot demonstration block (the bulk of the prompt)
    followed by one instance-specific question.  That shape is exactly
    where the client's memo wins — the shared prefix parses once.
    """
    config = PipelineConfig(model=model, seed=seed)
    data = load_dataset(dataset, size=n, seed=seed)
    fewshot = data.sample_fewshot(config.fewshot_for(data.task), seed=seed)
    builders: dict = {}
    requests = []
    instances = data.instances
    for index in range(n):
        instance = instances[index % len(instances)]
        target = target_attribute_of(instance)
        builder = builders.get(target)
        if builder is None:
            builder = PromptBuilder(
                data.task, config, target_attribute=target
            )
            builders[target] = builder
        prompt = builder.build([instance], fewshot_examples=fewshot)
        requests.append(CompletionRequest(
            messages=prompt.messages, model=model, temperature=0.75
        ))
    return requests


def decode_microbench(
    n: int = 1000,
    dataset: str = "adult",
    model: str = "gpt-3.5",
    seed: int = 0,
) -> dict:
    """Reference vs production decode over the same ``n``-request batch.

    ``identical`` holds when every response (text, usage and latency)
    matches.  Each arm starts with the process-wide caches empty.
    """
    requests = build_decode_requests(n, dataset=dataset, model=model, seed=seed)

    reset_caches()
    reference = ReferenceLLM(model, seed=seed)
    started = time.perf_counter()
    reference_replies = reference.complete_batch(requests)
    reference_s = time.perf_counter() - started

    reset_caches()
    client = SimulatedLLM(model, seed=seed)
    started = time.perf_counter()
    replies = client.complete_batch(requests)
    client_s = time.perf_counter() - started

    memo = client.memo
    return {
        "n": n,
        "dataset": dataset,
        "model": model,
        "reference_s": reference_s,
        "client_s": client_s,
        "speedup": reference_s / client_s if client_s > 0 else 0.0,
        "identical": replies == reference_replies,
        "memo": {"hits": memo.hits, "misses": memo.misses, "entries": len(memo)},
    }


def embed_all_reference(
    embedder: HashingEmbedder, texts: Iterable[str]
) -> np.ndarray:
    """Embed row by row through ``embedder.embed``; ``embed_all``'s oracle."""
    rows = [embedder.embed(text) for text in texts]
    if not rows:
        return np.zeros((0, embedder.dim), dtype=np.float64)
    return np.vstack(rows)


def levenshtein_reference(a: str, b: str) -> int:
    """Edit distance by the two-row dynamic program; ``levenshtein``'s oracle.

    O(len(a) * len(b)) time, O(min(len(a), len(b))) space.
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(
                min(
                    previous[j] + 1,  # deletion
                    current[j - 1] + 1,  # insertion
                    previous[j - 1] + cost,  # substitution
                )
            )
        previous = current
    return previous[-1]
