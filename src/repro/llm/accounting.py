"""Usage accounting: tokens, dollars, and modeled wall-clock.

Table 3's token/cost/time columns come from here.  Tokens are counted from
the *actual prompt text* with the estimator in :mod:`repro.text.tokenize`,
so the batch-prompting savings (instruction amortization) are mechanical
rather than scripted.
"""

from __future__ import annotations

from functools import lru_cache

from repro.llm.base import CompletionRequest, CompletionResponse, Usage
from repro.llm.profiles import ModelProfile
from repro.text.tokenize import (
    MESSAGE_FRAMING_TOKENS,
    REPLY_PRIMING_TOKENS,
    count_tokens,
)

#: distinct shared blocks (system instructions, few-shot turns, roles)
#: whose counts are kept; a run sends a handful, so this only bounds a
#: long-lived process that cycles through many prompt templates
SHARED_BLOCK_CACHE_SIZE = 256


@lru_cache(maxsize=SHARED_BLOCK_CACHE_SIZE)
def _shared_block_tokens(text: str) -> int:
    return count_tokens(text)


def request_prompt_tokens(request: CompletionRequest) -> int:
    """Token count of a request's full transcript.

    Equal to ``count_message_tokens(request.transcript)``, counting each
    block once.  Every message before the last (system instruction,
    few-shot turns) repeats across a run's requests, so its count comes
    from a bounded cache; the last message, the question block unique to
    this request, is counted line by line (:attr:`ChatMessage.line_tokens`)
    and never cached.  Read it as :attr:`CompletionRequest.prompt_tokens`,
    which calls this once per request.
    """
    *shared, final = request.messages
    total = REPLY_PRIMING_TOKENS + MESSAGE_FRAMING_TOKENS * len(request.messages)
    for message in shared:
        total += _shared_block_tokens(message.role)
        total += _shared_block_tokens(message.content)
    return total + _shared_block_tokens(final.role) + sum(final.line_tokens)


def completion_tokens(text: str) -> int:
    """Token count of a completion's text."""
    return count_tokens(text)


def meter_response(
    profile: ModelProfile, request: CompletionRequest, text: str
) -> CompletionResponse:
    """Build a fully metered response for ``text`` answering ``request``."""
    prompt = request.prompt_tokens
    completion = completion_tokens(text)
    return CompletionResponse(
        text=text,
        model=profile.name,
        usage=Usage(prompt_tokens=prompt, completion_tokens=completion),
        latency_s=profile.latency.latency(prompt, completion),
    )
