"""Chat-completion interface types.

Mirrors the shape of commercial chat APIs narrowly enough that swapping
:class:`~repro.llm.simulated.SimulatedLLM` for a real SDK client is a
one-class change: messages in, text + usage out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Protocol, runtime_checkable

from repro.errors import LLMError
from repro.text.tokenize import count_lines

_VALID_ROLES = ("system", "user", "assistant")


@dataclass(frozen=True)
class ChatMessage:
    """One turn of a chat transcript."""

    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in _VALID_ROLES:
            raise LLMError(
                f"invalid role {self.role!r}; expected one of {_VALID_ROLES}"
            )

    @classmethod
    def with_line_tokens(
        cls, role: str, content: str, line_tokens: tuple[int, ...]
    ) -> "ChatMessage":
        """A message that carries its :attr:`line_tokens` from its builder.

        ``line_tokens`` must equal ``count_lines(content)``: the prompt
        builder sums each question line from counts it already holds.
        The counts are not a field, so equality, hashing and
        ``dataclasses.replace`` see only role and content, and a message
        made by ``replace`` counts its own content.
        """
        message = cls(role, content)
        message.__dict__["line_tokens"] = line_tokens
        return message

    @cached_property
    def line_tokens(self) -> tuple[int, ...]:
        """Token count of each line of ``content``, counted once.

        They sum to the content's token count.  A request's final message
        (the question block) is counted this way, so one pass gives the
        request its total and each question its own length.  The prompt
        builder's question blocks carry them already
        (:meth:`with_line_tokens`).
        """
        return count_lines(self.content)


@dataclass(frozen=True)
class CompletionRequest:
    """A chat-completion call."""

    messages: tuple[ChatMessage, ...]
    model: str
    temperature: float = 0.0
    max_tokens: int | None = None

    def __post_init__(self) -> None:
        if not self.messages:
            raise LLMError("a completion request needs at least one message")
        if not 0.0 <= self.temperature <= 2.0:
            raise LLMError(
                f"temperature must be in [0, 2], got {self.temperature}"
            )
        if self.max_tokens is not None and self.max_tokens <= 0:
            raise LLMError(f"max_tokens must be positive, got {self.max_tokens}")

    @property
    def transcript(self) -> list[tuple[str, str]]:
        """(role, content) pairs — the token-accounting view."""
        return [(m.role, m.content) for m in self.messages]

    @cached_property
    def prompt_tokens(self) -> int:
        """The transcript's token count: what the API bills as prompt.

        Counted by :func:`~repro.llm.accounting.request_prompt_tokens` the
        first time anything asks, then carried: the pipeline, the rate
        limiters, the client and the meter all read this one value.
        """
        from repro.llm.accounting import request_prompt_tokens

        return request_prompt_tokens(self)


@dataclass(frozen=True)
class Usage:
    """Token usage of one completion (the billing unit)."""

    prompt_tokens: int
    completion_tokens: int

    def __post_init__(self) -> None:
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise LLMError("token counts cannot be negative")

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    def __add__(self, other: "Usage") -> "Usage":
        return Usage(
            prompt_tokens=self.prompt_tokens + other.prompt_tokens,
            completion_tokens=self.completion_tokens + other.completion_tokens,
        )


@dataclass(frozen=True)
class CompletionResponse:
    """The result of one completion call.

    ``latency_s`` is the *modeled* wall-clock latency a metered API would
    have taken — the simulator computes it from the latency model instead
    of sleeping, so experiments report realistic hours without taking them.
    """

    text: str
    model: str
    usage: Usage
    latency_s: float = 0.0


@runtime_checkable
class LLMClient(Protocol):
    """Anything that can serve chat completions."""

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        """Serve one chat completion."""
        ...


class ClientWrapper:
    """Base of the clients stacked in front of another one (fault
    injection, garbling, degradation, caching).

    Subclasses implement ``complete`` around ``_inner``.  The base
    forwards the executor's simulated clock (``observe_time``) down the
    stack and nests the inner client's resume state under ``"inner"``, so
    a wrapper never hides the clock or the call counters of the client it
    wraps.  Subclasses add their own counters by extending
    :meth:`checkpoint_state` and :meth:`restore_checkpoint_state`.
    """

    def __init__(self, inner: LLMClient):
        self._inner = inner

    def observe_time(self, now: float) -> None:
        """Forward the simulated clock to the wrapped client."""
        forward = getattr(self._inner, "observe_time", None)
        if callable(forward):
            forward(now)

    def checkpoint_state(self) -> dict:
        """The wrapped client's resume state (``None`` when it has none)."""
        capture = getattr(self._inner, "checkpoint_state", None)
        return {"inner": capture() if callable(capture) else None}

    def restore_checkpoint_state(self, state: dict) -> None:
        """Restore state captured by :meth:`checkpoint_state`."""
        restore = getattr(self._inner, "restore_checkpoint_state", None)
        if state.get("inner") is not None and callable(restore):
            restore(state["inner"])
