"""Response caching.

Data preprocessing re-sends near-identical prompts constantly (retries,
ablation grids over the same dataset); a real deployment caches completions
to cut token spend.  :class:`CachingClient` wraps any
:class:`~repro.llm.base.LLMClient` with an exact-match LRU cache keyed by
the full request.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.llm.base import (
    ClientWrapper,
    CompletionRequest,
    CompletionResponse,
    LLMClient,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.obs.metrics import MetricsRegistry


def request_key(request: CompletionRequest) -> tuple:
    """A hashable identity for a request (model, temperature, transcript)."""
    return (
        request.model,
        round(request.temperature, 6),
        request.max_tokens,
        tuple(request.transcript),
    )


class CachingClient(ClientWrapper):
    """LRU response cache in front of another client.

    Cache hits return the stored response with ``latency_s`` zeroed — a
    cache hit costs no wall-clock — but keep the token usage visible so
    callers can report "tokens that *would* have been spent" if they want
    to.  As a :class:`~repro.llm.base.ClientWrapper` it forwards the
    simulated clock and journals the wrapped client's resume state; the
    cached entries themselves are not journaled, so a resumed run starts
    with a cold cache.
    """

    def __init__(
        self,
        inner: LLMClient,
        max_entries: int = 4096,
        metrics: "MetricsRegistry | None" = None,
    ):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        super().__init__(inner)
        self._max_entries = max_entries
        self._cache: OrderedDict[tuple, CompletionResponse] = OrderedDict()
        self._metrics = metrics
        self.hits = 0
        self.misses = 0

    def bind_metrics(self, metrics: "MetricsRegistry | None") -> None:
        """Attach (or detach) a metrics registry for hit/miss counters.

        The pipeline calls this when observability is on, so cache traffic
        lands in the run's metrics snapshot without the cache having to
        know about runs.
        """
        self._metrics = metrics

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        key = request_key(request)
        if key in self._cache:
            self.hits += 1
            if self._metrics is not None:
                self._metrics.counter("cache.hits").inc()
            self._cache.move_to_end(key)
            cached = self._cache[key]
            return CompletionResponse(
                text=cached.text,
                model=cached.model,
                usage=cached.usage,
                latency_s=0.0,
            )
        self.misses += 1
        if self._metrics is not None:
            self._metrics.counter("cache.misses").inc()
        response = self._inner.complete(request)
        self._cache[key] = response
        if len(self._cache) > self._max_entries:
            self._cache.popitem(last=False)
        return response

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        self._cache.clear()
        self.hits = 0
        self.misses = 0
