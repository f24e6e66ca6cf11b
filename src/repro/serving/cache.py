"""Cross-run answer cache with LRU eviction, metered through the registry.

The service keys every request by its *question digest* (model, task,
target, config fingerprint, serialized record).  Once a coalesced batch
completes, each answered question lands here; later requests for the same
question — from any tenant, in any later :meth:`serve` run — are answered
without a completion call.  The cache stores only *completed* answers
(in-flight questions live on the coalescer as waiters), so eviction can
never lose work, only force a recomputation.

Hit/insert/eviction traffic is counted into the shared
:class:`~repro.obs.metrics.MetricsRegistry` (``serving.cache.*``) — all
arrival-driven and therefore identical at any executor concurrency.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ServingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.obs.metrics import Counter, MetricsRegistry


@dataclass(frozen=True)
class CachedAnswer:
    """One completed question: its prediction and when it finished.

    ``completed_s`` is the virtual finish time of the batch that answered
    it; a later hit completes at ``max(arrival, completed_s)`` — zero
    added latency once the answer exists.  ``quarantine_reason`` is kept
    so a question the ladder gave up on is *remembered* as unanswerable
    instead of being retried on every arrival.
    """

    prediction: bool | str | None
    completed_s: float
    quarantine_reason: str | None = None


class ServingCache:
    """Bounded LRU over completed answers.

    ``max_entries=None`` means unbounded; ``0`` disables storage entirely
    (every lookup misses — the uncoalesced baseline the benchmark
    compares against).
    """

    def __init__(
        self,
        max_entries: int | None = None,
        metrics: "MetricsRegistry | None" = None,
    ):
        if max_entries is not None and max_entries < 0:
            raise ServingError(
                f"max_entries cannot be negative, got {max_entries}"
            )
        self._max_entries = max_entries
        self._metrics = metrics
        self._answers: OrderedDict[str, CachedAnswer] = OrderedDict()
        # Bound on first use: a cache that never hits (or evicts)
        # registers no counter, and a hit costs no lookup by name.
        self._hits: "Counter | None" = None
        self._evictions: "Counter | None" = None

    def __len__(self) -> int:
        return len(self._answers)

    def get(self, key: str) -> CachedAnswer | None:
        """The completed answer for ``key``, touching its LRU position.

        Counts a hit on success and nothing on a miss — the service
        counts misses only when a request actually *creates* work, so
        rejected requests cannot skew the hit rate.
        """
        answer = self._answers.get(key)
        if answer is None:
            return None
        self._answers.move_to_end(key)
        if self._metrics is not None:
            if self._hits is None:
                self._hits = self._metrics.counter("serving.cache.hits")
            self._hits.inc()
        return answer

    def put(self, key: str, answer: CachedAnswer) -> None:
        """Store a completed answer, evicting from the LRU end if full."""
        if self._max_entries == 0:
            return
        self._answers[key] = answer
        self._answers.move_to_end(key)
        if (
            self._max_entries is not None
            and len(self._answers) > self._max_entries
        ):
            self._answers.popitem(last=False)
            if self._metrics is not None:
                if self._evictions is None:
                    self._evictions = self._metrics.counter(
                        "serving.cache.evictions"
                    )
                self._evictions.inc()
