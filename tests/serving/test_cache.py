"""Unit tests for the completed-answer LRU cache and its metering."""

import pytest

from repro.errors import ServingError
from repro.obs.metrics import MetricsRegistry
from repro.serving import CachedAnswer, ServingCache


def _answer(prediction, completed=1.0, reason=None):
    return CachedAnswer(
        prediction=prediction, completed_s=completed,
        quarantine_reason=reason,
    )


class TestServingCache:
    def test_roundtrip_and_miss(self):
        cache = ServingCache()
        assert cache.get("k") is None
        answer = _answer(True)
        cache.put("k", answer)
        assert cache.get("k") is answer
        assert len(cache) == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ServingError):
            ServingCache(max_entries=-1)

    def test_zero_capacity_disables_storage(self):
        cache = ServingCache(max_entries=0)
        cache.put("k", _answer(True))
        assert len(cache) == 0
        assert cache.get("k") is None

    def test_lru_eviction_respects_recency(self):
        cache = ServingCache(max_entries=2)
        cache.put("a", _answer("first"))
        cache.put("b", _answer("second"))
        cache.get("a")                    # touch: a is now most recent
        cache.put("c", _answer("third"))  # evicts b, not a
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert len(cache) == 2

    def test_overwrite_does_not_evict(self):
        cache = ServingCache(max_entries=2)
        cache.put("a", _answer(1))
        cache.put("b", _answer(2))
        cache.put("a", _answer(3))  # replace, still 2 entries
        assert len(cache) == 2
        assert cache.get("a").prediction == 3

    def test_quarantined_answers_are_remembered(self):
        cache = ServingCache()
        cache.put("k", _answer(None, reason="gave_up"))
        cached = cache.get("k")
        assert cached.prediction is None
        assert cached.quarantine_reason == "gave_up"

    def test_hits_and_evictions_are_metered(self):
        metrics = MetricsRegistry()
        cache = ServingCache(max_entries=1, metrics=metrics)
        cache.put("a", _answer(1))
        cache.get("a")
        cache.get("missing")     # misses are the service's to count
        cache.put("b", _answer(2))  # evicts a
        counters = metrics.snapshot()["counters"]
        assert counters["serving.cache.hits"] == 1
        assert counters["serving.cache.evictions"] == 1
        assert "serving.cache.misses" not in counters

    def test_no_counter_exists_before_the_first_hit_or_eviction(self):
        metrics = MetricsRegistry()
        cache = ServingCache(max_entries=2, metrics=metrics)
        cache.put("a", _answer(1))
        cache.get("missing")
        counters = metrics.snapshot()["counters"]
        assert "serving.cache.hits" not in counters
        assert "serving.cache.evictions" not in counters

    def test_n_hits_count_n(self):
        metrics = MetricsRegistry()
        cache = ServingCache(max_entries=1, metrics=metrics)
        cache.put("a", _answer(1))
        for __ in range(7):
            cache.get("a")
        for name in "bcd":
            cache.put(name, _answer(name))  # each evicts the one before
        counters = metrics.snapshot()["counters"]
        assert counters["serving.cache.hits"] == 7
        assert counters["serving.cache.evictions"] == 3

    def test_unmetered_cache_works_without_a_registry(self):
        cache = ServingCache(max_entries=1)
        cache.put("a", _answer(1))
        cache.put("b", _answer(2))
        assert cache.get("a") is None
        assert cache.get("b") is not None
