"""Tests for repro.obs.metrics."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsError,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_cannot_decrease(self):
        with pytest.raises(MetricsError):
            MetricsRegistry().counter("x").inc(-1)


class TestGauge:
    def test_set_and_add(self):
        gauge = MetricsRegistry().gauge("busy_s")
        gauge.set(10.0)
        gauge.add(-2.5)
        assert gauge.value == 7.5


class TestHistogram:
    def test_fixed_buckets_count_correctly(self):
        histogram = Histogram("latency", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 3.0, 100.0):
            histogram.observe(value)
        # bounds are inclusive upper edges; the last bucket is overflow
        assert histogram.counts == [2, 1, 1, 1]
        assert histogram.n_observations == 5
        assert histogram.total == pytest.approx(106.0)
        assert histogram.mean == pytest.approx(21.2)

    def test_default_buckets(self):
        histogram = MetricsRegistry().histogram("latency")
        assert histogram.bounds == DEFAULT_BUCKETS

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(MetricsError):
            Histogram("bad", bounds=(2.0, 1.0))

    def test_duplicate_bounds_rejected(self):
        with pytest.raises(MetricsError):
            Histogram("bad", bounds=(1.0, 1.0))

    def test_empty_bounds_rejected(self):
        with pytest.raises(MetricsError):
            Histogram("bad", bounds=())

    def test_conflicting_bounds_rejected_on_reregistration(self):
        registry = MetricsRegistry()
        registry.histogram("latency", buckets=(1.0, 2.0))
        with pytest.raises(MetricsError):
            registry.histogram("latency", buckets=(1.0, 4.0))


class TestHistogramQuantile:
    def test_empty_histogram_reports_zero(self):
        assert Histogram("h", bounds=(1.0,)).quantile(0.5) == 0.0

    def test_out_of_range_q_rejected(self):
        histogram = Histogram("h", bounds=(1.0,))
        with pytest.raises(MetricsError):
            histogram.quantile(-0.1)
        with pytest.raises(MetricsError):
            histogram.quantile(1.1)

    def test_interpolates_within_the_holding_bucket(self):
        histogram = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.6, 3.0):
            histogram.observe(value)
        # rank 2 lands halfway through the (1, 2] bucket's two counts
        assert histogram.quantile(0.5) == pytest.approx(1.5)

    def test_extremes_hit_the_bucket_edges(self):
        histogram = Histogram("h", bounds=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(0.5)
        # every observation sits in the first bucket: q=0 is its lower
        # edge, q=1 its upper edge
        assert histogram.quantile(0.0) == 0.0
        assert histogram.quantile(1.0) == 1.0

    def test_overflow_bucket_reports_the_last_finite_bound(self):
        histogram = Histogram("h", bounds=(1.0, 2.0))
        histogram.observe(10.0)
        histogram.observe(20.0)
        # a floor, not an exact value — all mass is above every bound
        assert histogram.quantile(0.99) == 2.0

    def test_skips_empty_buckets(self):
        histogram = Histogram("h", bounds=(1.0, 2.0, 4.0, 8.0))
        histogram.observe(0.5)
        histogram.observe(7.0)
        assert histogram.quantile(1.0) == 8.0


KINDS = ("counter", "gauge", "histogram")


class TestRegistry:
    # Lookups skip the kind check once a name exists, so every ordered
    # pair must still refuse the second kind when it would be created.
    @pytest.mark.parametrize(
        "first, second",
        [(a, b) for a in KINDS for b in KINDS if a != b],
    )
    def test_kind_collision_raises(self, first, second):
        registry = MetricsRegistry()
        metric = getattr(registry, first)("x")
        with pytest.raises(MetricsError, match=f"already a {first}"):
            getattr(registry, second)("x")
        assert getattr(registry, first)("x") is metric
        snapshot = registry.snapshot()
        assert [kind for kind in KINDS if "x" in snapshot[kind + "s"]] == [
            first
        ]

    def test_snapshot_is_sorted_and_json_ready(self):
        import json

        registry = MetricsRegistry()
        registry.counter("b").inc(2)
        registry.counter("a").inc()
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a", "b"]
        assert snapshot["counters"]["b"] == 2
        assert snapshot["gauges"]["g"] == 1.5
        assert snapshot["histograms"]["h"]["counts"] == [1, 0]
        # must serialize without a custom encoder
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_snapshot_of_empty_registry(self):
        assert MetricsRegistry().snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }
