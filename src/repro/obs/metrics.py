"""A small in-process metrics registry: counters, gauges, histograms.

Modeled on the Prometheus client surface but fully deterministic and
allocation-light: metrics are created lazily by name, histograms use
*fixed* bucket bounds chosen at creation (no adaptive resizing, so two
identical runs snapshot identically), and a snapshot is a plain dict that
serializes straight into the run manifest.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from repro.errors import ReproError


class MetricsError(ReproError):
    """A metric was registered or used inconsistently."""


#: default histogram bounds (seconds-ish scale, powers of two)
DEFAULT_BUCKETS: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError(f"counter {self.name!r} cannot decrease")
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value that can move both ways."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float) -> None:
        self.value += amount


@dataclass
class Histogram:
    """Fixed-bucket histogram (cumulative-style buckets plus sum/count).

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    implicit overflow bucket catches everything above the last bound.
    """

    name: str
    bounds: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    n_observations: int = 0

    def __post_init__(self) -> None:
        if not self.bounds:
            raise MetricsError(f"histogram {self.name!r} needs at least one bucket")
        if list(self.bounds) != sorted(self.bounds):
            raise MetricsError(f"histogram {self.name!r} bounds must be sorted")
        if len(set(self.bounds)) != len(self.bounds):
            raise MetricsError(f"histogram {self.name!r} bounds must be distinct")
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.n_observations += 1

    @property
    def mean(self) -> float:
        return self.total / self.n_observations if self.n_observations else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (0 <= q <= 1).

        Walks the cumulative bucket counts to the bucket holding the
        q-th observation and interpolates linearly within it (the
        Prometheus ``histogram_quantile`` estimator).  Observations in
        the overflow bucket report the last finite bound — a floor, not
        an exact value.  Returns 0.0 for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricsError(f"quantile must be in [0, 1], got {q}")
        if self.n_observations == 0:
            return 0.0
        rank = q * self.n_observations
        cumulative = 0
        for index, count in enumerate(self.counts):
            if count == 0:
                continue
            if cumulative + count >= rank:
                if index >= len(self.bounds):
                    return self.bounds[-1]
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = self.bounds[index]
                within = (rank - cumulative) / count
                return lower + (upper - lower) * min(max(within, 0.0), 1.0)
            cumulative += count
        return self.bounds[-1]


class MetricsRegistry:
    """Lazily creates metrics by name and snapshots them as plain data.

    One name maps to exactly one metric kind; asking for an existing name
    with a different kind (or different histogram bounds) raises
    :class:`MetricsError` rather than silently splitting the series.

    A lookup is one dict probe: the kind check runs only when a name is
    created, and since it keeps every name in exactly one table, a name
    found in its own table cannot also be another kind.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            self._check_kind(name, "counter")
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            self._check_kind(name, "gauge")
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        existing = self._histograms.get(name)
        if existing is not None:
            if existing.bounds != tuple(buckets):
                raise MetricsError(
                    f"histogram {name!r} already registered with bounds "
                    f"{existing.bounds}, got {tuple(buckets)}"
                )
            return existing
        self._check_kind(name, "histogram")
        histogram = self._histograms[name] = Histogram(
            name, bounds=tuple(buckets)
        )
        return histogram

    def _check_kind(self, name: str, kind: str) -> None:
        kinds = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other_kind, table in kinds.items():
            if other_kind != kind and name in table:
                raise MetricsError(
                    f"metric {name!r} is already a {other_kind}, not a {kind}"
                )

    def restore(self, snapshot: dict) -> None:
        """Replace every metric with the contents of a :meth:`snapshot`.

        The snapshot format is full-fidelity (histograms carry bounds,
        per-bucket counts, sum, and count), so ``restore(snapshot())``
        round-trips exactly; crash-resume uses this to rebuild the metrics
        registry a run had accumulated before it was interrupted.  The
        registry is mutated in place, keeping bound references (the rate
        limiter, cache, prep artifacts) valid.
        """
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        for name, value in snapshot.get("counters", {}).items():
            self._counters[name] = Counter(name, value=float(value))
        for name, value in snapshot.get("gauges", {}).items():
            self._gauges[name] = Gauge(name, value=float(value))
        for name, data in snapshot.get("histograms", {}).items():
            self._histograms[name] = Histogram(
                name,
                bounds=tuple(data["bounds"]),
                counts=[int(c) for c in data["counts"]],
                total=float(data["sum"]),
                n_observations=int(data["count"]),
            )

    def snapshot(self) -> dict:
        """All metrics as a JSON-ready dict, keys sorted for determinism."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "bounds": list(histogram.bounds),
                    "counts": list(histogram.counts),
                    "sum": histogram.total,
                    "count": histogram.n_observations,
                }
                for name, histogram in sorted(self._histograms.items())
            },
        }
