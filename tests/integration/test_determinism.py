"""Determinism across concurrency levels.

The executor issues completion calls in submission order at every lane
count — concurrency changes only the virtual time accounting — so the
simulated LLM must produce bit-identical predictions, usage, and request
counts for any ``concurrency``, and the makespan may only shrink as lanes
are added.  These properties hold on all four tasks (ED/DI/SM/EM).
"""

import pytest

from repro import PipelineConfig, Preprocessor, SimulatedLLM
from repro.core.batching import make_batches
from repro.llm.cache import CachingClient
from repro.testing.reference import embed_all_reference
from repro.text.embeddings import HashingEmbedder

CONCURRENCIES = (1, 2, 8)

#: one dataset fixture per task
TASK_DATASETS = [
    pytest.param("adult_dataset", id="ED-adult"),
    pytest.param("restaurant_dataset", id="DI-restaurant"),
    pytest.param("synthea_dataset", id="SM-synthea"),
    pytest.param("beer_dataset", id="EM-beer"),
]


def _run(dataset, concurrency, model="gpt-3.5", seed=0, observability=False):
    # A fresh client per run: the simulated LLM's reply stream depends on
    # its call sequence, which is exactly what must not vary with lanes.
    client = SimulatedLLM(model, seed=seed)
    config = PipelineConfig(
        model=model,
        concurrency=concurrency,
        seed=seed,
        observability=observability,
    )
    return Preprocessor(client, config).run(dataset)


@pytest.mark.parametrize("fixture_name", TASK_DATASETS)
class TestPredictionsAreConcurrencyInvariant:
    def test_identical_predictions_and_usage(self, fixture_name, request):
        dataset = request.getfixturevalue(fixture_name)
        baseline = _run(dataset, concurrency=1)
        for concurrency in CONCURRENCIES[1:]:
            result = _run(dataset, concurrency=concurrency)
            assert result.predictions == baseline.predictions
            assert result.usage == baseline.usage
            assert result.n_requests == baseline.n_requests
            assert result.n_fallbacks == baseline.n_fallbacks

    def test_makespan_never_grows_with_lanes(self, fixture_name, request):
        dataset = request.getfixturevalue(fixture_name)
        seconds = [
            _run(dataset, concurrency=c).estimated_seconds
            for c in CONCURRENCIES
        ]
        assert all(s > 0 for s in seconds)
        assert seconds == sorted(seconds, reverse=True) or (
            # ties allowed (a single batch cannot overlap with itself)
            all(s <= seconds[0] for s in seconds)
        )

    def test_sequential_estimate_is_lane_invariant(self, fixture_name, request):
        dataset = request.getfixturevalue(fixture_name)
        estimates = {
            round(_run(dataset, concurrency=c).execution.sequential_s, 6)
            for c in CONCURRENCIES
        }
        assert len(estimates) == 1


@pytest.mark.parametrize("fixture_name", TASK_DATASETS)
class TestObservabilityNeverChangesResults:
    """Tracing consumes no randomness and models no time, so turning it
    on must leave predictions, usage, and timing bit-identical."""

    @pytest.mark.parametrize("concurrency", CONCURRENCIES)
    def test_bit_identical_with_and_without_obs(
        self, fixture_name, concurrency, request
    ):
        dataset = request.getfixturevalue(fixture_name)
        plain = _run(dataset, concurrency=concurrency)
        traced = _run(dataset, concurrency=concurrency, observability=True)
        assert traced.predictions == plain.predictions
        assert traced.usage == plain.usage
        assert traced.n_requests == plain.n_requests
        assert traced.n_fallbacks == plain.n_fallbacks
        assert traced.estimated_seconds == plain.estimated_seconds
        assert traced.execution.sequential_s == plain.execution.sequential_s

    def test_observation_is_populated_only_when_enabled(
        self, fixture_name, request
    ):
        dataset = request.getfixturevalue(fixture_name)
        plain = _run(dataset, concurrency=2)
        traced = _run(dataset, concurrency=2, observability=True)
        assert plain.observation is None
        assert traced.observation is not None
        assert traced.observation.tracer.n_spans > 0
        calls = traced.observation.metrics.snapshot()["counters"]
        assert calls["executor.calls"] == traced.n_requests

    def test_traces_are_reproducible(self, fixture_name, request):
        dataset = request.getfixturevalue(fixture_name)
        runs = [
            _run(dataset, concurrency=8, observability=True)
            for _ in range(2)
        ]
        dumps = [
            [span.to_dict() for span in run.observation.tracer.spans]
            for run in runs
        ]
        assert dumps[0] == dumps[1]
        snapshots = [run.observation.snapshot() for run in runs]
        assert snapshots[0] == snapshots[1]


def _run_cluster(dataset, concurrency, seed=0):
    client = SimulatedLLM("gpt-3.5", seed=seed)
    config = PipelineConfig(
        model="gpt-3.5",
        concurrency=concurrency,
        seed=seed,
        batching="cluster",
    )
    return Preprocessor(client, config).run(dataset)


@pytest.mark.parametrize("fixture_name", TASK_DATASETS)
class TestVectorizedPrepMatchesScalarPath:
    """The vectorized serialize → embed → cluster kernels must be
    bit-indistinguishable from the scalar reference: same batches, same
    predictions, same accounting, at every lane count."""

    @pytest.mark.parametrize("concurrency", CONCURRENCIES)
    def test_bit_identical_predictions(
        self, fixture_name, concurrency, request, monkeypatch
    ):
        dataset = request.getfixturevalue(fixture_name)
        vectorized = _run_cluster(dataset, concurrency)
        monkeypatch.setattr(HashingEmbedder, "embed_all", embed_all_reference)
        scalar = _run_cluster(dataset, concurrency)
        assert scalar.predictions == vectorized.predictions
        assert scalar.usage == vectorized.usage
        assert scalar.n_requests == vectorized.n_requests
        assert scalar.n_fallbacks == vectorized.n_fallbacks
        assert scalar.estimated_seconds == vectorized.estimated_seconds

    def test_bit_identical_batches(self, fixture_name, request, monkeypatch):
        dataset = request.getfixturevalue(fixture_name)
        instances = list(dataset.instances)
        vectorized = make_batches(instances, 7, mode="cluster", seed=0)
        monkeypatch.setattr(HashingEmbedder, "embed_all", embed_all_reference)
        scalar = make_batches(instances, 7, mode="cluster", seed=0)
        assert scalar == vectorized

    def test_prep_stats_populated(self, fixture_name, request):
        dataset = request.getfixturevalue(fixture_name)
        result = _run_cluster(dataset, concurrency=2)
        assert result.prep is not None
        assert result.prep.serialize_misses > 0
        # Prompt assembly rode the serialization memo.
        assert result.prep.serialize_hits > 0


class TestCacheHitsAreOrderIndependent:
    @pytest.mark.parametrize("fixture_name", TASK_DATASETS)
    def test_hit_and_miss_counts_match(self, fixture_name, request):
        dataset = request.getfixturevalue(fixture_name)
        counts = set()
        for concurrency in CONCURRENCIES:
            cache = CachingClient(SimulatedLLM("gpt-3.5"))
            config = PipelineConfig(model="gpt-3.5", concurrency=concurrency)
            preprocessor = Preprocessor(cache, config)
            preprocessor.run(dataset)
            first = (cache.hits, cache.misses)
            preprocessor.run(dataset)
            counts.add((first, (cache.hits, cache.misses)))
        assert len(counts) == 1

    def test_second_run_is_all_hits_and_free(self, beer_dataset):
        cache = CachingClient(SimulatedLLM("gpt-3.5"))
        config = PipelineConfig(model="gpt-3.5", concurrency=4)
        preprocessor = Preprocessor(cache, config)
        first = preprocessor.run(beer_dataset)
        second = preprocessor.run(beer_dataset)
        assert second.predictions == first.predictions
        assert second.estimated_seconds == 0.0


class TestConcurrencyOneMatchesSequentialModel:
    def test_makespan_equals_latency_sum(self, beer_dataset):
        result = _run(beer_dataset, concurrency=1)
        report = result.execution
        assert report is not None
        assert report.concurrency == 1
        assert result.estimated_seconds == pytest.approx(report.sequential_s)
        assert report.speedup == pytest.approx(1.0)
