"""End-to-end service behavior: caching across runs, trace validation,
eviction metering, and the report surface."""

import pickle

import pytest

from repro.core.config import PipelineConfig
from repro.core.prep import PrepArtifacts
from repro.core.tasks import question_text
from repro.errors import ServingError
from repro.llm.simulated import SimulatedLLM
from repro.serving import (
    PreprocessingService,
    ServeConfig,
    ServeRequest,
    ServeResponse,
    TenantBudget,
)
from repro.text.tokenize import count_tokens
from tests.serving.conftest import generous_budgets

#: one flush per unique question, answer cache of exactly one entry
TINY = ServeConfig(max_batch=1, coalesce="eager", cache_entries=1)


class TestCrossRunCache:
    def test_second_run_is_answered_entirely_from_cache(
        self, make_service, make_trace
    ):
        service = make_service()
        first = service.serve(
            make_trace([("tenant-0", float(i), i % 10) for i in range(20)])
        )
        assert first.usage.total_tokens > 0

        second = service.serve(
            make_trace(
                [("tenant-1", 1000.0 + i, i % 10) for i in range(20)]
            )
        )
        assert {r.source for r in second.responses} == {"cache"}
        assert second.usage.total_tokens == 0
        assert second.batches == []
        assert second.cache_hit_rate == 1.0

    def test_arrival_clock_is_monotonic_across_runs(
        self, make_service, make_trace
    ):
        service = make_service()
        service.serve(make_trace([("tenant-0", 50.0, 0)]))
        with pytest.raises(ServingError):
            service.serve(make_trace([("tenant-0", 10.0, 1)]))


class TestTraceValidation:
    def test_unsorted_trace_rejected(self, make_service, make_trace):
        service = make_service()
        trace = make_trace([("tenant-0", 5.0, 0), ("tenant-0", 1.0, 1)])
        with pytest.raises(ServingError):
            service.serve(trace)

    def test_wrong_task_rejected(
        self, make_service, restaurant_dataset
    ):
        service = make_service()  # serves the adult (ED) task
        foreign = list(restaurant_dataset.instances)[0]
        trace = [ServeRequest(0, "tenant-0", 0.0, foreign)]
        with pytest.raises(ServingError):
            service.serve(trace)

    def test_unknown_tenant_rejected(self, make_service, make_trace):
        service = make_service(budgets=generous_budgets("alpha"))
        with pytest.raises(ServingError):
            service.serve(make_trace([("ghost", 0.0, 0)]))


#: tight enough for tenant-0 that the valid trace below draws
#: rejections, so a budget charged by a refused trace would show
_REFUSAL_BUDGETS = [
    TenantBudget("tenant-0", 3, 10**9),
    TenantBudget("tenant-1", 10**9, 10**9),
]


def _valid_rows():
    return [
        (("tenant-0", "tenant-1")[i % 2], 0.5 * i, i % 4) for i in range(12)
    ]


def _refused_trace(kind, make_trace, restaurant_dataset):
    """Five valid requests, then one the service must refuse."""
    rows = [("tenant-0", 0.5 * i, i) for i in range(5)]
    if kind == "unsorted":
        return make_trace(rows + [("tenant-0", 0.25, 5)])
    if kind == "nan":
        return make_trace(rows + [("tenant-0", float("nan"), 5)])
    if kind == "unknown_tenant":
        return make_trace(rows + [("ghost", 3.0, 5)])
    foreign = list(restaurant_dataset.instances)[0]
    return make_trace(rows) + [ServeRequest(5, "tenant-0", 3.0, foreign)]


class TestRefusedTraceLeavesNoTrace:
    """A refused trace is refused whole, before any of it is admitted:
    no budget charged, nothing queued, no counter, no clock moved."""

    @pytest.mark.parametrize(
        "kind", ["unsorted", "nan", "wrong_task", "unknown_tenant"]
    )
    def test_next_serve_equals_a_fresh_service(
        self, make_service, make_trace, restaurant_dataset, kind
    ):
        refused = make_service(
            budgets=_REFUSAL_BUDGETS,
            serve_config=ServeConfig(max_batch=2, max_wait_s=1.0),
        )
        with pytest.raises(ServingError):
            refused.serve(_refused_trace(kind, make_trace, restaurant_dataset))
        assert refused.metrics.snapshot()["counters"] == {}

        fresh = make_service(
            budgets=_REFUSAL_BUDGETS,
            serve_config=ServeConfig(max_batch=2, max_wait_s=1.0),
        )
        after = refused.serve(make_trace(_valid_rows()))
        expected = fresh.serve(make_trace(_valid_rows()))
        assert after.payload() == expected.payload()
        assert refused.metrics.snapshot() == fresh.metrics.snapshot()
        assert [r.reason for r in expected.rejections] == ["tenant_rpm"] * 3


class TestClusterWindows:
    """A window flush larger than ``max_batch`` is partitioned by cluster
    batching; its embedding matrix, labels and fingerprint serve that one
    plan and must not stay in the service's long-lived prep memo."""

    @staticmethod
    def _serve(adult_dataset, make_trace):
        """The same six-question window three times, uncached, so every
        window is planned again."""
        instances = list(adult_dataset.instances)
        target = instances[5].target_attribute
        same = [
            i for i, instance in enumerate(instances)
            if instance.target_attribute == target
        ][:6]
        service = PreprocessingService(
            SimulatedLLM("gpt-3.5", seed=0),
            adult_dataset,
            generous_budgets("tenant-0"),
            serve_config=ServeConfig(
                max_batch=4, max_wait_s=2.0, cache_entries=0
            ),
            pipeline_config=PipelineConfig(
                model="gpt-3.5", seed=0, batching="cluster"
            ),
        )
        reports = [
            service.serve(make_trace([
                ("tenant-0", 10.0 * window + 0.1 * i, index)
                for i, index in enumerate(same)
            ]))
            for window in range(3)
        ]
        return service, reports

    def test_no_vectors_outlive_a_window(self, adult_dataset, make_trace):
        service, reports = self._serve(adult_dataset, make_trace)
        counters = reports[-1].metrics["counters"]
        # A repeated window is embedded and clustered again.
        assert counters["prep.embed.misses"] == 3
        assert counters["prep.cluster.misses"] == 3
        assert "prep.embed.hits" not in counters
        prep = service._prep
        assert (prep._matrices, prep._labels, prep._fingerprints) == (
            {}, {}, {}
        )

    def test_answers_equal_a_service_that_keeps_them(
        self, monkeypatch, adult_dataset, make_trace
    ):
        __, dropped = self._serve(adult_dataset, make_trace)
        with monkeypatch.context() as patch:
            patch.setattr(PrepArtifacts, "release_vectors", lambda self: None)
            kept_service, kept = self._serve(adult_dataset, make_trace)
        assert kept_service._prep._matrices
        assert kept[-1].metrics["counters"]["prep.cluster.hits"] == 2
        for ours, theirs in zip(dropped, kept):
            assert ours.responses == theirs.responses
            assert ours.batches == theirs.batches


class TestAdmissionEstimate:
    @pytest.mark.parametrize("index", [0, 1, 7])
    def test_a_question_is_charged_its_line_tokens(
        self, make_service, make_trace, adult_dataset, index
    ):
        tokens = count_tokens(question_text(adult_dataset.instances[index], 1))
        for budget, admitted in ((tokens, 1), (tokens - 1, 0)):
            service = make_service(
                budgets=[TenantBudget("alpha", 10, budget)]
            )
            report = service.serve(
                make_trace([("alpha", 0.0, index), ("alpha", 1.0, index)])
            )
            assert len(report.responses) == admitted
            assert [r.reason for r in report.rejections] == (
                ["tenant_tpm"] * (2 - admitted)
            )


class TestServeConfigValidation:
    def test_max_queue_must_be_positive(self):
        with pytest.raises(ServingError):
            ServeConfig(max_queue=0)

    def test_policy_knobs_validated_at_construction(self):
        with pytest.raises(ServingError):
            ServeConfig(coalesce="bogus")
        with pytest.raises(ServingError):
            ServeConfig(max_batch=0)
        with pytest.raises(ServingError):
            ServeConfig(max_wait_s=-1.0)


class TestEvictionMetering:
    def test_cache_traffic_lands_in_the_metrics_manifest(
        self, make_service, make_trace
    ):
        """The exact hit/miss/eviction counts of a hand-traced schedule
        must appear in the report's metrics snapshot — the manifest the
        golden layer freezes."""
        service = make_service(serve_config=TINY)
        report = service.serve(make_trace([
            ("tenant-0", 0.0, 0),  # miss -> flush -> cached
            ("tenant-0", 1.0, 1),  # miss -> flush -> evicts question 0
            ("tenant-0", 2.0, 0),  # miss again (evicted) -> evicts 1
            ("tenant-0", 3.0, 0),  # hit
        ]))
        counters = report.metrics["counters"]
        assert counters["serving.requests"] == 4
        assert counters["serving.cache.misses"] == 3
        assert counters["serving.cache.hits"] == 1
        assert counters["serving.cache.evictions"] == 2
        assert counters["serving.batches"] == 3
        assert counters["serving.flush.full"] == 3
        [hit] = [r for r in report.responses if r.source == "cache"]
        assert hit.request_id == 3

    def test_bounded_prep_texts_meter_their_evictions(
        self, make_service, make_trace
    ):
        service = make_service(
            serve_config=ServeConfig(
                max_batch=1, coalesce="eager", prep_texts=2
            ),
        )
        report = service.serve(
            make_trace([("tenant-0", float(i), i) for i in range(8)])
        )
        counters = report.metrics["counters"]
        assert counters["prep.serialize.evictions"] > 0
        # bounding the text cache must not change what gets served
        assert report.n_served == 8


class TestReportSurface:
    def test_summary_carries_the_headline_metrics(
        self, make_service, make_trace
    ):
        service = make_service()
        report = service.serve(
            make_trace([("tenant-0", 0.1 * i, i % 6) for i in range(30)])
        )
        summary = report.summary()
        for key in (
            "n_requests", "n_served", "n_rejected", "n_batches",
            "sources", "p50_latency_s", "p99_latency_s",
            "throughput_rps", "coalesce_rate", "cache_hit_rate",
            "makespan_s", "prompt_tokens", "completion_tokens",
            "total_tokens",
        ):
            assert key in summary
        assert summary["n_requests"] == 30
        assert 0.0 <= summary["coalesce_rate"] < 1.0
        assert 0.0 <= summary["cache_hit_rate"] <= 1.0
        assert summary["p50_latency_s"] <= summary["p99_latency_s"]
        assert report.config["serve"]["max_batch"] == 8
        assert [t["name"] for t in report.config["tenants"]] == [
            "tenant-0", "tenant-1", "tenant-2",
        ]
        assert report.render()

    def test_latency_quantiles_interpolate(self, make_service, make_trace):
        service = make_service(serve_config=TINY)
        report = service.serve(
            make_trace([("tenant-0", float(i), i) for i in range(10)])
        )
        latencies = sorted(r.latency_s for r in report.responses)
        assert report.latency_quantile(0.0) == pytest.approx(latencies[0])
        assert report.latency_quantile(1.0) == pytest.approx(latencies[-1])
        mid = report.latency_quantile(0.5)
        assert latencies[0] <= mid <= latencies[-1]


class TestServeRequest:
    def test_slotted_frozen_and_picklable(self, adult_dataset):
        request = ServeRequest(3, "tenant-0", 1.5, adult_dataset.instances[0])
        assert not hasattr(request, "__dict__")
        with pytest.raises(AttributeError):
            request.tenant = "tenant-1"
        assert pickle.loads(pickle.dumps(request)) == request


class TestServeResponse:
    def test_fields_cannot_be_assigned(self):
        response = ServeResponse(1, "t", 2.0, True, "llm", 3.0, 5.5)
        with pytest.raises(AttributeError):
            response.prediction = False
        assert response == (1, "t", 2.0, True, "llm", 3.0, 5.5, None, None)

    def test_latency_and_wait_read_the_virtual_clock(self):
        response = ServeResponse(
            request_id=1, tenant="t", arrival_s=2.0, prediction=True,
            source="shared", flushed_s=3.0, completed_s=5.5, batch_seq=4,
        )
        assert response.wait_s == 1.0
        assert response.latency_s == 3.5
        assert response._replace(completed_s=2.5).latency_s == 0.5
