"""The serve log: a read-only sequence of responses over typed columns.

``ServeReport.responses`` is a :class:`~repro.serving.request.ServeLog`.
It must behave as the list of ``ServeResponse`` it replaced (indexing,
slicing, iteration, equality), hold no object per answered request that
the garbage collector tracks, and keep its view table per run.
"""

from __future__ import annotations

import gc

import pytest

from repro.errors import ServingError
from repro.serving import ServeConfig, ServeLog, ServeRequest, ServeResponse

#: one flush per unique question, answer cache of exactly one entry
TINY = ServeConfig(max_batch=1, coalesce="eager", cache_entries=1)


def _rows(n: int, n_questions: int, step: float = 0.25) -> list[tuple]:
    tenants = ("tenant-0", "tenant-1", "tenant-2")
    return [
        (tenants[i % 3], step * i, (i * 7) % n_questions) for i in range(n)
    ]


@pytest.fixture
def report(make_service, make_trace):
    """Flushed, shared and cached answers from three tenants."""
    service = make_service()
    return service.serve(make_trace(_rows(40, 6, step=0.1)))


class TestSequenceContract:
    def test_is_a_log_with_every_source(self, report):
        log = report.responses
        assert isinstance(log, ServeLog)
        assert {r.source for r in log} == {"llm", "shared", "cache"}
        assert len(log) == report.n_served == 40

    def test_indexing_equals_iteration(self, report):
        log = report.responses
        rows = list(log)
        assert all(type(r) is ServeResponse for r in rows)
        assert [log[i] for i in range(len(log))] == rows
        assert [log[-i] for i in range(1, len(log) + 1)] == rows[::-1]
        assert list(reversed(log)) == rows[::-1]
        assert log[-1] == rows[-1] and log[0] == rows[0]

    def test_slices_are_lists(self, report):
        log = report.responses
        rows = list(log)
        for piece in (
            slice(None), slice(3, 9), slice(-5, None), slice(None, None, -3),
            slice(30, 100), slice(8, 2),
        ):
            assert log[piece] == rows[piece]
            assert isinstance(log[piece], list)

    def test_index_past_the_end_raises(self, report):
        log = report.responses
        for index in (len(log), -len(log) - 1):
            with pytest.raises(IndexError):
                log[index]

    def test_equals_a_list_of_the_same_responses(self, report):
        log = report.responses
        rows = list(log)
        assert log == rows and rows == log
        assert log != rows[:-1]
        assert log != [*rows[:-1], rows[-1]._replace(prediction="other")]
        assert log != tuple(rows)
        assert log.index(rows[5]) == 5 and rows[5] in log

    def test_fields_read_the_virtual_clock(self, report):
        for response in report.responses:
            assert response.latency_s == (
                response.completed_s - response.arrival_s
            )
            assert response.wait_s == response.flushed_s - response.arrival_s
            if response.source == "cache":
                assert response.flushed_s == response.arrival_s
                assert response.batch_seq is None
            else:
                assert response.wait_s >= 0.0
            assert response._asdict() == dict(
                zip(ServeResponse._fields, response)
            )

    def test_a_log_is_not_hashable(self, report):
        with pytest.raises(TypeError):
            hash(report.responses)


class TestViews:
    def test_a_hit_reuses_an_answer_from_an_earlier_call(
        self, make_service, make_trace
    ):
        service = make_service()
        first = service.serve(make_trace([("tenant-0", 0.0, 3)]))
        [answered] = first.responses
        second = service.serve(make_trace([
            ("tenant-1", 10.0, 3), ("tenant-2", 11.0, 3),
        ]))
        assert list(second.responses) == [
            ServeResponse(
                0, "tenant-1", 10.0, answered.prediction, "cache", 10.0,
                10.0, None, None,
            ),
            ServeResponse(
                1, "tenant-2", 11.0, answered.prediction, "cache", 11.0,
                11.0, None, None,
            ),
        ]
        # The first call's log is not touched by the second's hits.
        assert list(first.responses) == [answered]

    def test_a_re_answered_question_gets_a_new_view(
        self, make_service, make_trace
    ):
        service = make_service(serve_config=TINY)
        # The third completion call (question 0, asked again after its
        # eviction) answers the opposite, so a hit that reused the first
        # answer's view would show.
        answer_batch = service._preprocessor.answer_batch
        calls = []

        def flip_the_third(*args, **kwargs):
            answers = answer_batch(*args, **kwargs)
            calls.append(answers)
            if len(calls) == 3:
                answers = [not answer for answer in answers]
            return answers

        service._preprocessor.answer_batch = flip_the_third
        report = service.serve(make_trace([
            ("tenant-0", 0.0, 0),  # llm
            ("tenant-0", 1.0, 0),  # cache hit on batch 0's answer
            ("tenant-0", 2.0, 1),  # llm, evicts question 0
            ("tenant-0", 3.0, 0),  # llm again: a new answer
            ("tenant-0", 4.0, 0),  # cache hit on batch 2's answer
        ]))
        assert [(r.source, r.batch_seq) for r in report.responses] == [
            ("llm", 0), ("cache", None), ("llm", 1), ("llm", 2),
            ("cache", None),
        ]
        first_hit, second_hit = report.responses[1], report.responses[4]
        assert isinstance(report.responses[0].prediction, bool)
        assert first_hit.prediction == report.responses[0].prediction
        assert second_hit.prediction == report.responses[3].prediction
        assert second_hit.prediction != first_hit.prediction
        assert first_hit.completed_s == max(
            1.0, report.responses[0].completed_s
        )
        assert second_hit.completed_s == max(
            4.0, report.responses[3].completed_s
        )
        assert report.summary()["sources"] == {
            "llm": 3, "shared": 0, "cache": 2,
        }

    def test_views_grow_with_answers_not_arrivals(
        self, make_service, make_trace
    ):
        service = make_service()
        report = service.serve(make_trace(_rows(600, 5)))
        log = report.responses
        assert len(log) == 600
        # Five answers, each flushed once and reused by one cache view.
        assert len(log._sources) <= 5 * 3


class TestLatencyQuantile:
    @pytest.fixture
    def served(self, make_service, make_trace):
        """Ten requests for one question: flushed, shared, then cached."""
        return make_service().serve(make_trace(_rows(10, 1)))

    @pytest.mark.parametrize("q", [-0.5, -1e-9, 1.0 + 1e-9, 1.5, float("nan")])
    def test_refuses_q_outside_the_unit_interval(self, served, q):
        with pytest.raises(ServingError, match="q must be in"):
            served.latency_quantile(q)

    def test_the_ends_are_the_extremes(self, served):
        latencies = sorted(r.latency_s for r in served.responses)
        assert served.latency_quantile(0.0) == latencies[0]
        assert served.latency_quantile(1.0) == latencies[-1]
        summary = served.summary()
        assert summary["p50_latency_s"] == served.latency_quantile(0.5)
        assert summary["p99_latency_s"] == served.latency_quantile(0.99)

    def test_an_empty_log_reads_zero(self, make_service):
        report = make_service().serve([])
        assert report.latency_quantile(0.0) == 0.0
        assert report.latency_quantile(1.0) == 0.0
        assert report.makespan_s == 0.0
        assert report.cache_hit_rate == 0.0
        with pytest.raises(ServingError):
            report.latency_quantile(2.0)


class TestTraceIds:
    def test_an_id_past_the_column_is_refused_before_admission(
        self, make_service, make_trace
    ):
        service = make_service()
        trace = make_trace([("tenant-0", 0.0, 0), ("tenant-0", 1.0, 1)])
        trace[1] = ServeRequest(2**63, "tenant-0", 1.0, trace[1].instance)
        with pytest.raises(ServingError, match="64-bit"):
            service.serve(trace)
        assert "serving.requests" not in service.metrics.snapshot().get(
            "counters", {}
        )


def _tracked_growth(make_service, make_trace, n_arrivals: int) -> int:
    """GC-tracked objects a ``serve()`` leaves behind, report held."""
    service = make_service()
    trace = make_trace(_rows(n_arrivals, 50, step=0.05))
    gc.collect()
    before = len(gc.get_objects())
    report = service.serve(trace)
    gc.collect()
    after = len(gc.get_objects())
    assert report.n_served == n_arrivals
    return after - before


def test_collector_pressure_grows_with_questions_not_arrivals(
    make_service, make_trace
):
    small = _tracked_growth(make_service, make_trace, 2_000)
    large = _tracked_growth(make_service, make_trace, 20_000)
    assert abs(large - small) < 1_000, (small, large)
