"""Tests for repro.eval.reporting."""

import pytest

from repro.core.executor import ExecutionReport, LaneReport
from repro.errors import EvaluationError
from repro.eval.reporting import (
    format_score,
    render_execution_report,
    render_table,
)


class TestRenderTable:
    def test_alignment(self):
        text = render_table("T", ["col", "x"], [["a", "1"], ["bbbb", "22"]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "col" in lines[1]
        # All data rows equal length (aligned).
        assert len(lines[3]) == len(lines[4])

    def test_empty_rows_ok(self):
        text = render_table("T", ["a"], [])
        assert "a" in text

    def test_ragged_rows_rejected(self):
        with pytest.raises(EvaluationError):
            render_table("T", ["a", "b"], [["only-one"]])

    def test_no_columns_rejected(self):
        with pytest.raises(EvaluationError):
            render_table("T", [], [])


class TestFormatters:
    def test_format_score(self):
        assert format_score(0.925) == "92.5"
        assert format_score(None) == "N/A"


class TestExecutionReportRendering:
    def test_one_row_per_lane_plus_summary(self):
        report = ExecutionReport(
            concurrency=2,
            lanes=[
                LaneReport(lane=0, n_calls=3, n_retries=1, busy_s=30.0,
                           utilization=0.75),
                LaneReport(lane=1, n_calls=2, n_breaker_trips=1, busy_s=20.0,
                           utilization=0.5),
            ],
            makespan_s=40.0,
            sequential_s=50.0,
            n_calls=5,
            n_retries=1,
            n_breaker_trips=1,
            n_giveups=1,
            n_fallback_splits=2,
        )
        text = render_execution_report(report)
        lines = text.splitlines()
        assert "2 lane(s)" in lines[0]
        assert len([l for l in lines if l and l[0].isdigit()]) == 2
        assert "speedup 1.25x" in text
        assert "1 give-up(s)" in text
        assert "2 fallback split(s)" in text

    def test_speedup_handles_empty_run(self):
        report = ExecutionReport(concurrency=1)
        assert report.speedup == 1.0
        assert "0 give-up(s)" in render_execution_report(report)
