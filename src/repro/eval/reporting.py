"""Plain-text table rendering for experiment results.

Produces the paper's tables as aligned monospace text so benchmark runs
print rows directly comparable to the published ones.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.executor import ExecutionReport
from repro.errors import EvaluationError


def render_table(
    title: str,
    column_names: Sequence[str],
    rows: Sequence[Sequence[str]],
) -> str:
    """Render an aligned text table with a title line."""
    if not column_names:
        raise EvaluationError("a table needs at least one column")
    for row in rows:
        if len(row) != len(column_names):
            raise EvaluationError(
                f"row {row!r} has {len(row)} cells, expected {len(column_names)}"
            )
    widths = [
        max(len(str(column_names[i])), *(len(str(r[i])) for r in rows))
        if rows
        else len(str(column_names[i]))
        for i in range(len(column_names))
    ]
    lines = [title]
    header = "  ".join(str(n).ljust(w) for n, w in zip(column_names, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_score(score: float | None) -> str:
    """The paper's cell format: one decimal percent, or N/A."""
    if score is None:
        return "N/A"
    return f"{score * 100:.1f}"


def format_score_with_coverage(score: float | None, coverage: float) -> str:
    """A score cell that is honest about partial coverage.

    Full-coverage runs print exactly as :func:`format_score`; a run in
    which the degradation ladder quarantined instances prints the
    answered fraction alongside, e.g. ``87.5 @ 95.0% coverage`` — the
    score is over the answered instances only, never over guesses.
    """
    text = format_score(score)
    if coverage >= 1.0:
        return text
    return f"{text} @ {coverage * 100:.1f}% coverage"


def render_execution_report(report: ExecutionReport) -> str:
    """Render an executor run as a per-lane utilization table.

    One row per lane (calls, busy time, utilization, retries, timeouts,
    rate-limit waits, breaker trips) plus a summary line comparing the
    makespan against the single-lane sequential estimate.
    """
    rows = [
        [
            str(lane.lane),
            str(lane.n_calls),
            f"{lane.busy_s:.1f}",
            f"{lane.utilization * 100:.0f}%",
            str(lane.n_retries),
            str(lane.n_timeouts),
            str(lane.n_rate_limit_waits),
            str(lane.n_breaker_trips),
        ]
        for lane in report.lanes
    ]
    table = render_table(
        f"Execution — {report.concurrency} lane(s)",
        ["lane", "calls", "busy s", "util", "retries", "timeouts",
         "rl-waits", "breaker"],
        rows,
    )
    summary = (
        f"makespan {report.makespan_s:.1f}s vs sequential "
        f"{report.sequential_s:.1f}s (speedup {report.speedup:.2f}x); "
        f"{report.n_giveups} give-up(s), "
        f"{report.n_fallback_splits} fallback split(s)"
    )
    lines = [table, summary]
    if report.n_cache_hits or report.n_cache_misses:
        lines.append(
            f"cache: {report.n_cache_hits} hit(s), "
            f"{report.n_cache_misses} miss(es) "
            f"(hit rate {report.cache_hit_rate * 100:.0f}%)"
        )
    return "\n".join(lines)
