"""Evaluation: metrics, experiment harness, and the paper's tables."""

from repro.eval.metrics import (
    BinaryMetrics,
    accuracy,
    confusion_counts,
    f1_score,
    score_predictions,
)
from repro.eval.analysis import (
    disagreements,
    error_cases,
    per_group_metrics,
)
from repro.eval.harness import EvaluationRun, evaluate_pipeline
from repro.eval.reporting import render_execution_report, render_table

__all__ = [
    "render_table",
    "render_execution_report",
    "accuracy",
    "f1_score",
    "confusion_counts",
    "BinaryMetrics",
    "score_predictions",
    "EvaluationRun",
    "evaluate_pipeline",
    "per_group_metrics",
    "disagreements",
    "error_cases",
]
