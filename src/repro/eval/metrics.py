"""Metrics: accuracy for data imputation, F1 for the binary tasks.

Exactly the paper's scoring: DI is accuracy on normalized string equality;
ED/SM/EM are F1 of the positive class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.data.instances import Task
from repro.errors import EvaluationError
from repro.text.normalize import normalize_text


@dataclass(frozen=True)
class BinaryMetrics:
    """Confusion counts and the derived precision/recall/F1."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    @property
    def accuracy(self) -> float:
        total = self.tp + self.fp + self.fn + self.tn
        return (self.tp + self.tn) / total if total else 0.0


def confusion_counts(
    predictions: Sequence[bool], labels: Sequence[bool]
) -> BinaryMetrics:
    if len(predictions) != len(labels):
        raise EvaluationError(
            f"{len(predictions)} predictions for {len(labels)} labels"
        )
    tp = fp = fn = tn = 0
    for predicted, actual in zip(predictions, labels):
        if predicted and actual:
            tp += 1
        elif predicted and not actual:
            fp += 1
        elif not predicted and actual:
            fn += 1
        else:
            tn += 1
    return BinaryMetrics(tp=tp, fp=fp, fn=fn, tn=tn)


def f1_score(predictions: Sequence[bool], labels: Sequence[bool]) -> float:
    """F1 of the positive class, in [0, 1]."""
    return confusion_counts(predictions, labels).f1


def values_match(predicted: str, truth: str) -> bool:
    """DI correctness: normalized string equality.

    Case, punctuation, and whitespace are forgiven (as human evaluation
    of LLM answers does); content is not.
    """
    return normalize_text(str(predicted)) == normalize_text(str(truth))


def accuracy(predictions: Sequence[str], truths: Sequence[str]) -> float:
    """Imputation accuracy in [0, 1]."""
    if len(predictions) != len(truths):
        raise EvaluationError(
            f"{len(predictions)} predictions for {len(truths)} truths"
        )
    if not predictions:
        raise EvaluationError("cannot score zero predictions")
    correct = sum(
        1 for p, t in zip(predictions, truths) if values_match(p, t)
    )
    return correct / len(predictions)


def score_predictions(
    task: Task,
    predictions: Sequence[bool | str],
    labels: Sequence[bool | str],
) -> float:
    """The paper's headline number for one run: accuracy (DI) or F1."""
    if task is Task.DATA_IMPUTATION:
        return accuracy([str(p) for p in predictions], [str(t) for t in labels])
    return f1_score([bool(p) for p in predictions], [bool(t) for t in labels])


def score_answered(
    task: Task,
    predictions: Sequence[bool | str | None],
    labels: Sequence[bool | str],
) -> tuple[float | None, int]:
    """Score only the instances the run actually answered.

    Quarantined instances carry ``None`` predictions (the degradation
    ladder gave up on them rather than guessing); they are excluded from
    the metric instead of silently counted as wrong answers.  Returns
    ``(score, n_answered)``; the score is ``None`` when nothing was
    answered at all.  With full coverage this is exactly
    :func:`score_predictions`.
    """
    if len(predictions) != len(labels):
        raise EvaluationError(
            f"{len(predictions)} predictions for {len(labels)} labels"
        )
    answered = [
        (predicted, truth)
        for predicted, truth in zip(predictions, labels)
        if predicted is not None
    ]
    if not answered:
        return None, 0
    kept_predictions = [pair[0] for pair in answered]
    kept_labels = [pair[1] for pair in answered]
    return score_predictions(task, kept_predictions, kept_labels), len(answered)
