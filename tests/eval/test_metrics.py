"""Tests for repro.eval.metrics."""

import pytest

from repro.data.instances import Task
from repro.errors import EvaluationError
from repro.eval.metrics import (
    BinaryMetrics,
    accuracy,
    confusion_counts,
    f1_score,
    score_predictions,
    values_match,
)


class TestConfusion:
    def test_counts(self):
        m = confusion_counts([True, True, False, False],
                             [True, False, True, False])
        assert (m.tp, m.fp, m.fn, m.tn) == (1, 1, 1, 1)

    def test_mismatched_lengths(self):
        with pytest.raises(EvaluationError):
            confusion_counts([True], [True, False])


class TestF1:
    def test_perfect(self):
        assert f1_score([True, False], [True, False]) == 1.0

    def test_no_positives_predicted(self):
        assert f1_score([False, False], [True, False]) == 0.0

    def test_textbook_value(self):
        # P = 2/3, R = 2/4 -> F1 = 4/7
        predictions = [True, True, True, False, False, False]
        labels = [True, True, False, True, True, False]
        assert f1_score(predictions, labels) == pytest.approx(4 / 7)

    def test_prf_triple(self):
        m = confusion_counts([True], [True])
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_degenerate_all_negative(self):
        assert f1_score([False], [False]) == 0.0


class TestBinaryMetricsProperties:
    def test_accuracy(self):
        m = BinaryMetrics(tp=3, fp=1, fn=1, tn=5)
        assert m.accuracy == 0.8

    def test_zero_division_safe(self):
        m = BinaryMetrics(tp=0, fp=0, fn=0, tn=0)
        assert m.precision == m.recall == m.f1 == m.accuracy == 0.0


class TestAccuracy:
    def test_normalized_comparison(self):
        assert values_match("New York", "new york")
        assert values_match(" atlanta. ", "Atlanta")
        assert not values_match("atlanta", "marietta")

    def test_accuracy_fraction(self):
        assert accuracy(["a", "b"], ["a", "c"]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            accuracy([], [])


class TestScorePredictions:
    def test_di_uses_accuracy(self):
        score = score_predictions(Task.DATA_IMPUTATION, ["x"], ["X"])
        assert score == 1.0

    def test_binary_uses_f1(self):
        score = score_predictions(Task.ENTITY_MATCHING, [True, False],
                                  [True, True])
        assert score == pytest.approx(2 / 3)
