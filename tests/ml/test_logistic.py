"""Tests for repro.ml.logistic."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.ml.logistic import LogisticRegression


@pytest.fixture()
def separable():
    rng = np.random.default_rng(0)
    X0 = rng.normal(loc=-2.0, size=(60, 2))
    X1 = rng.normal(loc=+2.0, size=(60, 2))
    X = np.vstack([X0, X1])
    y = np.array([0.0] * 60 + [1.0] * 60)
    return X, y


class TestLogisticRegression:
    def test_separable_data_learned(self, separable):
        X, y = separable
        model = LogisticRegression().fit(X, y)
        accuracy = (model.predict(X) == y).mean()
        assert accuracy > 0.97

    def test_probabilities_in_unit_interval(self, separable):
        X, y = separable
        p = LogisticRegression().fit(X, y).predict_proba(X)
        assert np.all(p >= 0.0) and np.all(p <= 1.0)

    def test_balanced_weighting_helps_minority_recall(self):
        rng = np.random.default_rng(1)
        X0 = rng.normal(loc=-0.4, size=(500, 1))
        X1 = rng.normal(loc=+0.6, size=(25, 1))
        X = np.vstack([X0, X1])
        y = np.array([0.0] * 500 + [1.0] * 25)
        balanced = LogisticRegression(class_weight="balanced").fit(X, y)
        plain = LogisticRegression(class_weight=None).fit(X, y)
        recall_balanced = balanced.predict(X[500:]).mean()
        recall_plain = plain.predict(X[500:]).mean()
        assert recall_balanced >= recall_plain

    def test_predict_before_fit_raises(self):
        with pytest.raises(ReproError):
            LogisticRegression().predict(np.zeros((1, 2)))

    def test_bad_labels_rejected(self):
        with pytest.raises(ReproError):
            LogisticRegression().fit(np.zeros((2, 1)), np.array([0.0, 2.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ReproError):
            LogisticRegression().fit(np.zeros((3, 1)), np.array([0.0, 1.0]))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            LogisticRegression(learning_rate=0)
        with pytest.raises(ValueError):
            LogisticRegression(n_iter=0)
        with pytest.raises(ValueError):
            LogisticRegression(l2=-1)
        with pytest.raises(ValueError):
            LogisticRegression(class_weight="bogus")
