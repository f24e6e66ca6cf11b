"""Binary logistic regression trained with full-batch gradient descent.

This is the classifier behind the Magellan-style entity matcher and the
HoloDetect-style error detector.  Full-batch gradient descent with L2
regularization is entirely adequate at benchmark scale (thousands of rows,
tens of features) and keeps the implementation auditable.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Clip to keep exp() finite; gradients saturate there anyway.
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


class LogisticRegression:
    """L2-regularized binary logistic regression.

    Parameters
    ----------
    learning_rate:
        Gradient-descent step size.
    n_iter:
        Number of full-batch iterations.
    l2:
        L2 penalty strength (0 disables regularization).
    class_weight:
        ``"balanced"`` reweights examples inversely to class frequency —
        important for entity matching, where matches are rare.
    """

    def __init__(
        self,
        learning_rate: float = 0.1,
        n_iter: int = 500,
        l2: float = 1e-3,
        class_weight: str | None = "balanced",
        nonnegative: bool = False,
    ):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if n_iter <= 0:
            raise ValueError("n_iter must be positive")
        if l2 < 0:
            raise ValueError("l2 must be non-negative")
        if class_weight not in (None, "balanced"):
            raise ValueError("class_weight must be None or 'balanced'")
        self.learning_rate = learning_rate
        self.n_iter = n_iter
        self.l2 = l2
        self.class_weight = class_weight
        #: projected gradient onto w >= 0: for models whose features are
        #: similarities, monotonicity is a domain-transferable prior (more
        #: similar can never mean less matching)
        self.nonnegative = nonnegative
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    @property
    def is_fitted(self) -> bool:
        return self.coef_ is not None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        """Fit on features ``X`` (n, d) and binary labels ``y`` (n,)."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ReproError(f"X must be 2-D, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ReproError(
                f"y shape {y.shape} incompatible with X shape {X.shape}"
            )
        unique = set(np.unique(y).tolist())
        if not unique <= {0.0, 1.0}:
            raise ReproError(f"labels must be 0/1, got {sorted(unique)}")

        n, d = X.shape
        weights = np.ones(n)
        if self.class_weight == "balanced":
            positives = float(y.sum())
            negatives = n - positives
            if positives > 0 and negatives > 0:
                weights = np.where(y == 1.0, n / (2 * positives), n / (2 * negatives))

        w = np.zeros(d)
        b = 0.0
        for __ in range(self.n_iter):
            p = _sigmoid(X @ w + b)
            error = (p - y) * weights
            grad_w = X.T @ error / n + self.l2 * w
            grad_b = float(error.mean())
            w -= self.learning_rate * grad_w
            b -= self.learning_rate * grad_b
            if self.nonnegative:
                np.maximum(w, 0.0, out=w)
        self.coef_ = w
        self.intercept_ = b
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Probability of class 1 for each row of ``X``."""
        if not self.is_fitted:
            raise ReproError("predict_proba called before fit")
        X = np.asarray(X, dtype=np.float64)
        return _sigmoid(X @ self.coef_ + self.intercept_)

    def predict(self, X: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 predictions at the given probability threshold."""
        return (self.predict_proba(X) >= threshold).astype(np.int64)
