"""Minimal machine-learning substrate (numpy only).

Implements exactly the learners the baselines and the framework need:
logistic regression (Magellan/HoloDetect-style classifiers), k-means
(cluster batching), a multinomial naive Bayes (categorical error
detection) and feature standardization.
"""

from repro.ml.logistic import LogisticRegression
from repro.ml.kmeans import KMeans
from repro.ml.naive_bayes import MultinomialNB
from repro.ml.scaling import StandardScaler

__all__ = [
    "LogisticRegression",
    "KMeans",
    "MultinomialNB",
    "StandardScaler",
]
