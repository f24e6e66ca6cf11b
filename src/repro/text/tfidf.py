"""A small TF-IDF vectorizer (numpy-backed).

Used by the Ditto-style entity-matching baseline and by blocking.  The API
mirrors the scikit-learn vectorizer narrowly: ``fit``, ``transform``,
``fit_transform`` over an iterable of raw strings.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import ReproError
from repro.text.normalize import normalize_text


def _default_analyzer(text: str) -> list[str]:
    return normalize_text(text).split()


class TfidfVectorizer:
    """TF-IDF with smooth IDF and L2-normalized rows.

    Parameters
    ----------
    analyzer:
        Callable mapping a raw string to a list of terms.  Defaults to
        whitespace words of the normalized text.
    min_df:
        Terms appearing in fewer than ``min_df`` documents are dropped.
    """

    def __init__(
        self,
        analyzer: Callable[[str], list[str]] | None = None,
        min_df: int = 1,
    ):
        if min_df < 1:
            raise ValueError("min_df must be >= 1")
        self._analyzer = analyzer or _default_analyzer
        self._min_df = min_df
        self.vocabulary_: dict[str, int] = {}
        self.idf_: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        return self.idf_ is not None

    def fit(self, documents: Sequence[str]) -> "TfidfVectorizer":
        """Learn the vocabulary and IDF weights from ``documents``."""
        if not documents:
            raise ReproError("cannot fit TfidfVectorizer on zero documents")
        doc_freq: Counter[str] = Counter()
        for doc in documents:
            doc_freq.update(set(self._analyzer(doc)))
        terms = sorted(t for t, df in doc_freq.items() if df >= self._min_df)
        self.vocabulary_ = {t: i for i, t in enumerate(terms)}
        n_docs = len(documents)
        idf = np.empty(len(terms), dtype=np.float64)
        for term, index in self.vocabulary_.items():
            # Smooth IDF: never zero, never negative.
            idf[index] = math.log((1 + n_docs) / (1 + doc_freq[term])) + 1.0
        self.idf_ = idf
        return self

    def transform(self, documents: Iterable[str]) -> np.ndarray:
        """Map documents to L2-normalized TF-IDF rows (dense ndarray)."""
        if not self.is_fitted:
            raise ReproError("TfidfVectorizer.transform called before fit")
        docs = list(documents)
        matrix = np.zeros((len(docs), len(self.vocabulary_)), dtype=np.float64)
        for row, doc in enumerate(docs):
            counts = Counter(self._analyzer(doc))
            for term, count in counts.items():
                col = self.vocabulary_.get(term)
                if col is not None:
                    matrix[row, col] = count
        matrix *= self.idf_
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return matrix / norms

    def fit_transform(self, documents: Sequence[str]) -> np.ndarray:
        return self.fit(documents).transform(documents)
