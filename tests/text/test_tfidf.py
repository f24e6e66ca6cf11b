"""Tests for repro.text.tfidf."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.text.tfidf import TfidfVectorizer


class TestTfidfVectorizer:
    def test_fit_before_transform_required(self):
        with pytest.raises(ReproError):
            TfidfVectorizer().transform(["x"])

    def test_zero_documents_rejected(self):
        with pytest.raises(ReproError):
            TfidfVectorizer().fit([])

    def test_rows_l2_normalized(self):
        matrix = TfidfVectorizer().fit_transform(["a b c", "a b", "c d"])
        norms = np.linalg.norm(matrix, axis=1)
        assert np.allclose(norms, 1.0)

    def test_rare_terms_weighted_higher(self):
        vec = TfidfVectorizer().fit(["common rare", "common x", "common y"])
        matrix = vec.transform(["common rare"])
        common_idx = vec.vocabulary_["common"]
        rare_idx = vec.vocabulary_["rare"]
        assert matrix[0, rare_idx] > matrix[0, common_idx]

    def test_unseen_terms_ignored(self):
        vec = TfidfVectorizer().fit(["a b"])
        row = vec.transform(["zzz"])
        assert np.allclose(row, 0.0)

    def test_min_df_filters(self):
        vec = TfidfVectorizer(min_df=2).fit(["a b", "a c"])
        assert "a" in vec.vocabulary_
        assert "b" not in vec.vocabulary_

    def test_min_df_validation(self):
        with pytest.raises(ValueError):
            TfidfVectorizer(min_df=0)
