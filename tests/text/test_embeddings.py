"""Tests for repro.text.embeddings."""

import numpy as np
import pytest

from tests.oracles import embed_all_reference
from repro.text.embeddings import (
    HashingEmbedder,
    average_pairwise_similarity,
    clear_hash_cache,
    hash_cache_size,
)


class TestHashingEmbedder:
    def test_deterministic_across_instances(self):
        a = HashingEmbedder().embed("hello world")
        b = HashingEmbedder().embed("hello world")
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        v = HashingEmbedder().embed("some text here")
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_empty_text_is_zero(self):
        v = HashingEmbedder().embed("")
        assert np.allclose(v, 0.0)

    def test_similar_texts_closer_than_different(self):
        e = HashingEmbedder()
        base = "stone brewing pale ale"
        near = e.similarity(base, "stone brewing pale ale 6%")
        far = e.similarity(base, "database query optimization")
        assert near > far

    def test_embed_all_shape(self):
        matrix = HashingEmbedder(dim=64).embed_all(["a", "b", "c"])
        assert matrix.shape == (3, 64)

    def test_embed_all_empty(self):
        matrix = HashingEmbedder(dim=64).embed_all([])
        assert matrix.shape == (0, 64)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            HashingEmbedder(dim=0)
        with pytest.raises(ValueError):
            HashingEmbedder(ngram=-1)


class TestVectorizedKernel:
    CORPUS = [
        '[name: "stone ipa", style: "india pale ale", abv: "6.9"]',
        '[name: "pale ale", style: ???, abv: "5.2"]',
        "",
        "   ",
        "café münchen ß 中文",
        "a",
        '[name: "stone ipa", style: "india pale ale", abv: "6.9"]',
    ]

    @pytest.mark.parametrize("ngram", [0, 1, 2, 3, 4, 5, 9])
    def test_bit_identical_to_scalar(self, ngram):
        embedder = HashingEmbedder(dim=96, ngram=ngram)
        scalar = embed_all_reference(embedder, self.CORPUS)
        vectorized = embedder.embed_all(self.CORPUS)
        assert (scalar == vectorized).all()

    def test_process_hash_cache_fills_and_clears(self):
        clear_hash_cache()
        assert hash_cache_size() == 0
        HashingEmbedder(dim=32).embed_all(["alpha beta", "beta gamma"])
        filled = hash_cache_size()
        assert filled > 0
        HashingEmbedder(dim=32).embed_all(["alpha beta"])
        # Re-embedding known vocabulary adds nothing new.
        assert hash_cache_size() == filled
        clear_hash_cache()
        assert hash_cache_size() == 0

    def test_cache_is_dimension_independent(self):
        corpus = ["delta epsilon zeta"]
        small = HashingEmbedder(dim=16).embed_all(corpus)
        large = HashingEmbedder(dim=512).embed_all(corpus)
        assert (small == embed_all_reference(HashingEmbedder(dim=16), corpus)).all()
        assert (large == embed_all_reference(HashingEmbedder(dim=512), corpus)).all()


class TestPairwiseSimilarity:
    def test_identical_rows(self):
        e = HashingEmbedder()
        matrix = e.embed_all(["same text", "same text"])
        assert average_pairwise_similarity(matrix) == pytest.approx(1.0)

    def test_single_row_is_one(self):
        e = HashingEmbedder()
        assert average_pairwise_similarity(e.embed_all(["x"])) == 1.0

    def test_mixed_lower_than_homogeneous(self):
        e = HashingEmbedder()
        homogeneous = e.embed_all(["apple pie", "apple pies"])
        mixed = e.embed_all(["apple pie", "query engine"])
        assert average_pairwise_similarity(homogeneous) > average_pairwise_similarity(mixed)
