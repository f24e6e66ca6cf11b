"""Tests for repro.text.similarity."""

import pytest

from repro.text.similarity import (
    jaccard,
    jaro_winkler,
    levenshtein,
    levenshtein_similarity,
    monge_elkan,
    ngrams,
    token_set_ratio,
)


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a, b, expected",
        [
            ("", "", 0),
            ("abc", "abc", 0),
            ("abc", "", 3),
            ("", "xy", 2),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("ab", "ba", 2),  # transposition costs 2 edits
        ],
    )
    def test_known_distances(self, a, b, expected):
        assert levenshtein(a, b) == expected

    def test_symmetry(self):
        assert levenshtein("abcde", "xbcd") == levenshtein("xbcd", "abcde")

    def test_similarity_scale(self):
        assert levenshtein_similarity("abc", "abc") == 1.0
        assert levenshtein_similarity("", "") == 1.0
        assert levenshtein_similarity("abcd", "wxyz") == 0.0


class TestJaroWinkler:
    def test_identical(self):
        assert jaro_winkler("martha", "martha") == 1.0

    def test_classic_pair(self):
        # The textbook MARTHA/MARHTA value is ~0.961.
        assert jaro_winkler("martha", "marhta") == pytest.approx(0.961, abs=0.001)

    def test_no_similarity(self):
        assert jaro_winkler("abc", "xyz") == 0.0

    def test_prefix_bonus(self):
        base = jaro_winkler("prefixed", "prefixxx", prefix_scale=0.0)
        bonus = jaro_winkler("prefixed", "prefixxx", prefix_scale=0.1)
        assert bonus > base

    def test_bad_prefix_scale_rejected(self):
        with pytest.raises(ValueError):
            jaro_winkler("a", "b", prefix_scale=0.5)

    def test_bounds(self):
        assert 0.0 <= jaro_winkler("information", "informal") <= 1.0


class TestSetMeasures:
    def test_jaccard(self):
        assert jaccard(["a", "b"], ["b", "c"]) == pytest.approx(1 / 3)
        assert jaccard([], []) == 1.0
        assert jaccard(["a"], []) == 0.0


class TestMongeElkan:
    def test_reordering_tolerated(self):
        a = ["powers", "ferry", "road"]
        b = ["road", "powers", "ferry"]
        assert monge_elkan(a, b) == pytest.approx(1.0)

    def test_typos_tolerated(self):
        assert monge_elkan(["ferry"], ["ferri"]) > 0.85

    def test_empty(self):
        assert monge_elkan([], []) == 1.0
        assert monge_elkan(["a"], []) == 0.0


class TestTokenSetRatio:
    def test_case_and_punct_invariant(self):
        assert token_set_ratio("Hello, World!", "hello world") == 1.0

    def test_partial(self):
        score = token_set_ratio("golden dragon cafe", "golden dragon")
        assert 0.5 < score < 1.0

    def test_empty(self):
        assert token_set_ratio("", "") == 1.0


class TestNgrams:
    def test_padding(self):
        assert ngrams("ab", 3) == ["##a", "#ab", "ab#", "b##"]

    def test_unigrams_unpadded(self):
        assert ngrams("abc", 1) == ["a", "b", "c"]

    def test_empty_string(self):
        assert ngrams("", 3) == ["####"] or ngrams("", 3) == []

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            ngrams("abc", 0)
