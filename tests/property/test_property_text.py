"""Property-based tests (hypothesis) for the text substrate."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.testing.reference import levenshtein_reference
from repro.text.normalize import normalize_text, strip_accents
from repro.text.phonetic import soundex
from repro.text.similarity import (
    jaccard,
    jaro_winkler,
    levenshtein,
    levenshtein_similarity,
    ngrams,
    token_set_ratio,
)
from repro.text.tokenize import count_part, count_tokens

words = st.text(alphabet=string.ascii_lowercase, min_size=0, max_size=12)
texts = st.text(min_size=0, max_size=60)
#: any unicode, from empty to well past one 64-bit word of the bit vector
long_texts = st.text(min_size=0, max_size=150)
#: texts dense in word edges: apostrophes, letters, digits, punctuation
word_edges = st.text(alphabet="ab7'\" ,.:[]?é\n", max_size=14)
_WORD_CHARS = set(string.ascii_letters + string.digits + "'")
#: a small alphabet, so long strings share many characters
long_words = st.text(alphabet="abcé ", min_size=0, max_size=150)


class TestLevenshteinProperties:
    @given(words, words)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(words)
    def test_identity(self, a):
        assert levenshtein(a, a) == 0

    @given(words, words)
    def test_length_bounds(self, a, b):
        d = levenshtein(a, b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @given(words, words, words)
    @settings(max_examples=50)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(words, words)
    def test_similarity_in_unit_interval(self, a, b):
        assert 0.0 <= levenshtein_similarity(a, b) <= 1.0

    @given(long_texts, long_texts)
    @settings(max_examples=200, deadline=None)
    def test_bit_parallel_equals_the_dp_oracle(self, a, b):
        assert levenshtein(a, b) == levenshtein_reference(a, b)

    @given(long_words, long_words)
    @settings(max_examples=200, deadline=None)
    def test_bit_parallel_equals_the_dp_oracle_on_near_strings(self, a, b):
        assert levenshtein(a, b) == levenshtein_reference(a, b)

    @given(long_words, st.integers(0, 149), st.sampled_from("xé"))
    @settings(max_examples=100, deadline=None)
    def test_bit_parallel_equals_the_dp_oracle_on_one_edit(self, a, at, char):
        b = a[:at] + char + a[at + 1:]  # a substitution, or an append
        assert levenshtein(a, b) == levenshtein_reference(a, b) <= 1


class TestJaroWinklerProperties:
    @given(words, words)
    def test_bounds(self, a, b):
        assert 0.0 <= jaro_winkler(a, b) <= 1.0

    @given(words, words)
    def test_symmetry(self, a, b):
        assert jaro_winkler(a, b) == jaro_winkler(b, a)

    @given(words)
    def test_identity(self, a):
        assert jaro_winkler(a, a) == 1.0 or a == ""


class TestSetSimilarityProperties:
    @given(st.lists(words), st.lists(words))
    def test_jaccard_bounds_and_symmetry(self, a, b):
        s = jaccard(a, b)
        assert 0.0 <= s <= 1.0
        assert s == jaccard(b, a)

    @given(texts, texts)
    @settings(max_examples=60)
    def test_token_set_ratio_bounds(self, a, b):
        assert 0.0 <= token_set_ratio(a, b) <= 1.0


class TestNormalizeProperties:
    @given(texts)
    def test_idempotent(self, t):
        once = normalize_text(t)
        assert normalize_text(once) == once

    @given(texts)
    def test_lowercase_and_single_spaced(self, t):
        out = normalize_text(t)
        assert out == out.lower()
        assert "  " not in out
        assert out == out.strip()

    @given(texts)
    def test_strip_accents_ascii_fixed_point(self, t):
        stripped = strip_accents(t)
        assert strip_accents(stripped) == stripped


class TestTokenizeProperties:
    @given(texts)
    def test_nonnegative(self, t):
        assert count_tokens(t) >= 0

    @given(texts, texts)
    @settings(max_examples=60)
    def test_superadditive_under_concat_with_space(self, a, b):
        # Concatenation with a separator never produces fewer tokens than
        # the larger part alone.
        combined = count_tokens(f"{a} {b}")
        assert combined >= max(count_tokens(a), count_tokens(b))

    @given(word_edges, word_edges)
    @settings(max_examples=300)
    def test_counts_add_over_a_token_safe_split(self, a, b):
        # Safe: the character on one side is not a letter, digit or "'".
        if a and b and a[-1] in _WORD_CHARS and b[0] in _WORD_CHARS:
            return
        assert count_tokens(a + b) == count_tokens(a) + count_tokens(b)
        assert count_part(a) + count_part(b) == count_tokens(a + b)


class TestNgramProperties:
    @given(words, st.integers(min_value=1, max_value=5))
    def test_count_formula(self, t, n):
        grams = ngrams(t, n)
        if not t:
            assert grams == []
        elif n == 1:
            assert len(grams) == len(t)
        else:
            assert len(grams) == len(t) + n - 1

    @given(words, st.integers(min_value=2, max_value=4))
    def test_all_grams_right_length(self, t, n):
        for gram in ngrams(t, n):
            assert len(gram) == n


class TestSoundexProperties:
    @given(words)
    def test_format(self, w):
        code = soundex(w)
        assert len(code) == 4
        if w:
            assert code[0] == w[0].upper() or code == "0000"
            assert all(c.isdigit() for c in code[1:]) or code == "0000"

    @given(words)
    def test_case_insensitive(self, w):
        assert soundex(w) == soundex(w.upper())
