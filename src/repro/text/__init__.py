"""Text-processing substrate: normalization, similarity, tokens, embeddings.

Everything here is implemented from scratch (stdlib + numpy) because the
reproduction environment has no network access: these modules stand in for
the external NLP tooling (tokenizers, Sentence-BERT) the paper relies on.
"""

from repro.text.normalize import normalize_text, strip_accents
from repro.text.similarity import (
    jaccard,
    jaro_winkler,
    levenshtein,
    levenshtein_similarity,
    monge_elkan,
    token_set_ratio,
)
from repro.text.tokenize import count_tokens, word_tokens
from repro.text.tfidf import TfidfVectorizer
from repro.text.embeddings import HashingEmbedder
from repro.text.phonetic import soundex

__all__ = [
    "normalize_text",
    "strip_accents",
    "levenshtein",
    "levenshtein_similarity",
    "jaro_winkler",
    "jaccard",
    "monge_elkan",
    "token_set_ratio",
    "count_tokens",
    "word_tokens",
    "TfidfVectorizer",
    "HashingEmbedder",
    "soundex",
]
