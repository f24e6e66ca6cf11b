"""Hashing-trick text embeddings: the offline Sentence-BERT substitute.

The paper's cluster batching (Section 3.5) clusters data instances with
k-means over Sentence-BERT embeddings.  Offline we replace the transformer
with a feature-hashing embedder over character n-grams and words: texts with
shared surface vocabulary land near each other in cosine space, which is the
property cluster batching needs (homogeneous batches of similar instances).

Two embedding kernels produce bit-identical vectors:

- the **scalar** reference path (:meth:`HashingEmbedder.embed`, and
  the test oracle ``embed_all_reference`` row by row over it)
  hashes one term at a time in a Python loop — simple, obviously correct,
  and what the property tests anchor on;
- the **vectorized** path (:meth:`HashingEmbedder.embed_all`) works through
  consecutive blocks of at most :data:`EMBED_BLOCK_CHARS` characters: it
  extracts a block's terms, resolves their hashes through a process-level
  memo (one ``blake2b`` per *unique* term per process, ever), and
  scatter-adds the signs into the block's rows of the preallocated
  ``(n, dim)`` matrix with one ``np.bincount``.

Bit-identity holds because every accumulated value is a signed unit count:
sums of ``±1.0`` are exact in float64 regardless of accumulation order, so
the scalar per-row norms and the batched row norms agree to the last bit.
A row depends only on its own text and the memos are pure, so how the
texts fall into blocks cannot change a bit either.

The substitution is documented in DESIGN.md.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

from repro.text.normalize import normalize_text
from repro.text.similarity import ngrams


def _stable_hash(term: str) -> int:
    """A hash that is stable across processes (unlike built-in ``hash``)."""
    digest = hashlib.blake2b(term.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


#: process-level memo of term -> stable 64-bit hash.  The hash is
#: dimension-independent (coordinate and sign are derived from it per
#: embedder), so one cache serves every ``HashingEmbedder`` in the process.
_HASH_CACHE: dict[str, int] = {}

#: process-level memo of packed ASCII n-gram code -> stable hash, one dict
#: per gram size (the integer codes of different sizes would collide)
_GRAM_CACHE: dict[int, dict[int, int]] = {}

#: the full alphabet of normalized text plus the n-gram padding character;
#: small enough that every n-gram of size <= 4 indexes a dense hash table
_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789 #"
_BYTE_TO_SYMBOL = np.full(256, 255, dtype=np.uint8)
for _position, _char in enumerate(_ALPHABET):
    _BYTE_TO_SYMBOL[ord(_char)] = _position

#: n -> (hash table of size len(_ALPHABET)**n, filled mask); filled lazily
_GRAM_TABLES: dict[int, tuple[np.ndarray, np.ndarray]] = {}

#: drop the memos rather than let an adversarial corpus grow them unboundedly
_HASH_CACHE_MAX = 2_000_000

#: normalized characters per ``embed_all`` block, each text's separator
#: included.  A block's transients (word lists, n-gram windows, codes,
#: hashes, cell ids) take 70-105 bytes per character, so 16k characters
#: hold them near 1.25 MiB at any corpus size; the separator keeps a block
#: of blank texts bounded too.  A text longer than the budget is a block
#: of its own.
EMBED_BLOCK_CHARS = 16_384


def hash_cache_size() -> int:
    """Number of distinct terms memoized process-wide (for tests/metrics)."""
    dense = sum(int(filled.sum()) for __, filled in _GRAM_TABLES.values())
    return len(_HASH_CACHE) + sum(len(c) for c in _GRAM_CACHE.values()) + dense


def clear_hash_cache() -> None:
    """Reset the process-level term-hash memos (benchmarks use this to
    measure the cold path)."""
    _HASH_CACHE.clear()
    _GRAM_CACHE.clear()
    _GRAM_TABLES.clear()


def _hash_terms(terms: list[str]) -> np.ndarray:
    """Stable hashes for ``terms`` as a uint64 array, via the process memo.

    Each unique term is hashed at most once per process; repeats — the
    common case for record serializations sharing attribute names and
    vocabulary — resolve through one C-speed ``map`` pass.
    """
    if len(_HASH_CACHE) > _HASH_CACHE_MAX:
        _HASH_CACHE.clear()
    cache = _HASH_CACHE
    try:
        return np.fromiter(
            map(cache.__getitem__, terms), dtype=np.uint64, count=len(terms)
        )
    except KeyError:
        for term in terms:
            if term not in cache:
                cache[term] = _stable_hash(term)
        return np.fromiter(
            map(cache.__getitem__, terms), dtype=np.uint64, count=len(terms)
        )


def _hash_gram_codes(codes: np.ndarray, n: int) -> np.ndarray:
    """Stable hashes for packed ASCII ``n``-gram codes (uint64 array).

    Only the *unique* codes touch Python: new ones are decoded back to
    their n-character string and blake2b-hashed exactly as the scalar path
    would, then memoized process-wide; the full array is rebuilt by
    vectorized gather.
    """
    cache = _GRAM_CACHE.setdefault(n, {})
    if len(cache) > _HASH_CACHE_MAX:
        cache.clear()
    unique, inverse = np.unique(codes, return_inverse=True)
    unique_list = unique.tolist()
    missing = [code for code in unique_list if code not in cache]
    for code in missing:
        gram = code.to_bytes(n, "big").decode("ascii")
        cache[code] = _stable_hash(gram)
    unique_hashes = np.fromiter(
        map(cache.__getitem__, unique_list),
        dtype=np.uint64,
        count=len(unique_list),
    )
    return unique_hashes[inverse]


def _hash_gram_symbols(symbols: np.ndarray, n: int) -> np.ndarray:
    """Stable hashes for ``(m, n)`` alphabet-symbol n-grams, dense-table path.

    With the ~38-symbol alphabet of normalized text, every gram of size
    ``n <= 4`` maps to a compact integer that indexes a process-level hash
    table directly — the warm path is three vectorized gathers with no
    sorting and no per-occurrence Python.  Unseen grams are decoded back to
    their exact string and blake2b-hashed once, ever.
    """
    base = len(_ALPHABET)
    codes = np.zeros(symbols.shape[0], dtype=np.intp)
    for j in range(n):
        codes = codes * base + symbols[:, j]
    entry = _GRAM_TABLES.get(n)
    if entry is None:
        entry = (
            np.zeros(base**n, dtype=np.uint64),
            np.zeros(base**n, dtype=bool),
        )
        _GRAM_TABLES[n] = entry
    table, filled = entry
    missing_mask = ~filled[codes]
    if missing_mask.any():
        seen = np.bincount(codes[missing_mask], minlength=table.shape[0])
        for code in np.flatnonzero(seen).tolist():
            chars, remainder = [], code
            for __ in range(n):
                remainder, symbol = divmod(remainder, base)
                chars.append(_ALPHABET[symbol])
            gram = "".join(reversed(chars))
            table[code] = _stable_hash(gram)
            filled[code] = True
    return table[codes]


class HashingEmbedder:
    """Embed texts into a fixed-dimensional space via feature hashing.

    Each word and character trigram of the normalized text is hashed to a
    coordinate; a second hash bit decides the sign (the classic hashing
    trick, which keeps inner products unbiased).  Rows are L2-normalized so
    cosine similarity equals the dot product.

    Parameters
    ----------
    dim:
        Embedding dimensionality (default 256 — plenty for clustering).
    ngram:
        Character n-gram size mixed in alongside words (0 disables n-grams).
    """

    def __init__(self, dim: int = 256, ngram: int = 3):
        if dim <= 0:
            raise ValueError("dim must be positive")
        if ngram < 0:
            raise ValueError("ngram must be >= 0")
        self.dim = dim
        self.ngram = ngram

    @property
    def params(self) -> tuple[int, int]:
        """The cache-key identity of this embedder: ``(dim, ngram)``."""
        return (self.dim, self.ngram)

    def _terms(self, text: str) -> list[str]:
        normalized = normalize_text(text)
        terms = normalized.split()
        if self.ngram:
            terms.extend(ngrams(normalized, self.ngram))
        return terms

    def embed(self, text: str) -> np.ndarray:
        """Embed one text; the zero vector for empty/blank input.

        This is the scalar reference kernel: one hash per term, one
        scatter-add per term.  :meth:`embed_all` must match it bit for bit.
        """
        vector = np.zeros(self.dim, dtype=np.float64)
        for term in self._terms(text):
            h = _stable_hash(term)
            index = h % self.dim
            sign = 1.0 if (h >> 32) & 1 else -1.0
            vector[index] += sign
        norm = np.linalg.norm(vector)
        if norm > 0.0:
            vector /= norm
        return vector

    def embed_all(self, texts: Iterable[str]) -> np.ndarray:
        """Embed many texts into a ``(n, dim)`` matrix — vectorized.

        Texts are normalized one at a time and embedded in consecutive
        blocks of at most :data:`EMBED_BLOCK_CHARS` characters, each written
        into its rows of the preallocated matrix, so the transient memory is
        one block's, not the corpus's.  Output is bit-identical to embedding
        row by row with :meth:`embed` (property-tested), whatever the
        blocks: a row depends only on its own text, and its cells are sums
        of ``±1.0``, which float64 represents exactly in any order.
        """
        texts = list(texts)
        matrix = np.zeros((len(texts), self.dim), dtype=np.float64)
        block: list[str] = []
        start = chars = 0
        for text in texts:
            normalized = normalize_text(text)
            if block and chars + len(normalized) + 1 > EMBED_BLOCK_CHARS:
                self._embed_block(block, matrix[start:start + len(block)])
                start += len(block)
                block, chars = [], 0
            block.append(normalized)
            chars += len(normalized) + 1
        if block:
            self._embed_block(block, matrix[start:])
        return matrix

    def _embed_block(self, normalized: list[str], out: np.ndarray) -> None:
        """Embed normalized texts into ``out``, their zeroed matrix rows.

        Words are hashed through the process-level term memo; character
        n-grams are packed into integer codes with a sliding window over
        one shared byte buffer and resolved per *unique* gram, so only new
        vocabulary ever reaches ``blake2b``.  One weighted ``np.bincount``
        scatter-adds the block and its rows are normalized in place.
        """
        n_texts = len(normalized)
        row_parts: list[np.ndarray] = []
        hash_parts: list[np.ndarray] = []
        word_lists = [s.split() for s in normalized]
        flat_words: list[str] = []
        for words in word_lists:
            flat_words.extend(words)
        if flat_words:
            row_parts.append(np.repeat(
                np.arange(n_texts, dtype=np.intp),
                np.fromiter(
                    (len(w) for w in word_lists), dtype=np.intp, count=n_texts
                ),
            ))
            hash_parts.append(_hash_terms(flat_words))
        if self.ngram:
            gram_rows, gram_hashes = self._ngram_hashes(normalized)
            if gram_hashes.size:
                row_parts.append(gram_rows)
                hash_parts.append(gram_hashes)
        if not row_parts:
            return
        rows = np.concatenate(row_parts)
        hashes = np.concatenate(hash_parts)
        indices = (hashes % np.uint64(self.dim)).astype(np.intp)
        signs = np.where((hashes >> np.uint64(32)) & np.uint64(1), 1.0, -1.0)
        # One weighted bincount is the whole scatter-add: cell sums of
        # ±1.0 are exact in float64, so accumulation order cannot matter.
        out[...] = np.bincount(
            rows * self.dim + indices,
            weights=signs,
            minlength=n_texts * self.dim,
        ).reshape(n_texts, self.dim)
        norms = np.linalg.norm(out, axis=1)
        np.divide(out, norms[:, None], out=out, where=norms[:, None] > 0.0)

    def _ngram_hashes(
        self, normalized: list[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row ids and stable hashes of every text's character n-grams.

        Normalized text is pure ASCII (``normalize_text`` maps everything
        else to spaces), so each n-gram of up to 8 characters packs into a
        ``uint64`` code; codes come from one sliding window over a
        ``\\x00``-joined buffer, with window starts chosen so no gram ever
        spans two texts.  Non-ASCII input or ``ngram > 8`` falls back to
        hashing gram strings through the term memo.
        """
        n = self.ngram
        empty_result = (
            np.empty(0, dtype=np.intp), np.empty(0, dtype=np.uint64)
        )
        nonempty = [
            (row, text) for row, text in enumerate(normalized) if text
        ]
        if not nonempty:
            return empty_result
        if n > 8 or not all(text.isascii() for __, text in nonempty):
            flat: list[str] = []
            counts_list: list[int] = []
            for __, text in nonempty:
                grams = ngrams(text, n)
                counts_list.append(len(grams))
                flat.extend(grams)
            rows = np.repeat(
                np.fromiter(
                    (row for row, __ in nonempty),
                    dtype=np.intp, count=len(nonempty),
                ),
                np.array(counts_list, dtype=np.intp),
            )
            return rows, _hash_terms(flat)
        pad = "#" * (n - 1)
        padded = [f"{pad}{text}{pad}" for __, text in nonempty]
        buffer = np.frombuffer(
            "\x00".join(padded).encode("ascii"), dtype=np.uint8
        )
        lengths = np.fromiter(
            (len(p) for p in padded), dtype=np.intp, count=len(padded)
        )
        counts = lengths - n + 1
        offsets = np.zeros(len(padded), dtype=np.intp)
        offsets[1:] = np.cumsum(lengths + 1)[:-1]
        total = int(counts.sum())
        starts = (
            np.arange(total, dtype=np.intp)
            - np.repeat(np.cumsum(counts) - counts, counts)
            + np.repeat(offsets, counts)
        )
        windows = np.lib.stride_tricks.sliding_window_view(buffer, n)[starts]
        rows = np.repeat(
            np.fromiter(
                (row for row, __ in nonempty),
                dtype=np.intp, count=len(nonempty),
            ),
            counts,
        )
        symbols = _BYTE_TO_SYMBOL[windows]
        if n <= 4 and (total == 0 or int(symbols.max()) < len(_ALPHABET)):
            hashes = _hash_gram_symbols(symbols, n)
        else:
            codes = np.zeros(total, dtype=np.uint64)
            for j in range(n):
                codes = (codes << np.uint64(8)) | windows[:, j]
            hashes = _hash_gram_codes(codes, n)
        return rows, hashes

    def similarity(self, a: str, b: str) -> float:
        """Cosine similarity of two texts under this embedder."""
        return float(np.dot(self.embed(a), self.embed(b)))


def average_pairwise_similarity(matrix: np.ndarray) -> float:
    """Mean cosine similarity over all unordered row pairs.

    Used to verify that cluster batching produces more homogeneous batches
    than random batching.  Returns 1.0 for fewer than two rows.
    """
    n = matrix.shape[0]
    if n < 2:
        return 1.0
    gram = matrix @ matrix.T
    total = (gram.sum() - np.trace(gram)) / 2.0
    return float(total / (n * (n - 1) / 2.0))
