"""Token counting and word tokenization.

Stands in for the OpenAI tokenizer in the billing/latency accounting
(paper Table 3).  The estimator is deterministic and calibrated to the
familiar "one token per ~4 characters of English / one word ≈ 1.3 tokens"
rule, which is accurate enough to reproduce the *relative* token savings of
batch prompting — the quantity Table 3 is about.
"""

from __future__ import annotations

import re
from functools import lru_cache

_WORD_RE = re.compile(r"[A-Za-z0-9]+(?:'[A-Za-z]+)?|[^\sA-Za-z0-9]")
_SUBWORD_CHARS = 6  # long words are split into ~6-character pieces by BPE

#: distinct parts whose counts :func:`count_part` keeps: serialized fields
#: (``name: "value"``) and the fixed pieces of question lines.  Adult's
#: error-detection questions hold ~2.7k distinct fields.
PART_CACHE_SIZE = 4096

#: ChatML framing: each message costs 4 tokens (``<|im_start|>{role}\n``
#: ... ``<|im_end|>\n``) and the reply is primed with ``<|assistant|>``
MESSAGE_FRAMING_TOKENS = 4
REPLY_PRIMING_TOKENS = 3


def word_tokens(text: str) -> list[str]:
    """Split text into word-level tokens; punctuation marks are tokens too."""
    return _WORD_RE.findall(text)


def count_tokens(text: str) -> int:
    """Estimate the number of BPE tokens in ``text``.

    Each short word costs one token; words longer than ``_SUBWORD_CHARS``
    characters cost one token per started 6-character piece (mimicking BPE
    splitting rare words into subwords); punctuation costs one token each.
    Whitespace is free (absorbed into word tokens, as in real BPE).
    """
    tokens = _WORD_RE.findall(text)
    total = len(tokens)
    for token in tokens:
        if len(token) > _SUBWORD_CHARS:
            # ceil(len / _SUBWORD_CHARS) pieces, one already counted
            total += (len(token) - 1) // _SUBWORD_CHARS
    return total


@lru_cache(maxsize=PART_CACHE_SIZE)
def count_part(part: str) -> int:
    """:func:`count_tokens` of one part of a longer text, memoized.

    A text's count is the sum of its parts' counts when every split has,
    on at least one side, a character that is not an ASCII letter, digit
    or apostrophe.  Such a character is whitespace or a token on its own,
    and no token reaches across it: a word token is letters and digits
    with at most one ``'`` suffix.  A serialized record splits that way
    at its ``[``, ``, `` and ``]``, and a question line around its record.
    """
    return count_tokens(part)


def count_lines(text: str) -> tuple[int, ...]:
    """:func:`count_tokens` of each line of ``text`` (``str.splitlines``).

    No token contains whitespace and every line boundary is whitespace,
    so the counts sum to ``count_tokens(text)``: one pass over a block
    yields both its total and each line's share.
    """
    return tuple(count_tokens(line) for line in text.splitlines())


def count_message_tokens(messages: list[tuple[str, str]]) -> int:
    """Token count of a chat transcript.

    ``messages`` is a list of ``(role, content)`` pairs.  Chat APIs charge a
    small per-message framing overhead (role markers, separators); we use 4
    tokens per message plus 3 for the reply priming, matching the commonly
    documented ChatML accounting.
    """
    total = REPLY_PRIMING_TOKENS
    for role, content in messages:
        total += MESSAGE_FRAMING_TOKENS
        total += count_tokens(role)
        total += count_tokens(content)
    return total
