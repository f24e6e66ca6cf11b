"""Text normalization used throughout the matching and cleaning stacks."""

from __future__ import annotations

import re
import unicodedata

_WHITESPACE_RE = re.compile(r"\s+")
_NON_ALNUM_RE = re.compile(r"[^a-z0-9\s]")

#: ASCII fast path for ``normalize_text``: after lowercasing, keep
#: ``[a-z0-9]`` and whitespace (``str.split`` collapses it), map everything
#: else to a space — exactly what the regex pipeline below produces.
_ASCII_CLEAN_TABLE = str.maketrans({
    code: chr(code)
    if "a" <= chr(code) <= "z" or "0" <= chr(code) <= "9" or chr(code).isspace()
    else " "
    for code in range(128)
})


def strip_accents(text: str) -> str:
    """Remove diacritics: ``café`` -> ``cafe``."""
    if text.isascii():
        # ASCII has no combining characters and is an NFKD fixed point, so
        # the decomposition pass would be an identity — skip it.  This is
        # the common case for record serializations and keeps the batched
        # embedding kernel out of the per-character Python loop below.
        return text
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def normalize_text(text: str, keep_punct: bool = False) -> str:
    """Lowercase, strip accents, collapse whitespace; optionally drop punctuation.

    This is the canonical normalization applied before any string-similarity
    computation so that superficial differences (case, spacing, accents) do
    not masquerade as semantic differences.
    """
    if not keep_punct and text.isascii():
        # One C-speed translate-and-split pass; bit-identical to the regex
        # pipeline for ASCII input (accent stripping is an identity there).
        return " ".join(text.lower().translate(_ASCII_CLEAN_TABLE).split())
    text = strip_accents(text).lower()
    if not keep_punct:
        text = _NON_ALNUM_RE.sub(" ", text)
    return _WHITESPACE_RE.sub(" ", text).strip()


_ABBREVIATIONS = {
    "st": "street",
    "st.": "street",
    "ave": "avenue",
    "ave.": "avenue",
    "blvd": "boulevard",
    "blvd.": "boulevard",
    "rd": "road",
    "rd.": "road",
    "dr": "drive",
    "dr.": "drive",
    "hwy": "highway",
    "ln": "lane",
    "pkwy": "parkway",
    "e": "east",
    "e.": "east",
    "w": "west",
    "w.": "west",
    "n": "north",
    "n.": "north",
    "s": "south",
    "s.": "south",
    "inc": "incorporated",
    "inc.": "incorporated",
    "corp": "corporation",
    "corp.": "corporation",
    "co": "company",
    "co.": "company",
    "intl": "international",
    "dept": "department",
    "univ": "university",
}


def expand_abbreviations(text: str) -> str:
    """Expand common address/company abbreviations token-by-token.

    Used by entity matching to align e.g. ``powers ferry rd.`` with
    ``powers ferry road``.
    """
    out = []
    for token in text.split():
        out.append(_ABBREVIATIONS.get(token.lower(), token))
    return " ".join(out)


_PHONE_RE = re.compile(r"(\d{3})[\s\-./()]*(\d{3})[\s\-./()]*(\d{4})")


def extract_phone(text: str) -> str | None:
    """Canonicalize the first US-style phone number found, or ``None``.

    Returns ``AAA-BBB-CCCC`` so that formatting variants compare equal.
    """
    match = _PHONE_RE.search(text)
    if match is None:
        return None
    return "-".join(match.groups())
