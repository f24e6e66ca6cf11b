"""Phonetic encoding (Soundex), used by blocking and error detection.

Typos usually keep a word's sound; Soundex keys collide for phonetically
similar spellings, which makes them useful both as a cheap blocking key for
entity matching and as evidence that a token is a misspelling of a known
vocabulary word rather than a novel word.
"""

from __future__ import annotations

_SOUNDEX_CODES = {
    "b": "1", "f": "1", "p": "1", "v": "1",
    "c": "2", "g": "2", "j": "2", "k": "2",
    "q": "2", "s": "2", "x": "2", "z": "2",
    "d": "3", "t": "3",
    "l": "4",
    "m": "5", "n": "5",
    "r": "6",
}


def soundex(word: str) -> str:
    """American Soundex code of ``word`` (e.g. ``robert`` -> ``R163``).

    Non-alphabetic characters are ignored; the empty string encodes to
    ``0000`` so it never collides with a real word.
    """
    letters = [c for c in word.lower() if c.isalpha()]
    if not letters:
        return "0000"
    first = letters[0]
    encoded = [first.upper()]
    previous_code = _SOUNDEX_CODES.get(first, "")
    for ch in letters[1:]:
        code = _SOUNDEX_CODES.get(ch, "")
        if ch in ("h", "w"):
            # h/w are transparent: they do not reset the previous code.
            continue
        if code and code != previous_code:
            encoded.append(code)
            if len(encoded) == 4:
                break
        previous_code = code
    return "".join(encoded).ljust(4, "0")
