"""String similarity measures.

These are the classical measures that traditional data-preprocessing systems
(Magellan-style entity matching, similarity-matrix schema matching) are
built from, implemented from scratch on the stdlib.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from repro.text.normalize import normalize_text


def levenshtein(a: str, b: str) -> int:
    """Edit distance with unit insert/delete/substitute costs.

    Bit-parallel (Myers 1999, in Hyyrö's 2001 formulation for the global
    distance): the shorter string's DP column lives in the bits of two
    integers (``vp``/``vn``: where the column steps up or down by one)
    and each character of the longer string advances the whole column in
    a fixed number of integer operations, so the cost is O(len(a)) big-int
    steps instead of O(len(a) * len(b)) cell updates.  Python integers
    are unbounded, so strings longer than a machine word need no blocks.
    The two-row dynamic program it replaces is kept as the test oracle
    ``levenshtein_reference`` in ``tests/oracles.py``.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    # match masks of the shorter string: bit i set where b[i] == char
    masks: dict[str, int] = {}
    bit = 1
    for char in b:
        masks[char] = masks.get(char, 0) | bit
        bit <<= 1
    full = bit - 1
    last = bit >> 1
    vp, vn = full, 0
    distance = len(b)
    # Per character: d0 marks the column cells whose diagonal step is 0,
    # hp/hn the rows where the step from the previous column is +1/-1;
    # the bottom row's step moves ``distance``.
    for char in a:
        eq = masks.get(char, 0)
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = vn | ~(d0 | vp)
        hn = vp & d0
        if hp & last:
            distance += 1
        elif hn & last:
            distance -= 1
        hp = (hp << 1) | 1
        hn <<= 1
        vp = (hn | ~(d0 | hp)) & full
        vn = hp & d0 & full
    return distance


def levenshtein_similarity(a: str, b: str) -> float:
    """Edit distance scaled into [0, 1]; 1.0 means identical."""
    if not a and not b:
        return 1.0
    denom = max(len(a), len(b))
    return 1.0 - levenshtein(a, b) / denom


def _jaro(a: str, b: str) -> float:
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    window = max(la, lb) // 2 - 1
    window = max(window, 0)
    a_flags = [False] * la
    b_flags = [False] * lb
    matches = 0
    for i, ca in enumerate(a):
        lo = max(0, i - window)
        hi = min(lb, i + window + 1)
        for j in range(lo, hi):
            if not b_flags[j] and b[j] == ca:
                a_flags[i] = b_flags[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    # Count transpositions among matched characters.
    transpositions = 0
    j = 0
    for i in range(la):
        if a_flags[i]:
            while not b_flags[j]:
                j += 1
            if a[i] != b[j]:
                transpositions += 1
            j += 1
    transpositions //= 2
    return (
        matches / la + matches / lb + (matches - transpositions) / matches
    ) / 3.0


@lru_cache(maxsize=16384)
def jaro_winkler(a: str, b: str, prefix_scale: float = 0.1) -> float:
    """Jaro-Winkler similarity: Jaro with a bonus for a shared prefix.

    ``prefix_scale`` is capped at 0.25 so the result stays within [0, 1].
    """
    # Cached (bounded, least recently used evicted first): entity matching
    # compares the same token pairs over and over, and the result is a
    # pure function of the arguments.
    if prefix_scale > 0.25:
        raise ValueError("prefix_scale must be <= 0.25 to keep results in [0,1]")
    jaro = _jaro(a, b)
    prefix = 0
    for ca, cb in zip(a[:4], b[:4]):
        if ca != cb:
            break
        prefix += 1
    return jaro + prefix * prefix_scale * (1.0 - jaro)


def jaccard(a: Iterable[str], b: Iterable[str]) -> float:
    """Jaccard similarity of two token collections."""
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 1.0
    union = sa | sb
    if not union:
        return 1.0
    return len(sa & sb) / len(union)


def monge_elkan(
    a_tokens: Sequence[str],
    b_tokens: Sequence[str],
    inner=jaro_winkler,
) -> float:
    """Monge-Elkan: average best inner-similarity of each left token.

    A hybrid measure that tolerates token reordering and small typos at the
    same time — the workhorse of classical entity matching.
    """
    if not a_tokens:
        return 1.0 if not b_tokens else 0.0
    if not b_tokens:
        return 0.0
    total = 0.0
    for ta in a_tokens:
        total += max(inner(ta, tb) for tb in b_tokens)
    return total / len(a_tokens)


def token_set_ratio(a: str, b: str) -> float:
    """Normalized token-set similarity of two raw strings.

    Normalizes both strings, then combines Jaccard on token sets with
    Monge-Elkan to tolerate typos.  Returns a value in [0, 1].
    """
    ta = normalize_text(a).split()
    tb = normalize_text(b).split()
    if not ta and not tb:
        return 1.0
    return 0.5 * jaccard(ta, tb) + 0.5 * monge_elkan(ta, tb)


def ngrams(text: str, n: int = 3) -> list[str]:
    """Character n-grams of ``text`` with boundary padding."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not text:
        return []
    padded = f"{'#' * (n - 1)}{text}{'#' * (n - 1)}" if n > 1 else text
    if len(padded) < n:
        return [padded]
    return [padded[i : i + n] for i in range(len(padded) - n + 1)]
