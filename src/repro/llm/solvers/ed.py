"""Error-detection solver.

Evidence-based: the solver scores how erroneous the target cell looks,
using only the record text and coverage-gated knowledge (category domains,
plausible numeric ranges, a spell-check lexicon, cross-field rules).

Path structure mirrors the ablations:

- **shallow path** (no reasoning contract): evaluates the record
  *holistically* — evidence in any attribute leaks into the answer (the
  failure the paper's "confirm the target attribute" instruction fixes) —
  and skips cross-field rules.
- **careful path** (reasoning on): confirms the target attribute, checks
  only it, and runs cross-field consistency rules; each careful step
  executes correctly with probability ``reasoning_strength``.
- **uncalibrated criteria** (no few-shot): the decision threshold comes
  from the profile's ``zero_shot_calibration``; a badly calibrated model
  over-flags unusual-but-clean values.  Few-shot examples re-fit the
  threshold on the spot.
"""

from __future__ import annotations

import hashlib
import random
import re
from functools import lru_cache

from repro.llm.knowledge import KnowledgeBase
from repro.llm.profiles import ModelProfile
from repro.llm.promptparse import (
    ParsedExample,
    ParsedPrompt,
    ParsedQuestion,
    PromptParseMemo,
)
from repro.llm.solvers.common import (
    BatchInterference,
    SolvedAnswer,
    ThresholdFit,
    default_threshold,
    examples_key,
    noisy,
)
from repro.text.similarity import levenshtein

_NUMERIC_RE = re.compile(r"^-?\d+(?:\.\d+)?$")
_PHONE_DIGITS_RE = re.compile(r"\d")


def _is_number(value: str) -> bool:
    return bool(_NUMERIC_RE.match(value.strip()))


class EDSolver:
    """Answers "is there an error in the target cell?" questions."""

    def __init__(self, profile: ModelProfile, knowledge: KnowledgeBase,
                 rng: random.Random, temperature: float, memo=None):
        self._profile = profile
        self._knowledge = knowledge
        self._rng = rng
        self._temperature = temperature
        self._memo = memo if memo is not None else PromptParseMemo()

    # -- evidence ------------------------------------------------------------

    def evidence(self, fields: dict[str, str | None], attribute: str,
                 careful: bool) -> float:
        """Erroneousness score of ``fields[attribute]`` in [0, 1]."""
        value = fields.get(attribute)
        if value is None:
            return 0.0  # a missing value is DI's problem, not an error
        value = str(value).strip()
        score = 0.0
        if careful:
            # Format rules apply whether or not the value parses as a
            # number (a 9-digit phone is all digits and still malformed).
            score = max(score, self._format_evidence(fields, attribute, value))
        if _is_number(value):
            score = max(score, self._numeric_evidence(fields, attribute,
                                                      float(value), careful))
        else:
            score = max(score, self._text_evidence(attribute, value))
        return score

    def _numeric_evidence(self, fields: dict[str, str | None],
                          attribute: str, value: float, careful: bool) -> float:
        known_range = self._knowledge.plausible_range(attribute)
        if known_range is not None:
            low, high = known_range
            if value < low or value > high:
                return 0.95
            evidence = 0.0
            if careful and attribute == "educationnum":
                education = fields.get("education")
                if education is not None:
                    expected = self._knowledge.education_number(str(education))
                    if expected is not None and expected != int(value):
                        evidence = 0.9
            return evidence
        # Unknown attribute: large integers are usually identifiers
        # (phone numbers, provider ids) — only a negative value registers.
        if value < 0:
            return 0.7
        return 0.0

    def _text_evidence(self, attribute: str, value: str) -> float:
        domain = self._knowledge.domain_of(attribute)
        if domain is not None:
            if value in domain:
                return 0.0
            near = _nearest_distance(value, domain)
            # A close near-miss is a typo of a legal value; for short values
            # distance 2 is too weak an identity signal to call it one.
            if near is not None and (
                near == 1 and len(value) >= 4 or near == 2 and len(value) >= 7
            ):
                return 0.95
            if self._in_foreign_domain(attribute, value):
                return 0.9   # a value from some other attribute's domain
            if self._knowledge.is_closed_domain(attribute):
                return 0.85  # closed domain: an unknown value IS the error
            # Open domain (names, free text): could be a legal value the
            # model simply has not seen.  Suspicious, not damning.
            return 0.55
        # No domain knowledge: fall back to spell checking each token.
        tokens = [t.strip(".,()") for t in value.split()]
        tokens = [t for t in tokens if t]
        if not tokens:
            return 0.0
        worst = 0.0
        for token in tokens:
            if "_" in token or _looks_like_code(token):
                continue  # codes like "ga_ami-1" / "pn-3b" are not typos
            if any(ch.isdigit() for ch in token):
                if any(ch.isalpha() for ch in token):
                    worst = max(worst, 0.85)  # letters buried in digits: "94x%"
                continue
            if len(token) < 3 or self._knowledge.knows_word(token):
                continue
            if _x_insertion_match(token, self._knowledge):
                worst = max(worst, 0.92)  # the Hospital-signature corruption
            elif len(token) >= 5 and _strip_one_letter_matches(token, self._knowledge):
                worst = max(worst, 0.9)  # an insertion over a known word
            elif self._knowledge.near_known_word(token):
                worst = max(worst, 0.88)  # one edit from a known word
            else:
                worst = max(worst, 0.45)  # unknown word: suspicious, not damning
        return worst

    def _format_evidence(self, fields: dict[str, str | None],
                         attribute: str, value: str) -> float:
        """Cross-field and format rules (careful path only)."""
        if attribute == "phone":
            digits = _PHONE_DIGITS_RE.findall(value)
            if len(digits) not in (10, 11):
                return 0.85
        if attribute == "zipcode":
            if not value.isdigit() or len(value) != 5:
                return 0.85
        if attribute == "stateavg":
            if "_" not in value:
                return 0.8  # the "{state}_{code}" shape itself is broken
            return self._stateavg_evidence(fields, value)
        return 0.0

    def _stateavg_evidence(self, fields: dict[str, str | None],
                           value: str) -> float:
        """Cross-check ``stateavg`` (= "{state}_{measurecode}").

        On a mismatch, attribute the fault: if the *sibling* field holds an
        illegal value, the error is over there, not in stateavg.
        """
        state_part, __, code_part = value.partition("_")
        states = self._knowledge.domain_of("state") or frozenset()
        codes = self._knowledge.domain_of("measurecode") or frozenset()
        for part, sibling_name, legal in (
            (state_part, "state", states),
            (code_part, "measurecode", codes),
        ):
            sibling = fields.get(sibling_name)
            if sibling is None or part == sibling:
                continue
            part_ok = part in legal if legal else True
            sibling_ok = sibling in legal if legal else True
            if part_ok and not sibling_ok:
                return 0.15  # the sibling field is the broken one
            return 0.9       # stateavg disagrees with a legal sibling
        return 0.0

    def _in_foreign_domain(self, attribute: str, value: str) -> bool:
        for other in ("workclass", "occupation", "education", "maritalstatus",
                      "relationship", "race", "sex", "country", "city",
                      "state", "type", "condition"):
            if other == attribute:
                continue
            domain = self._knowledge.domain_of(other)
            if domain is not None and value in domain:
                return True
        return False

    # -- uncalibrated suspicion ----------------------------------------------

    def _spurious_suspicion(self, value: str) -> float:
        """What a miscalibrated model over-flags: unusual but clean values.

        Without examples the model has no idea what this dataset counts as
        an error, so every stylistic oddity — hyphenated category codes,
        embedded digits, abbreviation dots, '%' suffixes — reads as one.
        This is what drives zero-shot ED to the floor in the paper's
        ablation (25.9 / 18.4 F1).  Deterministic in the value so retries
        are stable; scaled by how far the profile's zero-shot criteria sit
        from the task's.
        """
        unusualness = 0.0
        if "-" in value or "_" in value:
            unusualness += 0.55
        if any(ch.isdigit() for ch in value) and any(ch.isalpha() for ch in value):
            unusualness += 0.4
        if "." in value or "%" in value or "<" in value or ">" in value:
            unusualness += 0.35
        # Even plain values draw idiosyncratic suspicion from an
        # uncalibrated model (deterministic in the value's hash).
        digest = hashlib.blake2b(value.encode("utf-8"), digest_size=2).digest()
        unusualness = max(
            unusualness, 0.85 * int.from_bytes(digest, "little") / 0xFFFF
        )
        if len(value) > 15:
            unusualness += 0.3
        return min(unusualness, 0.95) * (1.0 - self._profile.zero_shot_calibration)

    # -- batch solving ---------------------------------------------------------

    def solve(self, prompt: ParsedPrompt) -> list[SolvedAnswer]:
        target = prompt.target_attribute or ""
        careful = prompt.reasoning
        fit = self._memo.fit(
            ("ed", target, careful, examples_key(prompt.examples)),
            lambda: self._fit_threshold(prompt.examples, target, careful),
        )
        interference = BatchInterference(
            self._profile, self._rng,
            questions=[q.raw for q in prompt.questions],
        )
        answers: list[SolvedAnswer] = []
        for question in prompt.questions:
            answers.append(
                self._solve_one(question, target, careful, fit, interference)
            )
        return answers

    def _fit_threshold(self, examples: list[ParsedExample], target: str,
                       careful: bool) -> ThresholdFit:
        default = default_threshold(
            well_calibrated=0.6, badly_calibrated=0.02,
            calibration=self._profile.zero_shot_calibration,
        )
        scores: list[float] = []
        labels: list[bool] = []
        for example in examples:
            if example.question.fields is None:
                continue
            # Each example question names its own target attribute; score
            # the example against *that*, not the batch's target.
            example_target = example.question.target or target
            scores.append(
                self.evidence(example.question.fields, example_target, careful)
            )
            labels.append(example.answer.strip().lower().startswith("yes"))
        if not scores:
            return ThresholdFit(threshold=default, fitted=False)
        return ThresholdFit.from_examples(scores, labels, default)

    def _solve_one(self, question: ParsedQuestion, target: str, careful: bool,
                   fit: ThresholdFit, interference: BatchInterference) -> SolvedAnswer:
        fields = question.fields or {}
        target = question.target or target
        focused = careful and self._rng.random() < self._profile.reasoning_strength
        score = self.evidence(fields, target, careful=focused or careful)
        if not focused:
            # Holistic reading: the strongest evidence anywhere in the
            # record leaks into the answer (the wrong-attribute failure).
            other_scores = [
                self.evidence(fields, attribute, careful=False)
                for attribute in fields
                if attribute != target
            ]
            if other_scores:
                score = max(score, 0.85 * max(other_scores))
        if not fit.fitted:
            value = str(fields.get(target) or "")
            score = max(score, self._spurious_suspicion(value))
        score = noisy(score, self._rng, self._profile, self._temperature)
        decision = score >= fit.threshold
        decision = interference.adjust(decision, margin=score - fit.threshold)
        value = fields.get(target)
        if careful:
            reason = (
                f'The target attribute is "{target}". Its value "{value}" '
                + ("does not look valid." if decision else "looks valid.")
            )
        else:
            reason = ""
        return SolvedAnswer(reason=reason, answer="yes" if decision else "no")


@lru_cache(maxsize=4096)
def _nearest_distance(value: str, domain: frozenset[str]) -> int | None:
    """Smallest edit distance from ``value`` to any domain member.

    Cached (bounded, least recently used evicted first): a pure function
    of its arguments, and the same near-miss values recur across a run.
    """
    if value in domain:
        # Else the scan below could stop at a distance-1 member before
        # reaching ``value`` itself: the answer would hang on set order.
        return 0
    best: int | None = None
    for member in domain:
        if abs(len(member) - len(value)) > 2:
            continue
        distance = levenshtein(value, member)
        if best is None or distance < best:
            best = distance
            if best == 1:
                break
    return best


def _looks_like_code(token: str) -> bool:
    """Measure codes like 'ami-1' / 'pn-3b' / model numbers are not typos."""
    return len(token) <= 10 and ("-" in token or token[:1].isalpha() and token[-1:].isdigit())


def _x_insertion_match(token: str, knowledge: KnowledgeBase) -> bool:
    """Is ``token`` a known word with an ``x`` inserted (e.g. 'heaxrt')?"""
    if "x" not in token:
        return False
    for i, ch in enumerate(token):
        if ch != "x":
            continue
        candidate = token[:i] + token[i + 1:]
        if len(candidate) >= 2 and knowledge.knows_word(candidate):
            return True
    return False


def _strip_one_letter_matches(token: str, knowledge: KnowledgeBase) -> bool:
    """Is ``token`` one deletion away from a known word (e.g. 'heaxrt')?"""
    for i in range(len(token)):
        candidate = token[:i] + token[i + 1:]
        if len(candidate) >= 4 and knowledge.knows_word(candidate):
            return True
    return False
