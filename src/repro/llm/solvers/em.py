"""Entity-matching solver.

Scores a record pair by weighted per-attribute similarity:

- **uniform weights** zero-shot; **discriminative weights** when few-shot
  examples are present — the solver measures, per attribute, how much its
  similarity separates the example classes and reweights accordingly.
  This is the mechanism behind the paper's feature-selection result too:
  dropping a noisy column (manually) and down-weighting it (from examples)
  have the same effect.
- the **careful path** (reasoning) additionally checks discriminating
  code-like tokens (model numbers, version numbers): disjoint codes cap
  the score, shared codes boost it.  As in the paper, this cuts both ways
  for EM — views of the same product sometimes disagree on those tokens.
"""

from __future__ import annotations

import random
import re

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
from repro.text.normalize import expand_abbreviations, extract_phone, normalize_text
from repro.text.similarity import token_set_ratio

_NUMBER_RE = re.compile(r"^-?[\d.,$%:]+$")
_CODE_RE = re.compile(r"\b(?=\w*\d)(?=\w*[a-z])\w{3,}\b|\b\d+(?:\.\d+)?\b")


_MODEL_CODE_RE = re.compile(r"^[a-z0-9\-]{2,12}$")
_DURATION_RE = re.compile(r"^\d{1,2}:\d{2}$")


def _is_identifier(value: str) -> bool:
    """Single-token alphanumeric codes (model numbers, SKUs)."""
    return bool(
        _MODEL_CODE_RE.match(value)
        and any(ch.isdigit() for ch in value)
        and any(ch.isalpha() for ch in value)
    )


def _attribute_similarity(a: str, b: str, careful: bool) -> float:
    """Similarity of two cell values, type-aware."""
    a, b = a.strip(), b.strip()
    if not a or not b:
        return 0.0
    phone_a, phone_b = extract_phone(a), extract_phone(b)
    if phone_a and phone_b:
        return 1.0 if phone_a == phone_b else 0.0
    la, lb = a.lower(), b.lower()
    if _is_identifier(la) and _is_identifier(lb):
        # Model numbers either match or they don't; string closeness of
        # two different SKUs means nothing.
        return 1.0 if la == lb else 0.05
    if _DURATION_RE.match(la) and _DURATION_RE.match(lb):
        # Track lengths are identifiers for recordings.
        return 1.0 if la == lb else 0.2
    if _NUMBER_RE.match(a) and _NUMBER_RE.match(b):
        try:
            fa = float(re.sub(r"[^\d.]", "", a) or "0")
            fb = float(re.sub(r"[^\d.]", "", b) or "0")
        except ValueError:
            return 1.0 if a == b else 0.0
        # Years are asymmetric evidence: thousands of entities share a
        # publication year (agreement is weak), but different years mean
        # different publications (disagreement is decisive).
        if 1900 <= fa <= 2100 and 1900 <= fb <= 2100 and fa.is_integer():
            if fa == fb:
                return 0.55
            return 0.3 if abs(fa - fb) <= 1 else 0.0
        if fa == fb:
            return 1.0
        denom = max(abs(fa), abs(fb), 1e-9)
        return max(0.0, 1.0 - abs(fa - fb) / denom)
    if careful:
        a = expand_abbreviations(normalize_text(a))
        b = expand_abbreviations(normalize_text(b))
    return token_set_ratio(a, b)


def pair_score(left: dict[str, str | None], right: dict[str, str | None],
               weights: dict[str, float] | None, careful: bool) -> float:
    """Weighted mean attribute similarity over attributes present on both
    sides; 0 when nothing is comparable."""
    total = 0.0
    weight_sum = 0.0
    for name in left:
        lv, rv = left.get(name), right.get(name)
        if lv is None or rv is None:
            continue
        weight = (weights or {}).get(name, 1.0)
        if weight <= 0.0:
            continue
        total += weight * _attribute_similarity(str(lv), str(rv), careful)
        weight_sum += weight
    if weight_sum == 0.0:
        return 0.0
    return total / weight_sum


_RAW_CODE_RE = re.compile(r"[a-z0-9.\-]*\d[a-z0-9.\-]*")


def _weakest_field_similarity(
    left: dict[str, str | None], right: dict[str, str | None], careful: bool
) -> float | None:
    """The lowest per-attribute similarity among comparable attributes."""
    sims = [
        _attribute_similarity(str(left[name]), str(right[name]), careful)
        for name in left
        if left.get(name) is not None and right.get(name) is not None
    ]
    return min(sims) if sims else None


def _identity_code_tokens(record: dict[str, str | None]) -> set[str]:
    """Model-number/version-like tokens in the record's *identity field*.

    The identity field is the first non-missing attribute (title, name,
    song_name, ...), where version and model numbers live.  Prices, years,
    and durations in other columns are deliberately excluded — two variants
    of one product share a price; two different products share a year.

    Tokens are canonicalized to bare alphanumerics so "5.0", "5-0", and
    "50" compare equal (as a reader would treat them), while "5.0" and
    "9.0" stay distinct.
    """
    for value in record.values():
        if value is None:
            continue
        tokens: set[str] = set()
        for match in _RAW_CODE_RE.findall(str(value).lower()):
            canonical = re.sub(r"[^a-z0-9]", "", match)
            if canonical and any(ch.isdigit() for ch in canonical):
                tokens.add(canonical)
        return tokens
    return set()


class EMSolver:
    """Answers "are these the same entity?" questions."""

    def __init__(self, profile: ModelProfile, knowledge: KnowledgeBase,
                 rng: random.Random, temperature: float, memo=None):
        self._profile = profile
        self._knowledge = knowledge
        self._rng = rng
        self._temperature = temperature
        self._memo = memo if memo is not None else PromptParseMemo()

    def solve(self, prompt: ParsedPrompt) -> list[SolvedAnswer]:
        weights, fit = self._memo.fit(
            ("em", prompt.reasoning, examples_key(prompt.examples)),
            lambda: self._fit(prompt.examples, prompt.reasoning),
        )
        interference = BatchInterference(
            self._profile, self._rng,
            questions=[q.raw for q in prompt.questions],
        )
        answers = []
        for question in prompt.questions:
            answers.append(
                self._solve_one(question, prompt.reasoning, weights, fit,
                                interference)
            )
        return answers

    def _fit(self, examples: list[ParsedExample],
             careful: bool) -> tuple[dict[str, float] | None, ThresholdFit]:
        weights = self._fit_weights(examples, careful)
        return weights, self._fit_threshold(examples, weights, careful)

    def _fit_weights(self, examples: list[ParsedExample],
                     careful: bool) -> dict[str, float] | None:
        """Discriminative attribute weights from the examples.

        weight(a) ∝ |mean sim among matches − mean sim among non-matches|,
        floored at a small value so no attribute is fully ignored.
        """
        if not examples:
            return None
        per_attribute: dict[str, tuple[list[float], list[float]]] = {}
        for example in examples:
            left, right = example.question.left, example.question.right
            if left is None or right is None:
                continue
            positive = example.answer.strip().lower().startswith("yes")
            for name in left:
                lv, rv = left.get(name), right.get(name)
                if lv is None or rv is None:
                    continue
                pos, neg = per_attribute.setdefault(name, ([], []))
                sim = _attribute_similarity(str(lv), str(rv), careful)
                (pos if positive else neg).append(sim)
        weights: dict[str, float] = {}
        for name, (pos, neg) in per_attribute.items():
            if pos and neg:
                gap = abs(sum(pos) / len(pos) - sum(neg) / len(neg))
                # An attribute that frequently *agrees on non-matches*
                # (venue, genre, category) is weak evidence no matter how
                # big its mean gap — two different papers share a venue
                # all the time.
                agreement = sum(1 for s in neg if s > 0.8) / len(neg)
                weights[name] = max(gap * (1.0 - agreement), 0.05)
            else:
                weights[name] = 0.3
        return weights or None

    def _fit_threshold(self, examples: list[ParsedExample],
                       weights: dict[str, float] | None,
                       careful: bool) -> ThresholdFit:
        default = default_threshold(
            well_calibrated=0.7, badly_calibrated=0.58,
            calibration=self._profile.zero_shot_calibration,
        )
        if careful and not examples:
            # Reasoning with no conditioning reads "the same entity"
            # over-literally and demands near-identity (the paper's Beer
            # drop from 78.3 to 50.0 when ZS-R is added without few-shot).
            # Better-calibrated models over-tighten less.
            strictness = 1.0 - self._profile.zero_shot_calibration
            default = max(default, 0.62 + 0.47 * strictness)
        scores: list[float] = []
        labels: list[bool] = []
        for example in examples:
            if example.question.left is None or example.question.right is None:
                continue
            # Fit on raw weighted scores; the code-token rule is applied at
            # decision time *relative to* this threshold, so pre-applying
            # it here would be circular.
            scores.append(
                pair_score(example.question.left, example.question.right,
                           weights, careful)
            )
            labels.append(example.answer.strip().lower().startswith("yes"))
        if not scores:
            return ThresholdFit(threshold=default, fitted=False)
        return ThresholdFit.from_examples(scores, labels, default)

    def _solve_one(self, question: ParsedQuestion, careful: bool,
                   weights: dict[str, float] | None, fit: ThresholdFit,
                   interference: BatchInterference) -> SolvedAnswer:
        left = question.left or {}
        right = question.right or {}
        if self._rng.random() >= self._profile.comprehension:
            # The model lost the thread of the pair: an uninformed guess,
            # mildly biased toward "no" (the safer-sounding answer).
            decision = self._rng.random() < 0.4
            decision = interference.adjust(decision, margin=0.0)
            return SolvedAnswer(
                reason="Considering the records as a whole." if careful else "",
                answer="yes" if decision else "no",
            )
        score = pair_score(left, right, weights, careful)
        reason_bits = []
        attentive = careful and (
            self._rng.random() < self._profile.reasoning_strength
        )
        if attentive:
            # Sparse comparisons deserve caution: when most fields are
            # missing on one side, surface similarity of the few that
            # remain is weak evidence (DBLP-Scholar truncation).
            comparable = sum(
                1 for name in left
                if left.get(name) is not None and right.get(name) is not None
            )
            if comparable * 2 <= len(left):
                score *= 0.8
                reason_bits.append(
                    "Few fields are comparable, so the evidence is weak."
                )
        if careful and not fit.fitted:
            # Over-literal zero-shot reasoning: a single disagreeing field
            # "proves" the records differ (no examples have taught the
            # model that catalogs disagree on minor fields all the time).
            # Better-calibrated models fall into this less often.
            strictness = 1.0 - self._profile.zero_shot_calibration
            weakest = _weakest_field_similarity(left, right, careful)
            if (
                weakest is not None
                and weakest < 0.7
                and self._rng.random() < strictness * 1.45
            ):
                score = min(score, 0.3)
                reason_bits.append("At least one field clearly disagrees.")
        codes_l = _identity_code_tokens(left)
        codes_r = _identity_code_tokens(right)
        if codes_l and codes_r:
            shared = codes_l & codes_r
            if shared:
                score = min(1.0, score + (0.12 if attentive else 0.08))
                reason_bits.append(
                    f"Both records mention {sorted(shared)[0]!r}."
                )
            else:
                # Disjoint identity codes argue decisively against a match:
                # push the score below the operating threshold (the careful
                # path pushes harder).  Noise can still flip truly
                # borderline cases — as it should.
                push = 0.15 if attentive else 0.07
                score = min(score, fit.threshold - push)
                reason_bits.append(
                    "The records mention different model/version codes."
                )
        score = noisy(score, self._rng, self._profile, self._temperature)
        decision = score >= fit.threshold
        decision = interference.adjust(decision, margin=score - fit.threshold)
        if careful:
            reason_bits.append(
                "The fields align overall." if decision
                else "Key fields disagree."
            )
        return SolvedAnswer(
            reason=" ".join(reason_bits),
            answer="yes" if decision else "no",
        )
