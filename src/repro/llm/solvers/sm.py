"""Schema-matching solver.

Two evidence sources, mirroring how an LLM actually judges attribute pairs:

- **concept resolution** (careful path): both attribute names resolve to
  known clinical concepts via the knowledge base; match iff same concept.
  Gated by ``concept_coverage`` — the specialist-domain knowledge that
  separates GPT-4 from GPT-3.5 on Synthea.
- **lexical comparison** (fallback and shallow path): token overlap of the
  names plus description similarity.  By construction of the benchmark
  this is weak — hard negatives overlap heavily, positives may not overlap
  at all — which is why zero-shot SM scores so poorly in Table 2.
"""

from __future__ import annotations

import random

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
from repro.text.similarity import jaccard, token_set_ratio


def _name_tokens(name: str) -> list[str]:
    return [t for t in name.replace("_", " ").replace("-", " ").split() if t]


#: opposed qualifier pairs: schemas full of shared vocabulary still differ
#: decisively on these (visit_START_date vs visit_END_date)
_ANTONYMS: tuple[tuple[str, str], ...] = (
    ("start", "end"), ("start", "stop"), ("begin", "end"),
    ("admission", "discharge"), ("admitted", "discharged"),
    ("systolic", "diastolic"), ("birth", "death"), ("min", "max"),
    ("first", "last"), ("open", "close"),
)


def _antonym_clash(text_a: str, text_b: str) -> bool:
    """Does one side carry a qualifier whose opposite marks the other?"""
    tokens_a = set(_name_tokens(text_a.lower()))
    tokens_b = set(_name_tokens(text_b.lower()))
    for left, right in _ANTONYMS:
        a_l, a_r = left in tokens_a, right in tokens_a
        b_l, b_r = left in tokens_b, right in tokens_b
        one_way = a_l and b_r and not (a_r or b_l)
        other_way = a_r and b_l and not (a_l or b_r)
        if one_way or other_way:
            return True
    return False


class SMSolver:
    """Answers "are these the same attribute?" questions."""

    def __init__(self, profile: ModelProfile, knowledge: KnowledgeBase,
                 rng: random.Random, temperature: float, memo=None):
        self._profile = profile
        self._knowledge = knowledge
        self._rng = rng
        self._temperature = temperature
        self._memo = memo if memo is not None else PromptParseMemo()

    def lexical_score(self, left: dict[str, str | None],
                      right: dict[str, str | None]) -> float:
        """Surface similarity of two (name, description) attributes."""
        name_l = str(left.get("name") or "")
        name_r = str(right.get("name") or "")
        desc_l = str(left.get("description") or "")
        desc_r = str(right.get("description") or "")
        name_sim = jaccard(_name_tokens(name_l), _name_tokens(name_r))
        desc_sim = token_set_ratio(desc_l, desc_r)
        score = 0.45 * name_sim + 0.55 * desc_sim
        if _antonym_clash(f"{name_l} {desc_l}", f"{name_r} {desc_r}"):
            score *= 0.4  # opposed qualifiers trump shared vocabulary
        return score

    def solve(self, prompt: ParsedPrompt) -> list[SolvedAnswer]:
        fit = self._memo.fit(
            ("sm", examples_key(prompt.examples)),
            lambda: self._fit_threshold(prompt.examples),
        )
        interference = BatchInterference(
            self._profile, self._rng,
            questions=[q.raw for q in prompt.questions],
        )
        answers = []
        for question in prompt.questions:
            answers.append(
                self._solve_one(question, prompt.reasoning, fit, interference)
            )
        return answers

    def _fit_threshold(self, examples: list[ParsedExample]) -> ThresholdFit:
        default = default_threshold(
            well_calibrated=0.55, badly_calibrated=0.3,
            calibration=self._profile.zero_shot_calibration,
        )
        scores: list[float] = []
        labels: list[bool] = []
        for example in examples:
            if example.question.left is None or example.question.right is None:
                continue
            scores.append(
                self.lexical_score(example.question.left, example.question.right)
            )
            labels.append(example.answer.strip().lower().startswith("yes"))
        if not scores:
            return ThresholdFit(threshold=default, fitted=False)
        return ThresholdFit.from_examples(scores, labels, default)

    def _solve_one(self, question: ParsedQuestion, careful: bool,
                   fit: ThresholdFit, interference: BatchInterference) -> SolvedAnswer:
        left = question.left or {}
        right = question.right or {}
        name_l = str(left.get("name") or "")
        name_r = str(right.get("name") or "")

        reason = ""
        decision: bool | None = None
        margin = 0.0
        if careful and not fit.fitted:
            # Reasoning with no examples to calibrate against: the model
            # reasons its way to the *literal* reading of "the same
            # attribute" and only accepts near-identical pairs.  This is
            # the paper's ZS-T+B+ZS-R collapse on Synthea (5.9 F1).
            score = self.lexical_score(left, right)
            score = noisy(score, self._rng, self._profile, self._temperature)
            decision = score >= 0.78
            margin = score - 0.78
            reason = (
                "Strictly speaking, the attributes "
                + ("are the same." if decision else "are not identical.")
            )
        elif fit.fitted and self._rng.random() < (
            self._profile.reasoning_strength if careful else 0.72
        ):
            # With examples anchoring what "the same attribute" means, the
            # model can trust its domain-concept recall directly.
            concept_l = self._knowledge.concept_of(name_l)
            concept_r = self._knowledge.concept_of(name_r)
            if concept_l is not None and concept_r is not None:
                decision = concept_l == concept_r
                margin = 0.4 if decision else -0.4
                reason = (
                    f'"{name_l}" and "{name_r}" denote '
                    + ("the same clinical concept."
                       if decision else "different clinical concepts.")
                )
        if decision is None:
            score = self.lexical_score(left, right)
            score = noisy(score, self._rng, self._profile, self._temperature)
            decision = score >= fit.threshold
            margin = score - fit.threshold
            reason = (
                "The names and descriptions "
                + ("overlap strongly." if decision else "do not align.")
            )
        decision = interference.adjust(decision, margin)
        if not careful:
            reason = ""
        return SolvedAnswer(reason=reason, answer="yes" if decision else "no")
