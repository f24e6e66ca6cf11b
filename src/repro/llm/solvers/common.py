"""Shared solver utilities: threshold fitting, noise, batch interference."""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.llm.profiles import ModelProfile


@dataclass(frozen=True)
class SolvedAnswer:
    """One answered question: the reason line and the bare answer line."""

    reason: str
    answer: str


def examples_key(examples) -> tuple:
    """A hashable identity for a few-shot block.

    Built from the raw question text and answer of each example — exactly
    the content a fit reads — so two prompts carrying the same block hash
    to the same key regardless of which parse produced the objects.
    """
    return tuple((e.question.raw, e.answer) for e in examples)


@dataclass(frozen=True)
class ThresholdFit:
    """A decision threshold, either fitted from examples or a default.

    Few-shot conditioning is literally this: the solver scores each example
    with the same evidence function it will apply to the questions, and
    places the threshold at the margin midpoint between the classes.
    """

    threshold: float
    fitted: bool

    @classmethod
    def from_examples(
        cls,
        scores: list[float],
        labels: list[bool],
        default: float,
    ) -> "ThresholdFit":
        positives = [s for s, y in zip(scores, labels) if y]
        negatives = [s for s, y in zip(scores, labels) if not y]
        if not positives or not negatives:
            return cls(threshold=default, fitted=False)
        # Sweep the midpoints between adjacent example scores; keep the cut
        # that classifies the most examples correctly, and among ties the
        # one sitting in the *widest* gap (maximum margin) so later noise
        # flips as few decisions as possible.
        ordered = sorted(set(scores))
        candidates = [
            (ordered[i] + ordered[i + 1]) / 2.0
            for i in range(len(ordered) - 1)
        ] or [(min(positives) + max(negatives)) / 2.0]
        best_threshold = candidates[0]
        best_key = (-1, -1.0)
        for cut in candidates:
            correct = sum(
                1 for s, y in zip(scores, labels) if (s >= cut) == y
            )
            margin = min(abs(s - cut) for s in scores)
            if (correct, margin) > best_key:
                best_key = (correct, margin)
                best_threshold = cut
        # Shrink toward the class-mean midpoint: with ~10 examples the
        # max-margin cut is high variance (one odd example can relocate it
        # wholesale), and the blend behaves like the soft decision boundary
        # a probabilistic reader would use.
        class_mid = (
            sum(positives) / len(positives) + sum(negatives) / len(negatives)
        ) / 2.0
        return cls(threshold=0.5 * best_threshold + 0.5 * class_mid, fitted=True)


def default_threshold(
    well_calibrated: float, badly_calibrated: float, calibration: float
) -> float:
    """Interpolate a zero-shot threshold by the profile's calibration.

    ``calibration=1`` means the model's prior matches the task's optimal
    operating point; ``0`` means the miscalibrated extreme.
    """
    return badly_calibrated + (well_calibrated - badly_calibrated) * calibration


def noisy(score: float, rng: random.Random, profile: ModelProfile,
          temperature: float) -> float:
    """Add decision noise, scaled by sampling temperature.

    At the model's default temperature the noise equals the profile's
    ``decision_noise``; hotter sampling is noisier, temperature 0 is not
    noise-free (the competence limit remains) but much tighter.
    """
    scale = 0.4 + 0.6 * (temperature / max(profile.default_temperature, 1e-6))
    return score + rng.gauss(0.0, profile.decision_noise * scale)


class BatchInterference:
    """Cross-question interference in batch prompting.

    When several questions share one prompt, models occasionally bleed
    context between them: an uncertain answer (margin below
    ``margin_window``) gets pulled toward the previous answer.  The
    bleed probability scales with how *dissimilar* adjacent questions are —
    mixing up two near-identical instances is harmless, mixing up two
    unrelated ones flips answers.  This is the mechanism behind the
    paper's cluster-batching gain: homogeneous batches suffer less
    interference.
    """

    def __init__(self, profile: ModelProfile, rng: random.Random,
                 questions: list[str] | None = None,
                 margin_window: float = 0.12):
        self._profile = profile
        self._rng = rng
        self._margin_window = margin_window
        self._history: list[bool] = []
        self._questions = questions or []

    def dissimilarity(self, index: int) -> float:
        """Jaccard distance between the token sets of question ``index``
        and the question before it.

        0.0 for the first question, 1.0 past the last one.  Computed on
        demand: :meth:`adjust` reads it only for a near-boundary answer.
        """
        if index == 0:
            return 0.0
        if index >= len(self._questions):
            return 1.0
        tokens = set(self._questions[index].lower().split())
        previous = set(self._questions[index - 1].lower().split())
        # |A ∪ B| = |A| + |B| - |A ∩ B|
        shared = len(tokens & previous)
        union = len(tokens) + len(previous) - shared
        return 1.0 - shared / union if union else 0.0

    def adjust(self, decision: bool, margin: float) -> bool:
        """Possibly override a near-boundary decision with the previous one."""
        adjusted = decision
        if self._history and abs(margin) < self._margin_window:
            dissimilarity = self.dissimilarity(len(self._history))
            rate = self._profile.interference_rate * (0.3 + 1.7 * dissimilarity)
            if self._rng.random() < rate:
                adjusted = self._history[-1]
        self._history.append(adjusted)
        return adjusted
