"""Model capability profiles.

A :class:`ModelProfile` is the *explicit* competence model that replaces a
real LLM's weights.  Every knob maps to a documented behaviour of the
corresponding commercial model:

- ``knowledge_coverage`` — the fraction of world facts (area codes, brands,
  geography) the model can recall.  Drives data-imputation accuracy.
- ``concept_coverage`` — coverage of specialist concept knowledge (the
  clinical vocabulary behind schema matching), lower than general coverage
  for every model: domain specification is the paper's Limitation (1).
- ``reasoning_strength`` — the probability each step of the careful
  chain-of-thought path executes correctly.  Drives the ZS-R ablation.
- ``zero_shot_calibration`` — how close the model's *uncalibrated* decision
  thresholds sit to the optimum (few-shot examples re-fit them).  Drives
  the FS ablation.
- ``decision_noise`` — stddev of the noise added to decision scores; flips
  near-boundary answers.
- ``interference_rate`` — per-answer probability, in a batch, of being
  pulled toward the batch's previous answers (the consistency effect of
  batch prompting; helps homogeneous batches, hurts mixed ones).
- ``format_fidelity`` — per-task probability an answer follows the
  instructed format.  Vicuna's low values mechanically produce the paper's
  "N/A" cells.
- pricing / latency / context window — the billing model behind Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.instances import Task
from repro.errors import UnknownModelError


@dataclass(frozen=True)
class LatencyModel:
    """Modeled request latency: ``base + k_p * prompt + k_c * completion``.

    Calibrated so a GPT-3.5 single-instance request takes ~1.7 s and a
    15-instance batch ~8.6 s, reproducing Table 3's hours column.
    """

    base_s: float
    per_prompt_token_s: float
    per_completion_token_s: float

    def latency(self, prompt_tokens: int, completion_tokens: int) -> float:
        return (
            self.base_s
            + self.per_prompt_token_s * prompt_tokens
            + self.per_completion_token_s * completion_tokens
        )


@dataclass(frozen=True)
class ModelProfile:
    """All capability and billing knobs of one simulated model."""

    name: str
    context_window: int
    #: USD per 1K prompt tokens / per 1K completion tokens
    price_prompt_per_1k: float
    price_completion_per_1k: float
    latency: LatencyModel
    knowledge_coverage: float
    concept_coverage: float
    reasoning_strength: float
    zero_shot_calibration: float
    decision_noise: float
    interference_rate: float
    #: probability an answer is grounded in the instance at all; the
    #: complement is an uninformed guess (weak models lose the thread of a
    #: record pair even when they keep the answer format)
    comprehension: float = 1.0
    format_fidelity: dict[Task, float] = field(default_factory=dict)
    #: questions longer than this (tokens) decay format fidelity (weak
    #: models lose the thread on long inputs)
    question_token_tolerance: int = 400
    default_temperature: float = 0.7

    def __post_init__(self) -> None:
        for knob in (
            "knowledge_coverage", "concept_coverage", "reasoning_strength",
            "zero_shot_calibration",
        ):
            value = getattr(self, knob)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{knob} must be in [0, 1], got {value}")
        if self.decision_noise < 0 or self.interference_rate < 0:
            raise ValueError("noise knobs cannot be negative")
        if self.context_window <= 0:
            raise ValueError("context_window must be positive")

    def fidelity_for(self, task: Task, question_tokens: int) -> float:
        """Format fidelity for one answer, decayed by question length."""
        base = self.format_fidelity.get(task, 0.99)
        overflow = max(0, question_tokens - self.question_token_tolerance)
        if overflow:
            base *= 0.5 ** (overflow / max(self.question_token_tolerance, 1))
        return base

    def cost_usd(self, prompt_tokens: int, completion_tokens: int) -> float:
        return (
            prompt_tokens * self.price_prompt_per_1k
            + completion_tokens * self.price_completion_per_1k
        ) / 1000.0


_GPT35 = ModelProfile(
    name="gpt-3.5",
    context_window=4096,
    # Mar-2023 gpt-3.5-turbo pricing: flat $0.002/1K tokens — this is what
    # makes Table 3's 4.07M tokens cost exactly $8.14.
    price_prompt_per_1k=0.002,
    price_completion_per_1k=0.002,
    latency=LatencyModel(base_s=1.2, per_prompt_token_s=0.0001,
                         per_completion_token_s=0.012),
    knowledge_coverage=0.93,
    concept_coverage=0.62,
    reasoning_strength=0.82,
    zero_shot_calibration=0.45,
    decision_noise=0.075,
    interference_rate=0.04,
    format_fidelity={
        Task.ERROR_DETECTION: 0.995,
        Task.DATA_IMPUTATION: 0.995,
        Task.SCHEMA_MATCHING: 0.995,
        Task.ENTITY_MATCHING: 0.995,
    },
    question_token_tolerance=900,
    default_temperature=0.75,
)

_GPT4 = ModelProfile(
    name="gpt-4",
    context_window=8192,
    price_prompt_per_1k=0.03,
    price_completion_per_1k=0.06,
    latency=LatencyModel(base_s=2.5, per_prompt_token_s=0.0003,
                         per_completion_token_s=0.035),
    knowledge_coverage=0.985,
    concept_coverage=0.74,
    reasoning_strength=0.96,
    zero_shot_calibration=0.7,
    decision_noise=0.035,
    interference_rate=0.02,
    format_fidelity={
        Task.ERROR_DETECTION: 0.999,
        Task.DATA_IMPUTATION: 0.999,
        Task.SCHEMA_MATCHING: 0.999,
        Task.ENTITY_MATCHING: 0.999,
    },
    question_token_tolerance=1200,
    default_temperature=0.65,
)

# text-davinci-002 with the hand-engineered prompts of Narayan et al. [16]:
# near-perfect zero-shot calibration on ED (their prompts encode the error
# criteria), good elsewhere.
_GPT3 = ModelProfile(
    name="gpt-3",
    context_window=4097,
    price_prompt_per_1k=0.02,
    price_completion_per_1k=0.02,
    latency=LatencyModel(base_s=1.5, per_prompt_token_s=0.0002,
                         per_completion_token_s=0.015),
    knowledge_coverage=0.94,
    concept_coverage=0.5,
    reasoning_strength=0.9,
    zero_shot_calibration=0.95,
    decision_noise=0.055,
    interference_rate=0.04,
    format_fidelity={
        Task.ERROR_DETECTION: 0.995,
        Task.DATA_IMPUTATION: 0.995,
        Task.SCHEMA_MATCHING: 0.99,
        Task.ENTITY_MATCHING: 0.995,
    },
    question_token_tolerance=900,
    default_temperature=0.75,
)

_VICUNA = ModelProfile(
    name="vicuna-13b",
    context_window=2048,
    price_prompt_per_1k=0.0,   # self-hosted
    price_completion_per_1k=0.0,
    latency=LatencyModel(base_s=0.8, per_prompt_token_s=0.0008,
                         per_completion_token_s=0.05),
    knowledge_coverage=0.5,
    concept_coverage=0.2,
    reasoning_strength=0.3,
    zero_shot_calibration=0.25,
    decision_noise=0.22,
    interference_rate=0.12,
    comprehension=0.45,
    # A 13B chat model rarely holds the multi-question answer contract for
    # record-level cleaning tasks; it manages yes/no entity-matching
    # questions (with frequent lapses — the paper's ~50 F1).
    format_fidelity={
        Task.ERROR_DETECTION: 0.10,
        Task.DATA_IMPUTATION: 0.15,
        Task.SCHEMA_MATCHING: 0.10,
        Task.ENTITY_MATCHING: 0.80,
    },
    question_token_tolerance=170,
    default_temperature=0.2,
)

_PROFILES: dict[str, ModelProfile] = {
    p.name: p for p in (_GPT35, _GPT4, _GPT3, _VICUNA)
}


def get_profile(name: str) -> ModelProfile:
    """Look up a model profile by name."""
    if name not in _PROFILES:
        raise UnknownModelError(name, list(_PROFILES))
    return _PROFILES[name]
