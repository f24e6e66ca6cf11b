"""Cost estimation without spending: the dry-run planner.

The paper's Table 3 is ultimately a budgeting exercise — how do batch size
and prompt components trade accuracy against dollars and hours?  This
module answers the *before you run it* version of that question: it builds
every prompt the pipeline would send, counts the prompt tokens exactly,
estimates completion tokens from the answer contract (one or two lines per
instance), and prices the total with the model's rate card and latency
model.  No LLM client is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.batching import make_batches
from repro.core.config import PipelineConfig
from repro.core.feature_selection import select_features
from repro.core.pipeline import Preprocessor
from repro.core.prep import PrepArtifacts
from repro.core.prompts import PromptBuilder
from repro.core.tasks import target_attribute_of
from repro.data.instances import Instance, PreprocessingDataset
from repro.errors import EvaluationError
from repro.llm.profiles import get_profile
from repro.text.tokenize import count_message_tokens

#: estimated completion tokens per answered instance
_ANSWER_TOKENS = 8
#: extra completion tokens when the two-line reasoning contract is active
_REASON_TOKENS = 18


@dataclass(frozen=True)
class CostEstimate:
    """What a run would cost, before running it."""

    model: str
    n_instances: int
    n_requests: int
    prompt_tokens: int
    completion_tokens: int
    cost_usd: float
    hours: float

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    def __str__(self) -> str:
        return (
            f"{self.model}: {self.n_instances} instances in "
            f"{self.n_requests} requests — {self.total_tokens:,} tokens, "
            f"${self.cost_usd:.2f}, {self.hours:.2f} h"
        )


def estimate_cost(
    dataset: PreprocessingDataset,
    config: PipelineConfig | None = None,
) -> CostEstimate:
    """Estimate tokens/cost/time for running ``config`` over ``dataset``.

    Prompt tokens are exact (the same prompts the pipeline would build are
    counted); completion tokens use the per-instance answer contract; the
    estimate assumes no retries, so real runs with a noisy model can only
    cost more.
    """
    config = config or PipelineConfig()
    profile = get_profile(config.model)
    instances: list[Instance] = list(dataset.instances)
    if not instances:
        raise EvaluationError(f"dataset {dataset.name!r} has no instances")
    if config.feature_selection is not None:
        instances = [
            select_features(inst, config.feature_selection)
            for inst in instances
        ]
    n_shots = config.fewshot_for(dataset.task)
    fewshot = dataset.sample_fewshot(n_shots, seed=config.seed)
    if config.feature_selection is not None:
        fewshot = [
            select_features(inst, config.feature_selection) for inst in fewshot
        ]

    per_answer = _ANSWER_TOKENS + (_REASON_TOKENS if config.reasoning else 0)
    prompt_tokens = 0
    completion_tokens = 0
    n_requests = 0

    prep = PrepArtifacts()
    for group_indices in Preprocessor._group_by_target(instances):
        group = [instances[i] for i in group_indices]
        target = target_attribute_of(group[0])
        builder = PromptBuilder(
            dataset.task, config, target_attribute=target, artifacts=prep
        )
        group_fewshot = Preprocessor._fewshot_for_target(
            fewshot, dataset.task, target
        )
        batches = make_batches(
            group,
            batch_size=config.batch_size_for_model(),
            mode=config.batching,
            seed=config.seed,
            artifacts=prep,
        )
        for batch_positions in batches:
            batch = [group[p] for p in batch_positions]
            prompt = builder.build(batch, fewshot_examples=group_fewshot)
            n_requests += 1
            prompt_tokens += count_message_tokens(
                [(m.role, m.content) for m in prompt.messages]
            )
            completion_tokens += per_answer * len(batch)

    seconds = (
        n_requests * profile.latency.base_s
        + prompt_tokens * profile.latency.per_prompt_token_s
        + completion_tokens * profile.latency.per_completion_token_s
    )
    return CostEstimate(
        model=profile.name,
        n_instances=len(instances),
        n_requests=n_requests,
        prompt_tokens=prompt_tokens,
        completion_tokens=completion_tokens,
        cost_usd=profile.cost_usd(prompt_tokens, completion_tokens),
        hours=seconds / 3600.0,
    )


def compare_batch_sizes(
    dataset: PreprocessingDataset,
    config: PipelineConfig | None = None,
    batch_sizes: tuple[int, ...] = (1, 2, 4, 8, 15),
) -> list[CostEstimate]:
    """Table-3-style planning: the cost curve across batch sizes."""
    from dataclasses import replace

    config = config or PipelineConfig()
    return [
        estimate_cost(dataset, replace(config, batch_size=batch_size))
        for batch_size in batch_sizes
    ]
