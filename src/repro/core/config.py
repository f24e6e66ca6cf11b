"""Pipeline configuration.

One dataclass drives every ablation in the paper's Table 2: each prompt
component (few-shot examples, batch prompting, zero-shot reasoning) can be
switched independently; Table 1's "best setting" is the default.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.feature_selection import FeatureSelection
from repro.data.instances import Task
from repro.errors import ConfigError

#: the paper's few-shot counts: 3 for SM, 10 elsewhere (Section 4.1)
DEFAULT_FEWSHOT = {
    Task.ERROR_DETECTION: 10,
    Task.DATA_IMPUTATION: 10,
    Task.SCHEMA_MATCHING: 3,
    Task.ENTITY_MATCHING: 10,
}

#: the paper's batch-size ranges per model (Section 4.1); we use the upper
#: end, which Table 3 shows is also the cheapest.
DEFAULT_BATCH_SIZE = {
    "gpt-3.5": 15,
    "gpt-4": 12,
    "gpt-3": 15,
    "vicuna-13b": 2,
}


@dataclass(frozen=True)
class PipelineConfig:
    """Settings for one preprocessing run.

    Parameters
    ----------
    model:
        Model profile name (``gpt-3.5``, ``gpt-4``, ``gpt-3``,
        ``vicuna-13b``).
    fewshot:
        Number of few-shot examples; ``None`` selects the paper's default
        for the task (3 for SM, 10 otherwise); 0 disables few-shot.
    batch_size:
        Instances per prompt; ``None`` selects the model's default; 1
        disables batch prompting.
    batching:
        ``"random"`` or ``"cluster"``.
    reasoning:
        Zero-shot chain-of-thought reasoning (ZS-R): answer in two lines,
        reason first.
    feature_selection:
        Optional attribute subset to keep (Section 3.4).
    type_hint:
        Optional DI data-type hint appended to the zero-shot prompt, e.g.
        'The "hoursperweek" attribute can be a range of integers.'
    temperature:
        Sampling temperature; ``None`` selects the paper's per-model value
        (0.75 / 0.65 / 0.2).
    seed:
        Seed for batching shuffles and few-shot sampling.
    max_format_retries:
        How many times a batch is re-asked when the answer does not parse.
    concurrency:
        Worker lanes for the batch executor; 1 reproduces the paper's
        sequential cost model, N overlaps request latency across N lanes
        (time is modeled as makespan instead of a sum).
    observability:
        Attach a tracer and metrics registry (:mod:`repro.obs`) to the
        run: spans per batch phase and completion call on the simulated
        clock, counters/histograms for requests, retries, cache hits and
        tokens, all surfaced through ``PipelineResult.observation``.
        Off by default; the disabled path does no observability work at
        all, and enabling it never changes predictions.
    degradation:
        What happens when a batch's reply never parses (or a call's retry
        budget runs out).  ``"off"`` (default) keeps the historical
        semantics: salvage leniently and fill the safe fallback answer.
        ``"ladder"`` walks the failure-degradation ladder instead —
        strict parse, format re-asks, lenient salvage, bisection of the
        unanswered remainder, a per-instance prompt, and finally
        *quarantine* with a typed reason — so the run always completes
        with partial results and an honest coverage figure rather than
        silently guessing.
    """

    model: str = "gpt-3.5"
    fewshot: int | None = None
    batch_size: int | None = None
    batching: str = "random"
    reasoning: bool = True
    feature_selection: FeatureSelection | None = None
    type_hint: str | None = None
    temperature: float | None = None
    seed: int = 0
    max_format_retries: int = 1
    concurrency: int = 1
    observability: bool = False
    degradation: str = "off"

    def __post_init__(self) -> None:
        if self.degradation not in ("off", "ladder"):
            raise ConfigError(
                f"unknown degradation mode {self.degradation!r}; "
                f"expected 'off' or 'ladder'"
            )
        if self.fewshot is not None and self.fewshot < 0:
            raise ConfigError(f"fewshot must be >= 0, got {self.fewshot}")
        if self.batch_size is not None and self.batch_size <= 0:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.batching not in ("random", "cluster"):
            raise ConfigError(f"unknown batching mode {self.batching!r}")
        if self.temperature is not None and not 0.0 <= self.temperature <= 2.0:
            raise ConfigError(
                f"temperature must be in [0, 2], got {self.temperature}"
            )
        if self.max_format_retries < 0:
            raise ConfigError("max_format_retries must be >= 0")
        if self.concurrency < 1:
            raise ConfigError(
                f"concurrency must be >= 1, got {self.concurrency}"
            )

    def fewshot_for(self, task: Task) -> int:
        """Effective few-shot count for ``task``."""
        if self.fewshot is not None:
            return self.fewshot
        return DEFAULT_FEWSHOT[task]

    def batch_size_for_model(self) -> int:
        """Effective batch size (1 = no batch prompting)."""
        if self.batch_size is not None:
            return self.batch_size
        return DEFAULT_BATCH_SIZE.get(self.model, 1)


#: Table 2's six ablation rows, in paper order.
ABLATION_ROWS: tuple[tuple[str, dict], ...] = (
    ("ZS-T", {"fewshot": 0, "batch_size": 1, "reasoning": False}),
    ("ZS-T+B", {"fewshot": 0, "batch_size": None, "reasoning": False}),
    ("ZS-T+B+ZS-R", {"fewshot": 0, "batch_size": None, "reasoning": True}),
    ("ZS-T+FS", {"fewshot": None, "batch_size": 1, "reasoning": False}),
    ("ZS-T+FS+B", {"fewshot": None, "batch_size": None, "reasoning": False}),
    ("ZS-T+FS+B+ZS-R", {"fewshot": None, "batch_size": None, "reasoning": True}),
)


def ablation_config(row: str, model: str = "gpt-3.5", seed: int = 0) -> PipelineConfig:
    """The :class:`PipelineConfig` for one Table 2 row label."""
    for label, kwargs in ABLATION_ROWS:
        if label == row:
            return PipelineConfig(model=model, seed=seed, **kwargs)
    labels = ", ".join(label for label, __ in ABLATION_ROWS)
    raise ConfigError(f"unknown ablation row {row!r}; expected one of: {labels}")
