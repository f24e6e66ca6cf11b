"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at an integration boundary while
still discriminating on the specific failure when they need to.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A schema is malformed or an attribute reference cannot be resolved."""


class RecordError(ReproError):
    """A record does not conform to its schema."""


class DatasetError(ReproError):
    """A dataset cannot be generated, loaded, or validated."""


class UnknownDatasetError(DatasetError):
    """A dataset name is not present in the registry."""

    def __init__(self, name: str, available: list[str]):
        self.name = name
        self.available = available
        super().__init__(
            f"unknown dataset {name!r}; available: {', '.join(sorted(available))}"
        )


class PromptError(ReproError):
    """A prompt could not be assembled from the given configuration."""


class AnswerFormatError(ReproError):
    """An LLM answer does not follow the instructed answer format."""

    def __init__(self, message: str, raw_text: str = ""):
        self.raw_text = raw_text
        super().__init__(message)


class LLMError(ReproError):
    """Base class for failures raised by an LLM client."""


class ContextWindowExceededError(LLMError):
    """The prompt does not fit in the model's context window."""

    def __init__(self, model: str, prompt_tokens: int, context_window: int):
        self.model = model
        self.prompt_tokens = prompt_tokens
        self.context_window = context_window
        super().__init__(
            f"prompt of {prompt_tokens} tokens exceeds the {context_window}-token "
            f"context window of {model}"
        )


class RateLimitError(LLMError):
    """The (simulated) API rejected a request due to rate limiting."""

    def __init__(self, retry_after: float):
        self.retry_after = retry_after
        super().__init__(f"rate limit exceeded; retry after {retry_after:.2f}s")


class TransientLLMError(LLMError):
    """A retryable upstream failure (5xx, dropped connection, glitch).

    ``latency_s`` is the modeled wall-clock burned before the failure
    surfaced, charged to the lane that made the attempt.
    """

    def __init__(self, message: str = "transient upstream failure",
                 latency_s: float = 0.0):
        self.latency_s = latency_s
        super().__init__(message)


class ExecutionGiveUpError(LLMError):
    """The executor exhausted its retry budget for one completion call.

    Callers degrade gracefully: the pipeline splits the batch into smaller
    ones before falling back to safe answers.
    """

    def __init__(self, attempts: int, reason: str, at: float = 0.0):
        self.attempts = attempts
        self.reason = reason
        #: virtual time of the abandonment; recovery work starts after it
        self.at = at
        super().__init__(
            f"completion call abandoned after {attempts} attempt(s): {reason}"
        )


class UnknownModelError(LLMError):
    """A model name has no registered profile."""

    def __init__(self, name: str, available: list[str]):
        self.name = name
        self.available = available
        super().__init__(
            f"unknown model {name!r}; available: {', '.join(sorted(available))}"
        )


class InjectedCrashError(ReproError):
    """A chaos-injected process kill (never raised outside failure drills).

    Deliberately *not* an :class:`LLMError` subclass the executor retries:
    a crash tears the whole process down, so the exception must propagate
    through every layer untouched, leaving only the journal behind.
    ``site`` names the injection point (``mid_batch``, ``pre_journal``,
    ``mid_journal``).
    """

    def __init__(self, site: str, detail: str = ""):
        self.site = site
        self.detail = detail
        message = f"injected crash at {site}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class ShardError(ReproError):
    """A sharded run was planned, executed, or merged inconsistently
    (overlapping shard deltas, a payload from a foreign plan, an
    unmergeable metrics snapshot)."""


class ConfigError(ReproError):
    """A pipeline configuration is inconsistent."""


class EvaluationError(ReproError):
    """An experiment harness failure (mismatched predictions, bad metric input)."""


class ServingError(ReproError):
    """The serving layer was configured or driven inconsistently
    (non-monotonic trace, unknown tenant, malformed policy)."""
