"""End-to-end preprocessing pipeline (Figure 1 realized).

The :class:`Preprocessor` takes a dataset and an LLM client and produces a
prediction per instance:

1. feature selection (optional),
2. few-shot example selection from the dataset's hand-labeled pool,
3. batching (random or cluster),
4. prompt assembly per batch,
5. the completion call,
6. answer parsing with format-violation retries.

ED and DI prompts name the target attribute in the zero-shot instruction,
so instances are grouped by target attribute and batched within groups.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.batching import make_batches
from repro.core.config import PipelineConfig
from repro.core.contextualize import instances_digest
from repro.core.executor import BatchExecutor, ExecutionReport, ExecutorConfig
from repro.core.feature_selection import select_features
from repro.core.parsing import parse_batch_answers, parse_batch_answers_lenient
from repro.core.prep import PrepArtifacts, PrepStats
from repro.core.prompts import PromptBuilder
from repro.core.tasks import target_attribute_of
from repro.data.instances import Instance, PreprocessingDataset, Task
from repro.errors import (
    AnswerFormatError,
    ContextWindowExceededError,
    EvaluationError,
    ExecutionGiveUpError,
)
from repro.llm.base import CompletionRequest, LLMClient, Usage
from repro.llm.profiles import get_profile
from repro.obs import RunObservation
from repro.obs.manifest import canonical_json, jsonable
from repro.obs.tracing import Span

if TYPE_CHECKING:  # pragma: no cover - avoid importing runtime eagerly
    from repro.runtime.checkpoint import RunCheckpoint

#: the paper's temperature settings (Section 4.1)
DEFAULT_TEMPERATURE = {
    "gpt-3.5": 0.75,
    "gpt-4": 0.65,
    "gpt-3": 0.75,
    "vicuna-13b": 0.2,
}


def default_temperature_for(model: str) -> float:
    """The paper's sampling temperature for ``model``, validated loudly.

    The model name is resolved against the registered profiles
    (:mod:`repro.llm.profiles`), so a typo or an unregistered model raises
    :class:`~repro.errors.UnknownModelError` instead of silently running
    the whole experiment at a generic temperature.
    """
    profile = get_profile(model)
    return DEFAULT_TEMPERATURE.get(profile.name, profile.default_temperature)


@dataclass(frozen=True)
class Exchange:
    """One completed completion call, as recorded for conformance replay.

    Carries the exact prompt messages (role/content pairs), the raw model
    reply, and how many answers the parser was asked to extract — enough
    for the differential replay to re-run the parsing stack against the
    recorded reply without touching the pipeline.
    """

    messages: tuple[tuple[str, str], ...]
    reply: str
    n_expected: int

    def payload(self) -> dict:
        """The exchange as plain data (journal records, shard payloads)."""
        return {
            "messages": [[role, content] for role, content in self.messages],
            "reply": self.reply,
            "n_expected": self.n_expected,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Exchange":
        """Inverse of :meth:`payload`."""
        return cls(
            messages=tuple(
                (role, content) for role, content in payload["messages"]
            ),
            reply=payload["reply"],
            n_expected=payload["n_expected"],
        )


@dataclass(frozen=True)
class QuarantinedInstance:
    """One instance the run could not answer, with a typed reason.

    ``index`` is the instance's position in the run's prediction list;
    ``reason`` is one of ``"malformed_reply"`` (the model's answer never
    parsed, even per-instance), ``"retry_exhausted"`` (the executor's
    retry budget ran out on a single-instance prompt), or
    ``"context_window"`` (the instance does not fit the model's window
    even zero-shot).  Its prediction slot holds ``None``.
    """

    index: int
    reason: str
    detail: str = ""


class Quarantined:
    """In-flight marker for an instance the degradation ladder gave up on.

    Flows out of ``_run_batch`` in a prediction slot; ``run`` converts it
    to a ``None`` prediction plus a :class:`QuarantinedInstance` entry.
    """

    __slots__ = ("reason", "detail")

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Quarantined({self.reason!r})"


def _unit_key(seq: int, target: str | None, indices: list[int]) -> str:
    """Structural digest naming one planned batch unit in the journal.

    Binds the batch's position in the plan and the instances it covers;
    content identity is bound separately by the journal header's dataset
    digest, so key equality plus fingerprint equality means "same batch
    of the same data".
    """
    payload = {"seq": seq, "target": target, "indices": list(indices)}
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()[:16]


@dataclass
class _BatchUnit:
    """One planned batch: everything needed to run it, plus its key."""

    seq: int
    builder: PromptBuilder
    fewshot: list[Instance]
    batch: list[Instance]
    indices: list[int]
    target: str | None

    @functools.cached_property
    def key(self) -> str:
        """The unit's journal key, made when first read: only journaled
        runs read it."""
        return _unit_key(self.seq, self.target, self.indices)


def _last_listed(units: list[_BatchUnit]) -> list[list[Instance]]:
    """For each planned unit, the instances no later unit lists: once the
    unit completes, the run looks none of their serializations up again."""
    later: set[int] = set()
    last: list[list[Instance]] = []
    for unit in reversed(units):
        last.append([i for i in unit.batch if id(i) not in later])
        later.update(map(id, unit.batch))
    last.reverse()
    return last


@dataclass
class PipelineResult:
    """Everything one run produced.

    ``predictions`` aligns index-for-index with the instances that were
    run.  ``estimated_hours`` is the modeled wall-clock a metered API would
    have taken: the *makespan* of the run's completion calls over the
    configured worker lanes.  At ``concurrency=1`` this reduces to the
    paper's sequential sum (§4.5); ``execution`` carries the full per-lane
    scheduling report.
    """

    predictions: list[bool | str | None]
    usage: Usage
    n_requests: int
    n_format_retries: int
    n_fallbacks: int
    estimated_seconds: float
    #: instances the degradation ladder quarantined (sorted by index);
    #: their prediction slots hold ``None``.  Always empty when
    #: ``config.degradation == "off"``.
    quarantine: list[QuarantinedInstance] = field(default_factory=list)
    raw_replies: list[str] = field(default_factory=list)
    #: prompt/reply/expected-count triples, recorded when ``keep_raw`` is
    #: on; the raw material of golden snapshots and differential replay
    exchanges: list[Exchange] = field(default_factory=list)
    execution: ExecutionReport | None = None
    #: tracer + metrics of the run, present when the config enabled
    #: observability (never affects predictions or accounting)
    observation: RunObservation | None = None
    #: data-prep cache traffic and kernel timings for the run (always
    #: populated; the wall-clock fields never feed back into results)
    prep: PrepStats | None = None

    @property
    def estimated_hours(self) -> float:
        return self.estimated_seconds / 3600.0

    @property
    def total_tokens(self) -> int:
        return self.usage.total_tokens

    @property
    def n_quarantined(self) -> int:
        return len(self.quarantine)

    @property
    def coverage(self) -> float:
        """Fraction of instances the run actually answered (1.0 = all)."""
        if not self.predictions:
            return 1.0
        return (len(self.predictions) - len(self.quarantine)) / len(
            self.predictions
        )


def _end_span(span: Span | None, time_s: float, **attrs: object) -> None:
    """Close an (optional) span at ``time_s``, attaching final attributes.

    Tolerates ``None`` (observability off) and clamps to the span's start
    so degraded paths that resolve "in the past" still produce a valid
    trace.
    """
    if span is None:
        return
    for key, value in attrs.items():
        span.set_attribute(key, value)
    if not span.finished:
        span.end(max(time_s, span.start_s))


#: placeholder for a prediction slot whose batch has not run yet —
#: ``None`` is a real value now (a quarantined instance), so it cannot
#: double as the "unfilled" marker.
_PENDING = object()


@dataclass
class RunStats:
    """Mutable accumulator threaded through one run's batches.

    ``last_finish_s`` is a high-water mark over the virtual finish times
    of the batches answered so far.  The serving layer resets it before
    each coalesced flush and reads it back as the flush's completion
    time; offline runs ignore it (the execution report's makespan already
    covers them).
    """

    keep_raw: bool = False
    usage: Usage = field(
        default_factory=lambda: Usage(prompt_tokens=0, completion_tokens=0)
    )
    n_requests: int = 0
    n_retries: int = 0
    n_fallbacks: int = 0
    last_finish_s: float = 0.0
    raw_replies: list[str] = field(default_factory=list)
    exchanges: list[Exchange] = field(default_factory=list)


#: historical name, kept for callers that grew up with the private one
_RunStats = RunStats


class Preprocessor:
    """Runs one configured pipeline against datasets.

    Completion calls go through a :class:`BatchExecutor` scheduling them
    over ``config.concurrency`` lanes of simulated time; pass
    ``executor_config`` to tune its fault-tolerance knobs (retry budget,
    timeout, circuit breaker, rate limit).  The executor's ``concurrency``
    and ``seed`` always follow the pipeline config.
    """

    def __init__(
        self,
        client: LLMClient,
        config: PipelineConfig | None = None,
        executor_config: ExecutorConfig | None = None,
    ):
        self._client = client
        self._config = config or PipelineConfig()
        base = executor_config or ExecutorConfig()
        self._executor_config = dataclasses.replace(
            base,
            concurrency=self._config.concurrency,
            seed=self._config.seed,
        )

    @property
    def config(self) -> PipelineConfig:
        return self._config

    @property
    def executor_config(self) -> ExecutorConfig:
        return self._executor_config

    def answer_batch(
        self,
        builder: PromptBuilder,
        batch: list[Instance],
        fewshot: list[Instance],
        task: Task,
        stats: RunStats,
        executor: BatchExecutor,
        ready_at: float = 0.0,
        temperature: float | None = None,
        obs: RunObservation | None = None,
        parent: Span | None = None,
    ) -> list[bool | str | Quarantined]:
        """Answer one ad-hoc batch through the full degradation ladder.

        The open-batch entry point :meth:`run` cannot offer: a caller that
        assembles its own batches — the serving layer coalesces requests
        from many tenants into one — hands over a prompt builder, the
        batch, and a long-lived executor/stats pair, and gets back one
        answer per instance (a :class:`Quarantined` marker where the
        ladder gave up).  ``ready_at`` is the virtual time the batch may
        start; the finish time lands on ``stats.last_finish_s``.
        """
        if temperature is None:
            temperature = (
                self._config.temperature
                if self._config.temperature is not None
                else default_temperature_for(self._config.model)
            )
        return self._run_batch(
            builder, batch, fewshot, temperature, task,
            stats, executor, ready_at=ready_at, obs=obs, parent=parent,
        )

    def run(
        self,
        dataset: PreprocessingDataset,
        keep_raw: bool = False,
        checkpoint: "RunCheckpoint | None" = None,
    ) -> PipelineResult:
        """Run the pipeline over every instance of ``dataset``.

        With ``checkpoint`` set, the run journals every completed batch to
        ``checkpoint.path`` (fsync'd, crash-safe) and — when the journal
        already holds records from an interrupted run of the *same*
        configuration and data — resumes: journaled batches are replayed
        from disk, the executor/client/accounting state is restored, and
        only the remaining batches execute.  The resumed result (including
        metrics, spans, and the execution report) is bit-identical to an
        uninterrupted run.  A journal from a different run is refused with
        a structured context diff.
        """
        config = self._config
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
                select_features(inst, config.feature_selection)
                for inst in fewshot
            ]

        temperature = (
            config.temperature
            if config.temperature is not None
            else default_temperature_for(config.model)
        )

        predictions: list[bool | str | None] = [_PENDING] * len(instances)
        quarantine: list[QuarantinedInstance] = []
        stats = _RunStats(keep_raw=keep_raw)
        obs = RunObservation() if config.observability else None
        run_span: Span | None = None
        cache_binder = getattr(self._client, "bind_metrics", None)
        if obs is not None:
            if callable(cache_binder):
                cache_binder(obs.metrics)
            run_span = obs.tracer.start_span(
                "pipeline.run", 0.0,
                dataset=dataset.name, model=config.model,
                concurrency=config.concurrency, n_instances=len(instances),
            )
        # Cache traffic is surfaced per run: the report adds the client's
        # counter deltas (if it has counters) after every executed batch.
        cache_seen = self._cache_traffic()
        executor = BatchExecutor(self._client, self._executor_config, obs=obs)
        # One prep cache per run: serialize/embed/cluster each instance
        # set once, shared by batching and prompt assembly.
        prep = PrepArtifacts(metrics=obs.metrics if obs is not None else None)

        # Plan every batch up front.  Batching is a pure function of the
        # dataset and config (no completion call influences it), so the
        # plan of a resumed run matches the interrupted run batch for
        # batch — which is what makes journal records addressable.
        units = self._plan_units(dataset, instances, fewshot, prep)
        prep.release_vectors()
        # The plan also names every serialization the run will look up,
        # so each unit's last-listed instances leave the prep memo when it
        # completes.  ``instances`` keeps them alive, so their ids stay
        # unique for the run.
        releases = _last_listed(units)

        session = None
        start_index = 0
        if checkpoint is not None:
            from repro.runtime.checkpoint import CheckpointSession

            session = CheckpointSession.open(
                checkpoint,
                self._run_context(dataset, instances, fewshot, keep_raw),
            )

        try:
            if session is not None:
                start_index = self._replay_journal(
                    session, units, predictions, quarantine,
                    stats, executor, obs, run_span, prep,
                )
                for unit in units[:start_index]:
                    prep.release(releases[unit.seq])
            for unit in units[start_index:]:
                watermark = (
                    session.mark(stats, obs) if session is not None else None
                )
                batch_predictions = self._run_batch(
                    unit.builder, unit.batch, unit.fewshot, temperature,
                    dataset.task, stats, executor, ready_at=0.0,
                    obs=obs, parent=run_span,
                )
                prep.release(releases[unit.seq])
                if cache_seen is not None:
                    hits, misses = cache_seen
                    cache_seen = self._cache_traffic()
                    executor.record_cache_traffic(
                        cache_seen[0] - hits, cache_seen[1] - misses
                    )
                unit_quarantine: list[dict] = []
                unit_predictions: list[bool | str | None] = []
                for index, prediction in zip(unit.indices, batch_predictions):
                    if isinstance(prediction, Quarantined):
                        predictions[index] = None
                        unit_predictions.append(None)
                        entry = QuarantinedInstance(
                            index=index,
                            reason=prediction.reason,
                            detail=prediction.detail,
                        )
                        quarantine.append(entry)
                        unit_quarantine.append(dataclasses.asdict(entry))
                        if obs is not None:
                            obs.metrics.counter("pipeline.quarantined").inc()
                    else:
                        predictions[index] = prediction
                        unit_predictions.append(prediction)
                if session is not None:
                    session.append_batch(
                        seq=unit.seq, key=unit.key,
                        predictions=unit_predictions,
                        quarantine=unit_quarantine,
                        watermark=watermark, stats=stats,
                        executor=executor, client=self._client, obs=obs,
                    )
        finally:
            if session is not None:
                session.close()

        assert not any(p is _PENDING for p in predictions)
        quarantine.sort(key=lambda entry: entry.index)
        report = executor.report()
        if obs is not None:
            if report.n_cache_hits or report.n_cache_misses:
                obs.metrics.gauge("cache.hit_rate").set(report.cache_hit_rate)
            run_span.end(report.makespan_s)
            if callable(cache_binder):
                cache_binder(None)  # this run's registry must stop counting
        return PipelineResult(
            predictions=predictions,  # type: ignore[arg-type]
            usage=stats.usage,
            n_requests=stats.n_requests,
            n_format_retries=stats.n_retries,
            n_fallbacks=stats.n_fallbacks,
            estimated_seconds=report.makespan_s,
            quarantine=quarantine,
            raw_replies=stats.raw_replies,
            exchanges=stats.exchanges,
            execution=report,
            observation=obs,
            prep=prep.stats,
        )

    def _cache_traffic(self) -> tuple[int, int] | None:
        """The client's response-cache ``(hits, misses)``, if it counts them."""
        hits = getattr(self._client, "hits", None)
        misses = getattr(self._client, "misses", None)
        if isinstance(hits, int) and isinstance(misses, int):
            return hits, misses
        return None

    def _plan_units(
        self,
        dataset: PreprocessingDataset,
        instances: list[Instance],
        fewshot: list[Instance],
        prep: PrepArtifacts,
    ) -> list[_BatchUnit]:
        """Materialize the full batch plan before any completion call.

        Exactly the grouping/batching the historical per-group loop
        performed, in the same order; hoisting it ahead of execution is
        behavior-neutral because batching never looks at replies, and the
        prep caches are keyed by content (hit/miss totals are insensitive
        to when each group is first touched).
        """
        config = self._config
        units: list[_BatchUnit] = []
        for group_indices in self._group_by_target(instances):
            group = [instances[i] for i in group_indices]
            target = target_attribute_of(group[0])
            builder = PromptBuilder(
                dataset.task, config, target_attribute=target,
                artifacts=prep,
            )
            group_fewshot = self._fewshot_for_target(
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
                units.append(_BatchUnit(
                    seq=len(units),
                    builder=builder,
                    fewshot=group_fewshot,
                    batch=[group[p] for p in batch_positions],
                    indices=[group_indices[p] for p in batch_positions],
                    target=target,
                ))
        return units

    def _run_context(
        self,
        dataset: PreprocessingDataset,
        instances: list[Instance],
        fewshot: list[Instance],
        keep_raw: bool,
    ) -> dict:
        """The full identity of this run, as sealed into a journal header.

        Covers the pipeline and executor configuration, the client class,
        and a content digest over every serialized instance and few-shot
        example (:func:`~repro.core.contextualize.instances_digest`) — so
        a journal can only ever resume the byte-identical run that wrote
        it.  The digest serializes directly (not through the prep cache),
        so fingerprinting leaves the run's cache counters untouched.  The
        client's seed is checked when its journaled state is restored.
        """
        return {
            "pipeline_config": jsonable(self._config),
            "executor_config": jsonable(self._executor_config),
            "client": type(self._client).__name__,
            "keep_raw": keep_raw,
            "dataset": {
                "name": dataset.name,
                "task": dataset.task.name,
                "n_instances": len(instances),
                "n_fewshot": len(fewshot),
                "digest": instances_digest(instances, fewshot),
            },
        }

    def _replay_journal(
        self,
        session: object,
        units: list[_BatchUnit],
        predictions: list,
        quarantine: list[QuarantinedInstance],
        stats: "_RunStats",
        executor: BatchExecutor,
        obs: RunObservation | None,
        run_span: Span | None,
        prep: PrepArtifacts,
    ) -> int:
        """Apply journaled batches and restore run state; returns how many
        planned units were skipped.

        Per-record deltas (predictions, quarantine entries, raw exchanges,
        spans) replay in order; the cumulative state blob of the *last*
        record restores the executor (virtual clock, lanes, RNG, rate
        window), the client, the stats counters, the tracer id stream, and
        the metrics registry.  Prompt assembly re-runs for the skipped
        batches with metrics detached, so the prep caches are as warm as
        the interrupted run left them without counting anything twice.
        """
        from repro.runtime.checkpoint import restore_client_state
        from repro.runtime.journal import JournalError

        records = session.records
        if not records:
            return 0
        if len(records) > len(units):
            raise JournalError(
                f"journal holds {len(records)} batch record(s) but this "
                f"run plans only {len(units)} batch(es)",
                path=session.path,
            )
        replayed_spans: list[Span] = []
        for record, unit in zip(records, units):
            if record.key != unit.key:
                raise JournalError(
                    f"journal batch seq={record.seq} key {record.key!r} "
                    f"does not match the planned batch key {unit.key!r}",
                    path=session.path,
                )
            for index, prediction in zip(unit.indices, record.predictions):
                predictions[index] = prediction
            quarantine.extend(
                QuarantinedInstance(**entry) for entry in record.quarantine
            )
            if stats.keep_raw:
                for exchange in record.raw:
                    stats.raw_replies.append(exchange["reply"])
                    stats.exchanges.append(Exchange.from_payload(exchange))
            if obs is not None:
                replayed_spans.extend(
                    Span.from_dict(payload) for payload in record.spans
                )
        state = records[-1].state
        executor.restore_checkpoint_state(state["executor"])
        restore_client_state(self._client, state.get("client"), session.path)
        counters = state["stats"]
        stats.usage = Usage(
            prompt_tokens=counters["prompt_tokens"],
            completion_tokens=counters["completion_tokens"],
        )
        stats.n_requests = counters["n_requests"]
        stats.n_retries = counters["n_retries"]
        stats.n_fallbacks = counters["n_fallbacks"]
        # Warm the prep caches exactly as the interrupted run did, without
        # double-counting: the journaled metrics totals already include
        # these builds, so they re-run detached and the registry is then
        # restored wholesale.
        prep.bind_metrics(None)
        for unit in units[: len(records)]:
            unit.builder.build(unit.batch, fewshot_examples=unit.fewshot)
        if obs is not None:
            obs_state = state.get("obs")
            if obs_state is not None:
                obs.tracer.restore(
                    [run_span] + replayed_spans, obs_state["next_id"]
                )
                obs.metrics.restore(obs_state["metrics"])
        prep.bind_metrics(obs.metrics if obs is not None else None)
        return len(records)

    def _run_batch(
        self,
        builder: PromptBuilder,
        batch: list[Instance],
        fewshot: list[Instance],
        temperature: float,
        task: Task,
        stats: "_RunStats",
        executor: BatchExecutor,
        ready_at: float = 0.0,
        obs: RunObservation | None = None,
        parent: Span | None = None,
    ) -> list[bool | str]:
        """Answer one batch, splitting it when the prompt cannot fit.

        Context-window overflows halve the batch recursively (what any
        production pipeline does when a model's window is tight); a single
        instance that still cannot fit becomes a fallback answer.  When
        the executor's retry budget for a call is exhausted the batch
        degrades the same way — smaller batches first, safe fallback
        answers last.  ``ready_at`` is the virtual time this batch's work
        may start (format retries depend on the reply they re-ask).

        With observability on, the batch becomes a ``pipeline.batch`` span
        whose children mark the phases — contextualize → prompt →
        complete → parse — on the virtual timeline; splits recurse into
        sibling batch spans under the same parent.
        """
        config = self._config
        fallback: bool | str = "" if task is Task.DATA_IMPUTATION else False
        batch_span: Span | None = None
        if obs is not None:
            batch_span = obs.tracer.start_span(
                "pipeline.batch", ready_at, parent=parent,
                n_instances=len(batch), task=task.name,
            )
            obs.metrics.counter("pipeline.batches").inc()
            obs.metrics.histogram(
                "pipeline.batch_size", buckets=(1, 2, 4, 8, 16, 32)
            ).observe(len(batch))
            # Contextualization and prompt assembly consume no modeled
            # latency: they mark the timeline as zero-duration phases.
            _end_span(
                obs.tracer.start_span(
                    "pipeline.contextualize", ready_at, parent=batch_span,
                    n_instances=len(batch), n_fewshot=len(fewshot),
                ),
                ready_at,
            )
        prompt = builder.build(batch, fewshot_examples=fewshot)
        request = CompletionRequest(
            messages=prompt.messages,
            model=config.model,
            temperature=temperature,
        )
        if obs is not None:
            _end_span(
                obs.tracer.start_span(
                    "pipeline.prompt", ready_at, parent=batch_span,
                    n_messages=len(request.messages),
                    prompt_tokens=request.prompt_tokens,
                ),
                ready_at,
            )
        attempts = 1 + config.max_format_retries
        last_text = ""
        for attempt in range(attempts):
            complete_span: Span | None = None
            if obs is not None:
                complete_span = obs.tracer.start_span(
                    "pipeline.complete", ready_at, parent=batch_span,
                    attempt=attempt,
                )
            try:
                response, ready_at = executor.call(
                    request, ready_at=ready_at, parent=complete_span
                )
            except ContextWindowExceededError:
                _end_span(complete_span, ready_at, outcome="context_window")
                if len(batch) > 1:
                    _end_span(batch_span, ready_at, outcome="split")
                    if obs is not None:
                        obs.metrics.counter("pipeline.batch_splits").inc()
                    half = len(batch) // 2
                    return self._run_batch(
                        builder, batch[:half], fewshot, temperature, task,
                        stats, executor, ready_at, obs, parent,
                    ) + self._run_batch(
                        builder, batch[half:], fewshot, temperature, task,
                        stats, executor, ready_at, obs, parent,
                    )
                if fewshot:
                    # A single instance that does not fit may still fit
                    # without the demonstration block.
                    _end_span(batch_span, ready_at, outcome="retry_zero_shot")
                    return self._run_batch(
                        builder, batch, [], temperature, task,
                        stats, executor, ready_at, obs, parent,
                    )
                if config.degradation == "ladder":
                    # Bottom of the ladder: nothing fits, nothing guessed.
                    _end_span(batch_span, ready_at, outcome="quarantined")
                    return [Quarantined(
                        "context_window",
                        detail="prompt does not fit even zero-shot",
                    )] * len(batch)
                stats.n_fallbacks += len(batch)
                _end_span(batch_span, ready_at, outcome="fallback")
                if obs is not None:
                    obs.metrics.counter("pipeline.fallbacks").inc(len(batch))
                return [fallback] * len(batch)
            except ExecutionGiveUpError as giveup:
                resume_at = max(ready_at, giveup.at)
                stats.last_finish_s = max(stats.last_finish_s, resume_at)
                _end_span(complete_span, resume_at, outcome="giveup")
                if len(batch) > 1:
                    # Degrade gracefully: a smaller prompt is likelier to
                    # get through a struggling upstream.
                    executor.record_fallback_split(2)
                    _end_span(batch_span, resume_at, outcome="split")
                    if obs is not None:
                        obs.metrics.counter("pipeline.batch_splits").inc()
                    half = len(batch) // 2
                    return self._run_batch(
                        builder, batch[:half], fewshot, temperature, task,
                        stats, executor, resume_at, obs, parent,
                    ) + self._run_batch(
                        builder, batch[half:], fewshot, temperature, task,
                        stats, executor, resume_at, obs, parent,
                    )
                if config.degradation == "ladder":
                    _end_span(batch_span, resume_at, outcome="quarantined")
                    return [Quarantined(
                        "retry_exhausted",
                        detail="completion call exhausted its retry budget",
                    )] * len(batch)
                stats.n_fallbacks += len(batch)
                _end_span(batch_span, resume_at, outcome="fallback")
                if obs is not None:
                    obs.metrics.counter("pipeline.fallbacks").inc(len(batch))
                return [fallback] * len(batch)
            _end_span(complete_span, ready_at, outcome="ok")
            stats.last_finish_s = max(stats.last_finish_s, ready_at)
            stats.n_requests += 1
            stats.usage = stats.usage + response.usage
            last_text = response.text
            if stats.keep_raw:
                stats.raw_replies.append(response.text)
                stats.exchanges.append(Exchange(
                    messages=tuple(
                        (m.role, m.content) for m in request.messages
                    ),
                    reply=response.text,
                    n_expected=len(batch),
                ))
            parse_span: Span | None = None
            if obs is not None:
                parse_span = obs.tracer.start_span(
                    "pipeline.parse", ready_at, parent=batch_span,
                    n_expected=len(batch),
                )
            try:
                answers = parse_batch_answers(response.text, task, len(batch))
            except AnswerFormatError:
                _end_span(parse_span, ready_at, outcome="format_error")
                if attempt < attempts - 1:
                    stats.n_retries += 1
                    if obs is not None:
                        obs.metrics.counter("pipeline.format_retries").inc()
            else:
                _end_span(parse_span, ready_at, outcome="ok")
                _end_span(batch_span, ready_at, outcome="ok")
                return answers
        # Retries exhausted: salvage the parseable answers leniently.
        salvaged = parse_batch_answers_lenient(last_text, task, len(batch))
        if config.degradation == "ladder":
            return self._degrade_unparsed(
                salvaged, builder, batch, fewshot, temperature, task,
                stats, executor, ready_at, obs, parent, batch_span,
            )
        # Historical semantics: fill the safe answer where none parsed.
        results: list[bool | str] = []
        n_salvage_fallbacks = 0
        for answer in salvaged:
            if answer is None:
                stats.n_fallbacks += 1
                n_salvage_fallbacks += 1
                results.append(fallback)
            else:
                results.append(answer)
        _end_span(batch_span, ready_at, outcome="salvaged",
                  n_fallbacks=n_salvage_fallbacks)
        if obs is not None and n_salvage_fallbacks:
            obs.metrics.counter("pipeline.fallbacks").inc(n_salvage_fallbacks)
        return results

    def _degrade_unparsed(
        self,
        salvaged: list,
        builder: PromptBuilder,
        batch: list[Instance],
        fewshot: list[Instance],
        temperature: float,
        task: Task,
        stats: "_RunStats",
        executor: BatchExecutor,
        ready_at: float,
        obs: RunObservation | None,
        parent: Span | None,
        batch_span: Span | None,
    ) -> list:
        """The lower rungs of the degradation ladder.

        Strict parsing and the format re-asks already failed and lenient
        salvage answered what it could; what remains is bisected into
        smaller prompts (each re-entering the full strict/re-ask/salvage
        sequence), down to a per-instance prompt.  A single instance whose
        reply still never parses is quarantined with a typed reason — the
        run completes either way.
        """
        unanswered = [
            position for position, answer in enumerate(salvaged)
            if answer is None
        ]
        if not unanswered:
            _end_span(batch_span, ready_at, outcome="salvaged", n_fallbacks=0)
            return list(salvaged)
        if len(batch) == 1:
            _end_span(batch_span, ready_at, outcome="quarantined")
            return [Quarantined(
                "malformed_reply",
                detail="reply never parsed, even per-instance",
            )]
        _end_span(batch_span, ready_at, outcome="bisect",
                  n_unanswered=len(unanswered))
        if obs is not None:
            obs.metrics.counter("pipeline.batch_bisections").inc()
        remainder = [batch[position] for position in unanswered]
        if len(remainder) == 1:
            followup = self._run_batch(
                builder, remainder, fewshot, temperature, task,
                stats, executor, ready_at, obs, parent,
            )
        else:
            half = len(remainder) // 2
            followup = self._run_batch(
                builder, remainder[:half], fewshot, temperature, task,
                stats, executor, ready_at, obs, parent,
            ) + self._run_batch(
                builder, remainder[half:], fewshot, temperature, task,
                stats, executor, ready_at, obs, parent,
            )
        results = list(salvaged)
        for position, answer in zip(unanswered, followup):
            results[position] = answer
        return results

    @staticmethod
    def _group_by_target(instances: list[Instance]) -> list[list[int]]:
        """Indices grouped by target attribute, preserving encounter order."""
        groups: dict[str | None, list[int]] = {}
        for index, instance in enumerate(instances):
            groups.setdefault(target_attribute_of(instance), []).append(index)
        return list(groups.values())

    @staticmethod
    def _fewshot_for_target(
        fewshot: list[Instance], task: Task, target: str | None
    ) -> list[Instance]:
        """Few-shot examples compatible with this prompt group.

        ED/DI prompts name one target attribute; same-target examples are
        ideal, but a useful demonstration set needs both classes (for the
        binary tasks) and a few instances — each example question names its
        own attribute anyway, so mixed-target examples remain coherent.
        """
        if target is None:
            return fewshot
        same_target = [
            ex for ex in fewshot if target_attribute_of(ex) == target
        ]
        if len(same_target) >= 3 and task is not Task.DATA_IMPUTATION:
            labels = {bool(ex.label) for ex in same_target}
            if len(labels) == 2:
                return same_target
        elif len(same_target) >= 3:
            return same_target
        return fewshot
