"""The long-lived preprocessing service.

One :class:`PreprocessingService` wraps one configured
:class:`~repro.core.pipeline.Preprocessor` for one dataset's task and
serves request traces against it:

    arrivals ──▶ admission (per-tenant RPM/TPM) ──▶ answer cache
                        │ reject (typed)              │ hit
                        ▼                             ▼
                 batch coalescer ──flush──▶ executor ──▶ responses

Every scheduling decision — admission, cache lookups, coalescing,
flushes, batch partitioning — runs on the *arrival clock* (the trace's
virtual times); execution finish times feed only the reported latencies.
That split is the determinism contract: batch composition, predictions,
and every metric counter are bit-identical at executor concurrency 1, 2,
or 8, while latency percentiles honestly reflect lane parallelism.

The service is long-lived: the answer cache, the prep-artifact cache, the
tenant windows, and the executor's virtual clock all persist across
:meth:`~PreprocessingService.serve` calls, so a second trace benefits
from the first one's work (the cross-run cache the benchmark measures).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.core.batching import make_batches
from repro.core.config import PipelineConfig
from repro.core.executor import BatchExecutor, ExecutorConfig
from repro.core.pipeline import Preprocessor, Quarantined, RunStats
from repro.core.prep import PrepArtifacts
from repro.core.prompts import PromptBuilder
from repro.core.tasks import question_line, target_attribute_of
from repro.data.instances import Instance, PreprocessingDataset
from repro.errors import ServingError
from repro.llm.base import LLMClient, Usage
from repro.obs.manifest import canonical_json, jsonable
from repro.obs.metrics import MetricsRegistry
from repro.serving.cache import CachedAnswer, ServingCache
from repro.serving.request import (
    RejectedRequest,
    ServeRequest,
    ServeResponse,
)
from repro.serving.scheduler import (
    BatchCoalescer,
    CoalescePolicy,
    Flush,
    PendingEntry,
)
from repro.serving.tenants import (
    DegradationMonitor,
    TenantAdmission,
    TenantBudget,
)


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the serving layer itself (the pipeline has its own).

    ``max_queue`` bounds the number of *unique* in-flight questions; an
    arrival that would create one more is rejected ``queue_full`` (its
    tenant budget is still charged — the request was made).
    ``cache_entries`` bounds the completed-answer LRU (``None`` =
    unbounded, ``0`` = disabled); ``prep_texts`` optionally bounds the
    serialized-text LRU inside :class:`~repro.core.prep.PrepArtifacts`.
    """

    max_batch: int = 8
    max_wait_s: float = 2.0
    coalesce: str = "window"
    max_queue: int = 1024
    cache_entries: int | None = 4096
    prep_texts: int | None = None

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ServingError(
                f"max_queue must be >= 1, got {self.max_queue}"
            )
        # CoalescePolicy validates max_batch / max_wait_s / coalesce.
        self.policy()

    def policy(self) -> CoalescePolicy:
        return CoalescePolicy(
            max_batch=self.max_batch,
            max_wait_s=self.max_wait_s,
            mode=self.coalesce,
        )


def _percentile(sorted_values: list[float], q: float) -> float:
    """Exact linear-interpolated percentile of an already-sorted list."""
    if not sorted_values:
        return 0.0
    rank = q * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    within = rank - low
    return sorted_values[low] * (1.0 - within) + sorted_values[high] * within


@dataclass
class ServeReport:
    """Everything one :meth:`PreprocessingService.serve` run produced.

    ``responses``/``rejections`` partition the trace exactly (queue
    conservation); ``batches`` records every coalesced prompt batch in
    execution order.  ``metrics`` is the service registry snapshot —
    cumulative over the service's lifetime, deterministic at any
    concurrency; ``usage`` is this run's token delta.
    """

    n_requests: int
    responses: list[ServeResponse]
    rejections: list[RejectedRequest]
    batches: list[dict]
    usage: Usage
    metrics: dict
    config: dict = field(default_factory=dict)
    #: per-backend health + shedding stress, present only in resilience
    #: mode (``None`` keeps historical payload bytes unchanged)
    backend_health: dict | None = None

    @property
    def n_served(self) -> int:
        return len(self.responses)

    @property
    def n_rejected(self) -> int:
        return len(self.rejections)

    def _source_counts(self) -> dict[str, int]:
        counts = {"llm": 0, "shared": 0, "cache": 0}
        for response in self.responses:
            counts[response.source] += 1
        return counts

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of served requests answered from the completed cache."""
        if not self.responses:
            return 0.0
        return self._source_counts()["cache"] / len(self.responses)

    @property
    def coalesce_rate(self) -> float:
        """How much batching compressed the executed questions:
        ``1 - batches/questions`` (0.0 = every question got its own
        prompt, →1.0 = heavy amortization)."""
        n_questions = sum(batch["n_entries"] for batch in self.batches)
        if n_questions == 0:
            return 0.0
        return 1.0 - len(self.batches) / n_questions

    @property
    def makespan_s(self) -> float:
        """Virtual span from the first arrival to the last completion."""
        if not self.responses:
            return 0.0
        start = min(r.arrival_s for r in self.responses)
        return max(r.completed_s for r in self.responses) - start

    @property
    def throughput_rps(self) -> float:
        span = self.makespan_s
        return self.n_served / span if span > 0 else 0.0

    def latency_quantile(self, q: float) -> float:
        return _percentile(
            sorted(r.latency_s for r in self.responses), q
        )

    def summary(self) -> dict:
        """The benchmark-facing scalars (BENCH_serving.json rows)."""
        sources = self._source_counts()
        return {
            "n_requests": self.n_requests,
            "n_served": self.n_served,
            "n_rejected": self.n_rejected,
            "n_batches": len(self.batches),
            "sources": sources,
            "p50_latency_s": self.latency_quantile(0.50),
            "p99_latency_s": self.latency_quantile(0.99),
            "throughput_rps": self.throughput_rps,
            "coalesce_rate": self.coalesce_rate,
            "cache_hit_rate": self.cache_hit_rate,
            "makespan_s": self.makespan_s,
            "prompt_tokens": self.usage.prompt_tokens,
            "completion_tokens": self.usage.completion_tokens,
            "total_tokens": self.usage.total_tokens,
        }

    def payload(self) -> dict:
        """The full run as canonical-JSON-ready data (golden snapshots)."""
        payload = {
            "config": self.config,
            "summary": self.summary(),
            "responses": [
                r._asdict()
                for r in sorted(self.responses, key=lambda r: r.request_id)
            ],
            "rejections": [
                {
                    "request_id": r.request_id,
                    "tenant": r.tenant,
                    "arrival_s": r.arrival_s,
                    "reason": r.reason,
                }
                for r in sorted(self.rejections, key=lambda r: r.request_id)
            ],
            "batches": self.batches,
            "metrics": self.metrics,
        }
        if self.backend_health is not None:
            payload["backend_health"] = self.backend_health
        return payload

    def render(self) -> str:
        summary = self.summary()
        lines = [
            f"served {summary['n_served']}/{summary['n_requests']} "
            f"request(s), {summary['n_rejected']} rejected, "
            f"{summary['n_batches']} coalesced batch(es)",
            f"p50 latency {summary['p50_latency_s']:.3f}s · "
            f"p99 {summary['p99_latency_s']:.3f}s · "
            f"throughput {summary['throughput_rps']:.1f} req/s",
            f"coalesce rate {summary['coalesce_rate']:.3f} · "
            f"cache hit rate {summary['cache_hit_rate']:.3f} · "
            f"{summary['total_tokens']} token(s)",
        ]
        return "\n".join(lines)


class PreprocessingService:
    """Serves preprocessing questions for one dataset task, many tenants.

    Parameters
    ----------
    client:
        The LLM client completion calls go to (usually a
        :class:`~repro.llm.simulated.SimulatedLLM` or a caching wrapper).
    dataset:
        Supplies the task and the few-shot pool; request instances must
        carry the same task but need not come from this dataset.
    budgets:
        One :class:`~repro.serving.tenants.TenantBudget` per tenant the
        service will accept requests from.
    serve_config / pipeline_config / executor_config:
        Serving knobs, prompt/batching knobs, and executor fault
        tolerance, respectively.
    """

    def __init__(
        self,
        client: LLMClient,
        dataset: PreprocessingDataset,
        budgets: list[TenantBudget],
        serve_config: ServeConfig | None = None,
        pipeline_config: PipelineConfig | None = None,
        executor_config: ExecutorConfig | None = None,
    ):
        self._dataset = dataset
        self._client = client
        self._serve_config = serve_config or ServeConfig()
        self._preprocessor = Preprocessor(
            client, pipeline_config, executor_config
        )
        config = self._preprocessor.config
        resilience = self._preprocessor.executor_config.resilience
        self._monitor = (
            DegradationMonitor(
                resilience,
                drain_backlog_s=2.0 * self._serve_config.max_wait_s,
            )
            if resilience is not None
            else None
        )
        self.metrics = MetricsRegistry()
        self._prep = PrepArtifacts(
            metrics=self.metrics, max_texts=self._serve_config.prep_texts
        )
        self._admission = TenantAdmission(budgets)
        self._cache = ServingCache(
            self._serve_config.cache_entries, metrics=self.metrics
        )
        self._coalescer = BatchCoalescer(self._serve_config.policy())
        self._executor = BatchExecutor(
            client, self._preprocessor.executor_config
        )
        self._stats = RunStats()
        fewshot = dataset.sample_fewshot(
            config.fewshot_for(dataset.task), seed=config.seed
        )
        self._fewshot = fewshot
        self._fewshot_by_target: dict[str | None, list[Instance]] = {}
        self._builders: dict[str | None, PromptBuilder] = {}
        #: id -> (pinned instance, question key); pinning keeps ids unique
        self._keys: dict[int, tuple[Instance, str]] = {}
        self._question_tokens: dict[str, int] = {}
        self._pending: dict[str, PendingEntry] = {}
        self._batch_seq = 0
        self._last_arrival = float("-inf")
        # The question key must name the question's *semantics*, so the
        # fingerprint covers only prompt-affecting config — scheduling
        # knobs (concurrency, observability) are excluded, or the same
        # question would key differently across lane counts and break
        # the cross-concurrency determinism of the batch records.
        semantic = {
            name: value
            for name, value in jsonable(config).items()
            if name not in ("concurrency", "observability")
        }
        digest = hashlib.blake2b(digest_size=8)
        digest.update(canonical_json(semantic).encode("utf-8"))
        self._config_fp = digest.hexdigest()

    @property
    def serve_config(self) -> ServeConfig:
        return self._serve_config

    @property
    def pipeline_config(self) -> PipelineConfig:
        return self._preprocessor.config

    # -- request identity -------------------------------------------------

    def _key_of(self, instance: Instance) -> str:
        """Content digest naming this question across tenants and runs."""
        pinned = self._keys.get(id(instance))
        if pinned is not None:
            return pinned[1]
        digest = hashlib.blake2b(digest_size=16)
        digest.update(self._config_fp.encode("ascii"))
        digest.update(instance.task.name.encode("ascii"))
        digest.update(repr(target_attribute_of(instance)).encode("utf-8"))
        digest.update(self._prep.text_of(instance).encode("utf-8"))
        key = digest.hexdigest()
        self._keys[id(instance)] = (instance, key)
        return key

    def _tokens_of(self, key: str, instance: Instance) -> int:
        """Admission-time token estimate: the question text itself."""
        tokens = self._question_tokens.get(key)
        if tokens is None:
            tokens = question_line(
                instance, 1, *self._prep.counted_of(instance)
            )[1]
            self._question_tokens[key] = tokens
        return tokens

    def _builder_for(self, target: str | None) -> PromptBuilder:
        builder = self._builders.get(target)
        if builder is None:
            builder = PromptBuilder(
                self._dataset.task,
                self._preprocessor.config,
                target_attribute=target,
                artifacts=self._prep,
            )
            self._builders[target] = builder
        return builder

    def _fewshot_for(self, target: str | None) -> list[Instance]:
        examples = self._fewshot_by_target.get(target)
        if examples is None:
            examples = Preprocessor._fewshot_for_target(
                self._fewshot, self._dataset.task, target
            )
            self._fewshot_by_target[target] = examples
        return examples

    # -- the serve loop ---------------------------------------------------

    def serve(self, trace: list[ServeRequest]) -> ServeReport:
        """Replay ``trace`` (sorted by arrival) through the service.

        Raises :class:`~repro.errors.ServingError` on a non-monotonic
        trace, a request for a different task, or an unknown tenant.
        Returns a report whose responses + rejections partition the trace
        exactly.
        """
        responses: list[ServeResponse] = []
        rejections: list[RejectedRequest] = []
        batches: list[dict] = []
        usage_before = self._stats.usage
        if trace:
            # Bound once per call (a trace that asks nothing creates no
            # counter); still incremented once per arrival below.
            n_requests = self.metrics.counter("serving.requests")

        for request in trace:
            if request.arrival_s < self._last_arrival:
                raise ServingError(
                    f"trace is not sorted: request {request.request_id} "
                    f"arrives at {request.arrival_s:.3f} after "
                    f"{self._last_arrival:.3f}"
                )
            self._last_arrival = request.arrival_s
            if request.instance.task is not self._dataset.task:
                raise ServingError(
                    f"request {request.request_id} carries a "
                    f"{request.instance.task.name} instance; this service "
                    f"serves {self._dataset.task.name}"
                )
            n_requests.inc()
            for flush in self._coalescer.due(request.arrival_s):
                self._execute_flush(flush, responses, batches)
            self._admit(request, responses, rejections, batches)

        for flush in self._coalescer.drain():
            self._execute_flush(flush, responses, batches)

        if len(responses) + len(rejections) != len(trace):
            raise ServingError(  # pragma: no cover - internal invariant
                f"queue conservation violated: {len(trace)} arrived, "
                f"{len(responses)} served + {len(rejections)} rejected"
            )
        usage_after = self._stats.usage
        return ServeReport(
            n_requests=len(trace),
            responses=responses,
            rejections=rejections,
            batches=batches,
            usage=Usage(
                prompt_tokens=(
                    usage_after.prompt_tokens - usage_before.prompt_tokens
                ),
                completion_tokens=(
                    usage_after.completion_tokens
                    - usage_before.completion_tokens
                ),
            ),
            metrics=self.metrics.snapshot(),
            config={
                "serve": jsonable(self._serve_config),
                "pipeline": jsonable(self._preprocessor.config),
                "tenants": [
                    jsonable(self._admission.budget_of(name))
                    for name in self._admission.tenants
                ],
            },
            backend_health=self._backend_health(),
        )

    def _admit(
        self,
        request: ServeRequest,
        responses: list[ServeResponse],
        rejections: list[RejectedRequest],
        batches: list[dict],
    ) -> None:
        """Admission → cache → coalescer for one arrival."""
        if self._monitor is not None and self._monitor.should_shed(
            self._coalescer.backlog_age_s(request.arrival_s)
        ):
            # Shed at the front door, before the tenant window is
            # charged: the backend is too sick to take on new work.
            self._reject(
                request, "backend_degraded", rejections,
                detail=f"stress {self._monitor.stress:.3f}",
            )
            return
        key = self._key_of(request.instance)
        tokens = self._tokens_of(key, request.instance)
        reason = self._admission.admit(
            request.tenant, tokens, request.arrival_s
        )
        if reason is not None:
            self._reject(request, reason, rejections)
            return
        cached = self._cache.get(key)
        if cached is not None:
            responses.append(ServeResponse(
                request_id=request.request_id,
                tenant=request.tenant,
                arrival_s=request.arrival_s,
                prediction=cached.prediction,
                source="cache",
                flushed_s=request.arrival_s,
                completed_s=max(request.arrival_s, cached.completed_s),
                batch_seq=None,
                quarantine_reason=cached.quarantine_reason,
            ))
            return
        entry = self._pending.get(key)
        if entry is not None:
            # The same question is already queued: ride along.
            entry.waiters.append(request)
            self.metrics.counter("serving.coalesce.joined").inc()
            return
        if self._coalescer.n_pending >= self._serve_config.max_queue:
            # The budget window already charged this request — admission
            # happens at the front door, before queue capacity is known.
            self._reject(
                request, "queue_full", rejections,
                detail=f"{self._coalescer.n_pending} question(s) in flight",
            )
            return
        self.metrics.counter("serving.cache.misses").inc()
        entry = PendingEntry(
            key=key,
            instance=request.instance,
            target=target_attribute_of(request.instance),
            arrival_s=request.arrival_s,
            deadline_s=request.arrival_s + self._serve_config.max_wait_s,
            waiters=[request],
        )
        self._pending[key] = entry
        flush = self._coalescer.add(entry)
        if flush is not None:
            self._execute_flush(flush, responses, batches)

    def _reject(
        self,
        request: ServeRequest,
        reason: str,
        rejections: list[RejectedRequest],
        detail: str = "",
    ) -> None:
        self.metrics.counter(f"serving.rejected.{reason}").inc()
        rejections.append(RejectedRequest(
            request_id=request.request_id,
            tenant=request.tenant,
            arrival_s=request.arrival_s,
            reason=reason,
            detail=detail,
        ))

    # -- execution --------------------------------------------------------

    def _partition(self, flush: Flush) -> list[list[int]]:
        """Split a flushed group into prompt-batch index lists.

        Eager mode chunks in arrival order (a "full" flush is exactly one
        chunk); window mode partitions the gathered window through
        :func:`~repro.core.batching.make_batches`, i.e. the paper's
        random/cluster batching applied to the live group.
        """
        n = len(flush.entries)
        max_batch = self._serve_config.max_batch
        if n <= max_batch:
            return [list(range(n))]
        if self._serve_config.coalesce == "eager":
            return [
                list(range(start, min(start + max_batch, n)))
                for start in range(0, n, max_batch)
            ]
        config = self._preprocessor.config
        return make_batches(
            [entry.instance for entry in flush.entries],
            batch_size=max_batch,
            mode=config.batching,
            seed=config.seed,
            artifacts=self._prep,
        )

    def _execute_flush(
        self,
        flush: Flush,
        responses: list[ServeResponse],
        batches: list[dict],
    ) -> None:
        self.metrics.counter(f"serving.flush.{flush.reason}").inc()
        builder = self._builder_for(flush.target)
        fewshot = self._fewshot_for(flush.target)
        for positions in self._partition(flush):
            entries = [flush.entries[p] for p in positions]
            # Reset the finish high-water mark so this batch's completion
            # time can be read back after the call.
            self._stats.last_finish_s = flush.at
            answers = self._preprocessor.answer_batch(
                builder,
                [entry.instance for entry in entries],
                fewshot,
                self._dataset.task,
                self._stats,
                self._executor,
                ready_at=flush.at,
            )
            finished = self._stats.last_finish_s
            seq = self._batch_seq
            self._batch_seq += 1
            self.metrics.counter("serving.batches").inc()
            self.metrics.histogram(
                "serving.batch_size", buckets=(1, 2, 4, 8, 16, 32)
            ).observe(len(entries))
            batches.append({
                "seq": seq,
                "at": flush.at,
                "reason": flush.reason,
                "target": flush.target,
                "n_entries": len(entries),
                "n_requests": sum(len(e.waiters) for e in entries),
                "keys": [entry.key for entry in entries],
            })
            for entry, answer in zip(entries, answers):
                if isinstance(answer, Quarantined):
                    prediction: bool | str | None = None
                    quarantine_reason: str | None = answer.reason
                    self.metrics.counter("serving.quarantined").inc()
                else:
                    prediction = answer
                    quarantine_reason = None
                self._cache.put(entry.key, CachedAnswer(
                    prediction=prediction,
                    completed_s=finished,
                    quarantine_reason=quarantine_reason,
                ))
                del self._pending[entry.key]
                for position, waiter in enumerate(entry.waiters):
                    responses.append(ServeResponse(
                        request_id=waiter.request_id,
                        tenant=waiter.tenant,
                        arrival_s=waiter.arrival_s,
                        prediction=prediction,
                        source="llm" if position == 0 else "shared",
                        flushed_s=flush.at,
                        completed_s=max(waiter.arrival_s, finished),
                        batch_seq=seq,
                        quarantine_reason=quarantine_reason,
                    ))
        if self._monitor is not None:
            self._monitor.observe_report(self._executor.report())
            router_shed = getattr(self._client, "should_shed", None)
            if callable(router_shed):
                self._monitor.observe_router(router_shed(flush.at))

    def _backend_health(self) -> dict | None:
        """Per-backend health + shedding stress (resilience mode only)."""
        if self._monitor is None:
            return None
        health = getattr(self._client, "health_payload", None)
        payload = dict(health()) if callable(health) else {}
        payload["shedding"] = {
            "stress": round(self._monitor.stress, 6),
            "n_shed_windows": self._monitor.n_shed_windows,
        }
        return payload
