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
from typing import NamedTuple

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
    ServeLog,
    ServeRequest,
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


#: the request ids a :class:`ServeLog` column holds
_MIN_ID, _MAX_ID = -(2**63), 2**63 - 1


class _Question(NamedTuple):
    """What the front door knows about one instance object's question.

    ``key`` is the content digest naming the question across tenants and
    runs (equal instances share it, and so share the cache entry and the
    pending entry); ``tokens`` is the admission-time token estimate, the
    question line itself.  Holding ``instance`` pins the object, so its
    id names it for the service's lifetime.
    """

    key: str
    tokens: int
    instance: Instance


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
    conservation); ``responses`` is the run's :class:`ServeLog`, whose
    columns the summary and payload read without building a response.
    ``batches`` records every coalesced prompt batch in execution order.
    ``metrics`` is the service registry snapshot — cumulative over the
    service's lifetime, deterministic at any concurrency; ``usage`` is
    this run's token delta.
    """

    n_requests: int
    responses: ServeLog
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

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of served requests answered from the completed cache."""
        if not self.responses:
            return 0.0
        return self.responses.source_counts()["cache"] / len(self.responses)

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
        log = self.responses
        return max(log.completions) - min(log.arrivals)

    @property
    def throughput_rps(self) -> float:
        return self._throughput(self.makespan_s)

    def _throughput(self, makespan_s: float) -> float:
        return self.n_served / makespan_s if makespan_s > 0 else 0.0

    def latency_quantile(self, q: float) -> float:
        """The exact ``q``-quantile of served latencies; ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ServingError(
                f"latency quantile q must be in [0, 1], got {q!r}"
            )
        return _percentile(self.responses.sorted_latencies(), q)

    def summary(self) -> dict:
        """The benchmark-facing scalars (BENCH_serving.json rows): one
        sort of the latencies, one pass each for the span's ends."""
        latencies = self.responses.sorted_latencies()
        makespan_s = self.makespan_s
        return {
            "n_requests": self.n_requests,
            "n_served": self.n_served,
            "n_rejected": self.n_rejected,
            "n_batches": len(self.batches),
            "sources": self.responses.source_counts(),
            "p50_latency_s": _percentile(latencies, 0.50),
            "p99_latency_s": _percentile(latencies, 0.99),
            "throughput_rps": self._throughput(makespan_s),
            "coalesce_rate": self.coalesce_rate,
            "cache_hit_rate": self.cache_hit_rate,
            "makespan_s": makespan_s,
            "prompt_tokens": self.usage.prompt_tokens,
            "completion_tokens": self.usage.completion_tokens,
            "total_tokens": self.usage.total_tokens,
        }

    def payload(self) -> dict:
        """The full run as canonical-JSON-ready data (golden snapshots)."""
        payload = {
            "config": self.config,
            "summary": self.summary(),
            "responses": self.responses.dicts_by_request_id(),
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
        #: id(instance) -> its question, made on the object's first arrival
        self._questions: dict[int, _Question] = {}
        #: content key -> token estimate of the first object with that key
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

    def _question_of(self, instance: Instance) -> _Question:
        """Make the question of an instance object's first arrival."""
        digest = hashlib.blake2b(digest_size=16)
        digest.update(self._config_fp.encode("ascii"))
        digest.update(instance.task.name.encode("ascii"))
        digest.update(repr(target_attribute_of(instance)).encode("utf-8"))
        digest.update(self._prep.text_of(instance).encode("utf-8"))
        key = digest.hexdigest()
        tokens = self._question_tokens.get(key)
        if tokens is None:
            tokens = question_line(
                instance, 1, *self._prep.counted_of(instance)
            )[1]
            self._question_tokens[key] = tokens
        question = self._questions[id(instance)] = _Question(
            key, tokens, instance
        )
        return question

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
        trace, a request for a different task, or an unknown tenant,
        before admitting any of it: a refused trace leaves the service as
        it found it.  Returns a report whose responses + rejections
        partition the trace exactly.
        """
        last_arrival = self._check_trace(trace)
        log = ServeLog(self._admission.tenants)
        rejections: list[RejectedRequest] = []
        batches: list[dict] = []
        usage_before = self._stats.usage
        if trace:
            # A trace that asks nothing creates no counter.
            self.metrics.counter("serving.requests").inc(len(trace))
            self._last_arrival = last_arrival

        # Per arrival: one lookup for everything known about its
        # question.  ``TenantAdmission.admit`` and ``ServingCache.get``
        # stay one call each: bench/layers.py times admission and the
        # cache by wrapping them.  A hit appends one row of numbers to
        # the log; its view is made once per cached answer it reuses.
        questions = self._questions
        coalescer = self._coalescer
        monitor = self._monitor
        due = coalescer.due
        admit = self._admission.admit
        cache_get = self._cache.get
        tenant_id = log.tenant_id
        log_id = log.request_ids.append
        log_tenant = log.tenant_ids.append
        log_arrival = log.arrivals.append
        log_completion = log.completions.append
        log_view = log.view_ids.append
        #: question key -> (the cached answer, its view in this log)
        hit_views: dict[str, tuple[CachedAnswer, int]] = {}
        for request in trace:
            arrival = request.arrival_s
            for flush in due(arrival):
                self._execute_flush(flush, log, batches)
            if monitor is not None and monitor.should_shed(
                coalescer.backlog_age_s(arrival)
            ):
                # Shed at the front door, before the tenant window is
                # charged: the backend is too sick to take on new work.
                self._reject(
                    request, "backend_degraded", rejections,
                    detail=f"stress {monitor.stress:.3f}",
                )
                continue
            try:
                question = questions[id(request.instance)]
            except KeyError:
                question = self._question_of(request.instance)
            key, tokens, __ = question
            reason = admit(request.tenant, tokens, arrival)
            if reason is not None:
                self._reject(request, reason, rejections)
                continue
            cached = cache_get(key)
            if cached is None:
                self._enqueue(request, key, log, rejections, batches)
                continue
            hit = hit_views.get(key)
            if hit is None or hit[0] is not cached:
                # First reuse of this answer in this run, or the question
                # was answered again after an eviction.
                hit = hit_views[key] = (cached, log.cache_view(
                    cached.prediction, cached.quarantine_reason
                ))
            log_id(request.request_id)
            log_tenant(tenant_id[request.tenant])
            log_arrival(arrival)
            log_completion(max(arrival, cached.completed_s))
            log_view(hit[1])

        for flush in coalescer.drain():
            self._execute_flush(flush, log, batches)

        if len(log) + len(rejections) != len(trace):
            raise ServingError(  # pragma: no cover - internal invariant
                f"queue conservation violated: {len(trace)} arrived, "
                f"{len(log)} served + {len(rejections)} rejected"
            )
        usage_after = self._stats.usage
        return ServeReport(
            n_requests=len(trace),
            responses=log,
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

    def _check_trace(self, trace: list[ServeRequest]) -> float:
        """Refuse an invalid trace whole; return its last arrival.

        Runs before anything is admitted, so a refused trace charges no
        budget, queues nothing and moves no clock.
        """
        last = self._last_arrival
        task = self._dataset.task
        tenants = set(self._admission.tenants)
        for request in trace:
            # ``not >=`` so that a NaN arrival, which compares false
            # either way, is refused where it arrives.
            if not request.arrival_s >= last:
                raise ServingError(
                    f"trace is not sorted: request {request.request_id} "
                    f"arrives at {request.arrival_s:.3f} after {last:.3f}"
                )
            last = request.arrival_s
            if request.instance.task is not task:
                raise ServingError(
                    f"request {request.request_id} carries a "
                    f"{request.instance.task.name} instance; this service "
                    f"serves {task.name}"
                )
            if request.tenant not in tenants:
                raise ServingError(
                    f"request {request.request_id} names unknown tenant "
                    f"{request.tenant!r}; known: {', '.join(sorted(tenants))}"
                )
            if not _MIN_ID <= request.request_id <= _MAX_ID:
                raise ServingError(
                    f"request id {request.request_id} does not fit the "
                    f"serve log's signed 64-bit column"
                )
        return last

    def _enqueue(
        self,
        request: ServeRequest,
        key: str,
        log: ServeLog,
        rejections: list[RejectedRequest],
        batches: list[dict],
    ) -> None:
        """An admitted cache miss: join the question's pending entry, or
        queue a new one."""
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
            self._execute_flush(flush, log, batches)

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
        batches = make_batches(
            [entry.instance for entry in flush.entries],
            batch_size=max_batch,
            mode=config.batching,
            seed=config.seed,
            artifacts=self._prep,
        )
        # A window is planned once: its vectors would outlive it unread.
        self._prep.release_vectors()
        return batches

    def _execute_flush(
        self, flush: Flush, log: ServeLog, batches: list[dict]
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
                log.log_flushed(
                    entry.waiters, prediction, flush.at, finished, seq,
                    quarantine_reason,
                )
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
