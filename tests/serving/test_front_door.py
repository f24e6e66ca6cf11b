"""The serving front door and its response log, differentially.

``PreprocessingService.serve`` validates a trace before admitting any of
it, answers an arrival with one lookup of its question handle, runs the
cache-hit path inline, and logs every answered request as a row of typed
columns (:class:`~repro.serving.request.ServeLog`).  The oracle here is
the per-arrival front door that came before, kept verbatim: ``serve`` and
``_admit`` with their two memos (``_key_of``, ``_tokens_of``), the hit
path that builds a ``ServeResponse`` per arrival, the ``_execute_flush``
that appends one per waiter to a list, and the list-walking
``ServeReport`` summary and payload bodies.  Admission, the cache, the
coalescer, batch execution and the executor are shared, so a difference
in any response, report or metric is the front door's or the log's.
"""

from __future__ import annotations

import dataclasses
import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PipelineConfig
from repro.core.pipeline import Quarantined
from repro.core.tasks import question_line, target_attribute_of
from repro.data.instances import Instance
from repro.errors import ServingError
from repro.llm.base import Usage
from repro.llm.simulated import SimulatedLLM
from repro.obs.manifest import jsonable
from repro.serving import (
    PreprocessingService,
    ServeConfig,
    ServeRequest,
    TenantBudget,
)
from repro.serving.cache import CachedAnswer
from repro.serving.request import RejectedRequest, ServeResponse
from repro.serving.scheduler import Flush, PendingEntry
from repro.serving.service import ServeReport, _percentile


class _ReferenceReport(ServeReport):
    """The report over a list of responses, as it was before the log."""

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


class _ReferenceService(PreprocessingService):
    """The service with the front door it had before the handle, logging
    its responses to a list."""

    def __init__(self, client, dataset, budgets, serve_config, pipeline_config):
        super().__init__(
            client, dataset, budgets,
            serve_config=serve_config, pipeline_config=pipeline_config,
        )
        #: id -> (pinned instance, question key); pinning keeps ids unique
        self._keys: dict[int, tuple[Instance, str]] = {}
        self._question_tokens: dict[str, int] = {}

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

    def serve(self, trace: list[ServeRequest]) -> ServeReport:
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
        return _ReferenceReport(
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


#: an Adult question line is ~110-130 tokens, so the tight end of these
#: budgets refuses on tokens as well as on requests; half the draws are
#: generous, so that most arrivals reach the cache and the coalescer
_RPM = (1, 3, 10**9, 10**9, 10**9)
_TPM = (150, 1_000, 10**9, 10**9, 10**9)
#: exact binary fractions: arrivals land exactly on deadlines, and a gap
#: past 60 s empties a tenant's window
_GAPS = (0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 61.0)
_MAX_QUESTIONS = 12


@st.composite
def _scenarios(draw):
    n_tenants = draw(st.integers(1, 3))
    budgets = [
        TenantBudget(
            f"tenant-{i}", draw(st.sampled_from(_RPM)),
            draw(st.sampled_from(_TPM)),
        )
        for i in range(n_tenants)
    ]
    serve_config = ServeConfig(
        max_batch=draw(st.integers(1, 4)),
        max_wait_s=draw(st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0))),
        coalesce=draw(st.sampled_from(("window", "eager"))),
        max_queue=draw(st.integers(1, 8)),
        cache_entries=draw(st.sampled_from((0, 1, 3, 3, None))),
    )
    concurrency = draw(st.sampled_from((1, 3)))
    # Few questions against a small cache make LRU order decide hits.
    n_questions = draw(st.sampled_from((1, 2, 4, 5, 6, _MAX_QUESTIONS)))
    # (tenant, gap before the arrival, question, the question's twin?);
    # the length is drawn first, as a list strategy favours short lists
    n_arrivals = draw(st.integers(1, 60))
    rows = draw(st.lists(
        st.tuples(
            st.integers(0, n_tenants - 1), st.sampled_from(_GAPS),
            st.integers(0, n_questions - 1), st.booleans(),
        ),
        min_size=n_arrivals, max_size=n_arrivals,
    ))
    cuts = sorted(draw(st.lists(
        st.integers(0, len(rows)), max_size=2
    )))
    return budgets, serve_config, concurrency, rows, cuts


def _traces(rows, cuts, questions, twins) -> list[list[ServeRequest]]:
    """The rows as one trace, split at ``cuts`` into consecutive calls."""
    requests = []
    arrival = 0.0
    for request_id, (tenant, gap, question, twin) in enumerate(rows):
        arrival += gap
        instance = (twins if twin else questions)[question]
        requests.append(
            ServeRequest(request_id, f"tenant-{tenant}", arrival, instance)
        )
    bounds = [0, *cuts, len(requests)]
    return [requests[a:b] for a, b in zip(bounds, bounds[1:])]


@given(scenario=_scenarios())
@settings(max_examples=200, deadline=None)
def test_serve_equals_the_reference_front_door(adult_dataset, scenario):
    budgets, serve_config, concurrency, rows, cuts = scenario
    questions = list(adult_dataset.instances)[:_MAX_QUESTIONS]
    # Distinct objects with equal content: the same question by key.
    twins = [dataclasses.replace(instance) for instance in questions]
    pipeline = PipelineConfig(model="gpt-3.5", seed=0, concurrency=concurrency)
    service = PreprocessingService(
        SimulatedLLM("gpt-3.5", seed=0), adult_dataset, budgets,
        serve_config=serve_config, pipeline_config=pipeline,
    )
    reference = _ReferenceService(
        SimulatedLLM("gpt-3.5", seed=0), adult_dataset, budgets,
        serve_config, pipeline,
    )
    for trace in _traces(rows, cuts, questions, twins):
        ours = service.serve(trace)
        theirs = reference.serve(trace)
        assert list(ours.responses) == theirs.responses
        assert ours.rejections == theirs.rejections
        assert ours.payload() == theirs.payload()
        assert service.metrics.snapshot() == reference.metrics.snapshot()
        for q in (0.0, 0.3, 0.5, 0.99, 1.0):
            assert ours.latency_quantile(q) == theirs.latency_quantile(q)
