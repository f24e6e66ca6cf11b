"""Concurrent batch executor with fault-tolerant scheduling.

The paper's cost analysis (§4.5) models completion calls as sequential, so
wall-clock grows linearly with batch count and one stalled request blocks
the run.  A production deployment issues requests over N concurrent lanes;
this module schedules the pipeline's per-batch calls across such lanes on
the simulated timeline:

- **Lanes** (:class:`~repro.llm.ratelimit.LaneClock`): each call is
  list-scheduled onto the lane that frees up earliest, so lane latencies
  overlap while the RPM/TPM budget stays global across lanes.
- **Fault tolerance**: every call gets a retry budget with exponential
  backoff plus deterministic jitter; a modeled per-call timeout converts
  latency spikes into retryable failures.
- **Circuit breaker**: repeated consecutive failures on a lane trip a
  per-lane breaker that holds the lane closed for a cooldown, shedding
  load from a misbehaving upstream instead of hammering it.
- **Graceful degradation**: when one call's retry budget is exhausted the
  executor raises :class:`~repro.errors.ExecutionGiveUpError`; the
  pipeline reacts by splitting the batch into smaller ones (recorded here
  as fallback splits) before resorting to safe fallback answers.

Determinism: calls are *issued* in submission order regardless of lane
count — only the virtual time accounting differs between concurrency
levels — so a deterministic client produces bit-identical predictions at
any concurrency, and ``concurrency=1`` reproduces the sequential model
exactly.  An :class:`ExecutionReport` summarizes the run: makespan versus
the sequential estimate, and per-lane utilization/retry/breaker counters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import (
    ContextWindowExceededError,
    ExecutionGiveUpError,
    RateLimitError,
    TransientLLMError,
)
from repro.llm.base import CompletionRequest, CompletionResponse, LLMClient
from repro.llm.ratelimit import LaneClock, RateLimit, RateLimiter
from repro.obs import RunObservation
from repro.obs.tracing import Span
from repro.resilience.aimd import AimdController
from repro.resilience.config import ResilienceConfig
from repro.resilience.signals import throttle_of


@dataclass(frozen=True)
class ExecutorConfig:
    """Scheduling and fault-tolerance knobs for one executor.

    Parameters
    ----------
    concurrency:
        Number of worker lanes (1 = the paper's sequential model).
    max_attempts:
        Total tries per completion call before giving up (1 = no retry).
    timeout_s:
        Modeled per-call timeout; a response whose latency exceeds it is
        discarded and retried, charging the timeout to the lane.  ``None``
        disables timeouts.
    base_backoff_s / backoff_multiplier / max_backoff_s:
        Exponential backoff between attempts of one call.
    jitter:
        Fraction of the backoff added as deterministic jitter (seeded),
        de-synchronizing lanes that fail together.
    breaker_threshold:
        Consecutive failures on one lane that trip its circuit breaker
        (0 disables the breaker).
    breaker_cooldown_s:
        How long a tripped lane stays closed.
    max_rate_limit_waits:
        Rate-limit stalls tolerated per call before giving up; stalls wait
        out the window and do not count toward the breaker.
    rate_limit:
        Optional global RPM/TPM budget shared by all lanes.
    seed:
        Seed for the jitter stream.
    resilience:
        Optional :class:`~repro.resilience.config.ResilienceConfig`
        enabling AIMD adaptive lane width (and carrying the hedging /
        failover tuning for a pool client).  ``None`` — the default —
        keeps the executor bit-identical to its historical behaviour.
    """

    concurrency: int = 1
    max_attempts: int = 3
    timeout_s: float | None = None
    base_backoff_s: float = 1.0
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 60.0
    jitter: float = 0.1
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 30.0
    max_rate_limit_waits: int = 8
    rate_limit: RateLimit | None = None
    seed: int = 0
    resilience: ResilienceConfig | None = None

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff times cannot be negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.breaker_threshold < 0:
            raise ValueError("breaker_threshold cannot be negative")
        if self.breaker_cooldown_s < 0:
            raise ValueError("breaker_cooldown_s cannot be negative")
        if self.max_rate_limit_waits < 0:
            raise ValueError("max_rate_limit_waits cannot be negative")


@dataclass
class LaneReport:
    """One lane's share of a run."""

    lane: int
    n_calls: int = 0
    n_retries: int = 0
    n_timeouts: int = 0
    n_rate_limit_waits: int = 0
    n_breaker_trips: int = 0
    busy_s: float = 0.0
    utilization: float = 0.0


@dataclass
class ExecutionReport:
    """Structured summary of one executor run.

    ``makespan_s`` is the virtual wall-clock of the whole run (latest lane
    finish time); ``sequential_s`` is what the same calls would have taken
    end-to-end on a single lane — their ratio is the modeled speedup.
    """

    concurrency: int
    lanes: list[LaneReport] = field(default_factory=list)
    makespan_s: float = 0.0
    sequential_s: float = 0.0
    n_calls: int = 0
    n_retries: int = 0
    n_timeouts: int = 0
    n_rate_limit_waits: int = 0
    n_breaker_trips: int = 0
    n_giveups: int = 0
    n_fallback_splits: int = 0
    #: response-cache traffic observed during the run (0/0 when the client
    #: has no cache in front of it)
    n_cache_hits: int = 0
    n_cache_misses: int = 0

    def __post_init__(self) -> None:
        # Deliberately NOT a dataclass field: circuit-breaker transition
        # counts ride along for reports and metrics without entering
        # ``dataclasses.asdict`` — run manifests (and therefore golden
        # snapshot bytes) stay unchanged for runs where nothing trips.
        self.breaker_transitions: dict[str, int] = {
            "open": 0, "half_open": 0, "close": 0,
        }

    @property
    def speedup(self) -> float:
        """Sequential estimate over makespan (1.0 when nothing overlaps)."""
        if self.makespan_s <= 0:
            return 1.0
        return self.sequential_s / self.makespan_s

    @property
    def mean_utilization(self) -> float:
        if not self.lanes:
            return 0.0
        return sum(lane.utilization for lane in self.lanes) / len(self.lanes)

    @property
    def cache_hit_rate(self) -> float:
        """Hits over total cache lookups (0.0 when no cache was observed)."""
        total = self.n_cache_hits + self.n_cache_misses
        return self.n_cache_hits / total if total else 0.0


@dataclass
class _LaneState:
    """Mutable fault bookkeeping for one lane (times live in LaneClock)."""

    consecutive_failures: int = 0
    open_until: float = 0.0


class BatchExecutor:
    """Schedules completion calls over N lanes of simulated time.

    One executor serves one pipeline run: its lane clocks and report
    accumulate across every :meth:`call`.  Calls execute in invocation
    order (Python is single-threaded; concurrency is a property of the
    *virtual* timeline), so a deterministic client yields identical
    responses at every lane count.
    """

    def __init__(
        self,
        client: LLMClient,
        config: ExecutorConfig | None = None,
        obs: RunObservation | None = None,
    ):
        self._client = client
        self._config = config or ExecutorConfig()
        self._obs = obs
        self._clock = LaneClock(self._config.concurrency)
        self._lanes = [_LaneState() for __ in range(self._config.concurrency)]
        self._limiter = (
            RateLimiter(
                self._config.rate_limit,
                metrics=obs.metrics if obs is not None else None,
            )
            if self._config.rate_limit is not None
            else None
        )
        self._rng = random.Random(self._config.seed)
        #: draws taken from ``_rng``, all through :meth:`_jittered`; the
        #: journal stores this count in place of the generator's state
        self._rng_draws = 0
        self._stats = ExecutionReport(
            concurrency=self._config.concurrency,
            lanes=[LaneReport(lane=i) for i in range(self._config.concurrency)],
        )
        resilience = self._config.resilience
        self._aimd = (
            AimdController(resilience, self._config.concurrency)
            if resilience is not None and resilience.aimd
            else None
        )
        # Clock hook: clients modeling time-dependent behaviour (scripted
        # degradation windows, failover routing) learn each attempt's
        # virtual start time through this duck-typed method.
        self._observe_time = getattr(client, "observe_time", None)
        # Breaker circuit view per lane (closed/open/half_open), tracked
        # alongside the existing trip counters to expose full open ->
        # half-open -> close transition counts.
        self._lane_circuit = ["closed"] * self._config.concurrency

    @property
    def config(self) -> ExecutorConfig:
        return self._config

    @property
    def clock(self) -> LaneClock:
        return self._clock

    def call(
        self,
        request: CompletionRequest,
        ready_at: float = 0.0,
        parent: Span | None = None,
    ) -> tuple[CompletionResponse, float]:
        """Run one completion call; return (response, virtual finish time).

        ``ready_at`` is the earliest virtual time this call may start —
        the finish time of whatever it depends on (e.g. the failed attempt
        a format retry follows).  Raises
        :class:`~repro.errors.ExecutionGiveUpError` once the retry budget
        is spent, and lets :class:`ContextWindowExceededError` propagate
        untouched (it is a prompt-size problem, not a fault).  When
        observability is on, the whole call — waits, retries, breaker
        trips — becomes one ``llm.call`` span under ``parent``.
        """
        config = self._config
        lane = self._pick_lane(ready_at)
        state = self._lanes[lane]
        report = self._stats.lanes[lane]
        start = max(self._clock.available_at(lane), ready_at, state.open_until)
        if self._lane_circuit[lane] == "open":
            # Scheduling already floors at open_until, so the first call
            # a tripped lane re-admits is its half-open recovery probe.
            self._transition(lane, "half_open")
        span: Span | None = None
        if self._obs is not None:
            span = self._obs.tracer.start_span(
                "llm.call", start, parent=parent,
                lane=lane, model=request.model,
            )
        try:
            response, finished = self._attempt_loop(
                request, lane, start, span
            )
        except ContextWindowExceededError:
            if span is not None:
                span.set_attribute("outcome", "context_window")
                span.end(start)
            raise
        except ExecutionGiveUpError as giveup:
            if span is not None:
                span.set_attribute("outcome", "giveup")
                span.end(max(giveup.at, span.start_s))
            raise
        state.consecutive_failures = 0
        if self._lane_circuit[lane] != "closed":
            self._transition(lane, "close")
        if self._aimd is not None:
            self._aimd.on_success()
        report.n_calls += 1
        self._stats.n_calls += 1
        if span is not None:
            span.set_attribute("outcome", "ok")
            span.set_attribute("prompt_tokens", response.usage.prompt_tokens)
            span.set_attribute(
                "completion_tokens", response.usage.completion_tokens
            )
            span.set_attribute("latency_s", response.latency_s)
            span.end(finished)
            metrics = self._obs.metrics
            metrics.counter("executor.calls").inc()
            metrics.counter("llm.prompt_tokens").inc(
                response.usage.prompt_tokens
            )
            metrics.counter("llm.completion_tokens").inc(
                response.usage.completion_tokens
            )
            metrics.histogram("llm.call_latency_s").observe(response.latency_s)
        return response, finished

    def _attempt_loop(
        self,
        request: CompletionRequest,
        lane: int,
        start: float,
        span: Span | None,
    ) -> tuple[CompletionResponse, float]:
        """The retry loop of one call (shared bookkeeping stays in call)."""
        config = self._config
        report = self._stats.lanes[lane]
        backoff = config.base_backoff_s
        attempts = 0
        rate_limit_waits = 0
        last_reason = "no attempt made"
        while True:
            if self._limiter is not None:
                try:
                    self._limiter.check(
                        request.prompt_tokens,
                        now=start,
                        floor=min(self._clock.min_available, start),
                    )
                except RateLimitError as exc:
                    rate_limit_waits += 1
                    report.n_rate_limit_waits += 1
                    self._stats.n_rate_limit_waits += 1
                    self._count("executor.rate_limit_waits")
                    self._event(span, "throttle.wait", start,
                                retry_after=exc.retry_after, source="local")
                    if rate_limit_waits > config.max_rate_limit_waits:
                        self._give_up(lane, start, exc_attempts=attempts or 1,
                                      reason=f"rate limited: {exc}")
                    # Stalls wait out the window (idle, not busy) and do
                    # not count as failures toward the circuit breaker.
                    start += max(exc.retry_after, self._jittered(backoff))
                    backoff = self._next_backoff(backoff)
                    continue
            attempts += 1
            if self._observe_time is not None:
                self._observe_time(start)
            try:
                response = self._client.complete(request)
            except ContextWindowExceededError:
                raise
            except RateLimitError as exc:
                # An upstream 429 (the provider's limiter, not ours).
                if self._aimd is not None:
                    self._aimd.on_throttle()
                rate_limit_waits += 1
                report.n_rate_limit_waits += 1
                self._stats.n_rate_limit_waits += 1
                self._count("executor.rate_limit_waits")
                self._event(span, "throttle.wait", start,
                            retry_after=exc.retry_after, source="upstream")
                attempts -= 1  # a stall, not a failed attempt
                if rate_limit_waits > config.max_rate_limit_waits:
                    self._give_up(lane, start, exc_attempts=max(attempts, 1),
                                  reason=f"rate limited upstream: {exc}")
                start += max(exc.retry_after, self._jittered(backoff))
                backoff = self._next_backoff(backoff)
                continue
            except TransientLLMError as exc:
                # An ``overloaded`` rejection carries a throttle signal:
                # the upstream is pushing back, not merely flaking.
                if self._aimd is not None and throttle_of(exc) is not None:
                    self._aimd.on_throttle()
                start = self._clock.occupy(lane, start, exc.latency_s)
                last_reason = str(exc)
                start, backoff = self._after_failure(
                    lane, start, backoff, attempts, last_reason, span
                )
                continue
            latency = response.latency_s
            if config.timeout_s is not None and latency > config.timeout_s:
                # The caller would have hung up at the deadline: charge the
                # timeout (not the full spike) and retry the call.
                start = self._clock.occupy(lane, start, config.timeout_s)
                report.n_timeouts += 1
                self._stats.n_timeouts += 1
                self._count("executor.timeouts")
                self._event(span, "timeout", start,
                            timeout_s=config.timeout_s, latency_s=latency)
                last_reason = (
                    f"timed out after {config.timeout_s:.1f}s "
                    f"(modeled latency {latency:.1f}s)"
                )
                start, backoff = self._after_failure(
                    lane, start, backoff, attempts, last_reason, span
                )
                continue
            if span is not None:
                span.set_attribute("attempts", attempts)
            return response, self._clock.occupy(lane, start, latency)

    def report(self) -> ExecutionReport:
        """Snapshot the run's counters with final time accounting."""
        stats = self._stats
        stats.makespan_s = self._clock.makespan
        stats.sequential_s = sum(
            self._clock.busy_seconds(i) for i in range(self._clock.n_lanes)
        )
        for lane_report in stats.lanes:
            lane_report.busy_s = self._clock.busy_seconds(lane_report.lane)
            lane_report.utilization = self._clock.utilization(lane_report.lane)
        if self._obs is not None:
            metrics = self._obs.metrics
            metrics.gauge("executor.makespan_s").set(stats.makespan_s)
            metrics.gauge("executor.sequential_s").set(stats.sequential_s)
            for lane_report in stats.lanes:
                metrics.gauge(
                    f"executor.lane{lane_report.lane}.busy_s"
                ).set(lane_report.busy_s)
            if self._aimd is not None:
                metrics.gauge("executor.aimd_width").set(self._aimd.width)
        return stats

    def record_fallback_split(self, n_subbatches: int) -> None:
        """Note that a given-up batch degraded into smaller sub-batches."""
        self._stats.n_fallback_splits += n_subbatches
        self._count("executor.fallback_splits", n_subbatches)

    def record_cache_traffic(self, hits: int, misses: int) -> None:
        """Add response-cache traffic the client saw during one batch.

        Kept current batch by batch, so the journal's report state
        carries it and a resumed run adds only its own batches' traffic.
        """
        self._stats.n_cache_hits += hits
        self._stats.n_cache_misses += misses

    def checkpoint_state(self) -> dict:
        """Every piece of mutable executor state, as plain JSON-ready data.

        Captured into the run journal after each completed batch; restoring
        it into a freshly constructed executor (same config) makes the
        resumed run's scheduling — lane picks, backoff jitter, breaker
        windows, rate-limit windows — continue bit-identically to the
        interrupted one.  Derived time accounting (makespan, utilization)
        is *not* stored: :meth:`report` recomputes it from the clock.
        """
        return {
            "clock": self._clock.checkpoint_state(),
            "lanes": [
                {
                    "consecutive_failures": state.consecutive_failures,
                    "open_until": state.open_until,
                }
                for state in self._lanes
            ],
            "limiter": (
                self._limiter.checkpoint_state()
                if self._limiter is not None
                else None
            ),
            "rng_draws": self._rng_draws,
            "report": {
                "n_calls": self._stats.n_calls,
                "n_retries": self._stats.n_retries,
                "n_timeouts": self._stats.n_timeouts,
                "n_rate_limit_waits": self._stats.n_rate_limit_waits,
                "n_breaker_trips": self._stats.n_breaker_trips,
                "n_giveups": self._stats.n_giveups,
                "n_fallback_splits": self._stats.n_fallback_splits,
                "n_cache_hits": self._stats.n_cache_hits,
                "n_cache_misses": self._stats.n_cache_misses,
                "lanes": [
                    {
                        "n_calls": lane.n_calls,
                        "n_retries": lane.n_retries,
                        "n_timeouts": lane.n_timeouts,
                        "n_rate_limit_waits": lane.n_rate_limit_waits,
                        "n_breaker_trips": lane.n_breaker_trips,
                    }
                    for lane in self._stats.lanes
                ],
            },
            "aimd": (
                self._aimd.checkpoint_state()
                if self._aimd is not None
                else None
            ),
            "circuit": {
                "lanes": list(self._lane_circuit),
                "transitions": dict(self._stats.breaker_transitions),
            },
        }

    def restore_checkpoint_state(self, state: dict) -> None:
        """Restore state captured by :meth:`checkpoint_state`."""
        self._clock.restore_checkpoint_state(state["clock"])
        lanes = state["lanes"]
        if len(lanes) != len(self._lanes):
            raise ValueError(
                f"checkpoint has {len(lanes)} lane(s), executor has "
                f"{len(self._lanes)}"
            )
        for lane_state, stored in zip(self._lanes, lanes):
            lane_state.consecutive_failures = int(stored["consecutive_failures"])
            lane_state.open_until = float(stored["open_until"])
        if state.get("limiter") is not None and self._limiter is not None:
            self._limiter.restore_checkpoint_state(state["limiter"])
        # The generator is seeded from the config and only ever drawn
        # from, so re-seeding and drawing as often restores its state.
        self._rng.seed(self._config.seed)
        self._rng_draws = int(state["rng_draws"])
        for __ in range(self._rng_draws):
            self._rng.random()
        report = state["report"]
        self._stats.n_calls = int(report["n_calls"])
        self._stats.n_retries = int(report["n_retries"])
        self._stats.n_timeouts = int(report["n_timeouts"])
        self._stats.n_rate_limit_waits = int(report["n_rate_limit_waits"])
        self._stats.n_breaker_trips = int(report["n_breaker_trips"])
        self._stats.n_giveups = int(report["n_giveups"])
        self._stats.n_fallback_splits = int(report["n_fallback_splits"])
        self._stats.n_cache_hits = int(report["n_cache_hits"])
        self._stats.n_cache_misses = int(report["n_cache_misses"])
        for lane_report, stored in zip(self._stats.lanes, report["lanes"]):
            lane_report.n_calls = int(stored["n_calls"])
            lane_report.n_retries = int(stored["n_retries"])
            lane_report.n_timeouts = int(stored["n_timeouts"])
            lane_report.n_rate_limit_waits = int(stored["n_rate_limit_waits"])
            lane_report.n_breaker_trips = int(stored["n_breaker_trips"])
        if state.get("aimd") is not None and self._aimd is not None:
            self._aimd.restore_checkpoint_state(state["aimd"])
        circuit = state.get("circuit")
        if circuit is not None:
            self._lane_circuit = [str(value) for value in circuit["lanes"]]
            # In place: the journal stores keys sorted, and the report
            # keeps its open -> half_open -> close order.
            transitions = self._stats.breaker_transitions
            for key in transitions:
                transitions[key] = int(circuit["transitions"][key])

    def _pick_lane(self, ready_at: float) -> int:
        # AIMD narrows the *usable* lane count: lanes beyond the current
        # width are floored at infinity so the scheduler never picks
        # them.  Lane 0 is always usable (width >= 1).
        width = (
            self._aimd.width if self._aimd is not None else len(self._lanes)
        )
        floors = [
            max(state.open_until, ready_at) if index < width else float("inf")
            for index, state in enumerate(self._lanes)
        ]
        return self._clock.earliest_lane(not_before=floors)

    def _transition(self, lane: int, to: str) -> None:
        """Book one breaker circuit transition (accounting only —
        scheduling stays entirely on ``open_until`` floors)."""
        self._lane_circuit[lane] = "closed" if to == "close" else to
        self._stats.breaker_transitions[to] += 1
        self._count(f"executor.breaker.{to}")

    def _after_failure(
        self,
        lane: int,
        start: float,
        backoff: float,
        attempts: int,
        reason: str,
        span: Span | None = None,
    ) -> tuple[float, float]:
        """Book one failed attempt; return (next start time, next backoff)."""
        config = self._config
        state = self._lanes[lane]
        report = self._stats.lanes[lane]
        state.consecutive_failures += 1
        if (
            config.breaker_threshold
            and state.consecutive_failures >= config.breaker_threshold
        ):
            state.open_until = start + config.breaker_cooldown_s
            state.consecutive_failures = 0
            report.n_breaker_trips += 1
            self._stats.n_breaker_trips += 1
            self._count("executor.breaker_trips")
            self._transition(lane, "open")
            self._event(span, "breaker.trip", start,
                        lane=lane, open_until=state.open_until)
        if attempts >= config.max_attempts:
            self._give_up(lane, start, exc_attempts=attempts, reason=reason)
        report.n_retries += 1
        self._stats.n_retries += 1
        self._count("executor.retries")
        self._event(span, "retry", start, attempt=attempts, reason=reason)
        next_start = max(start + self._jittered(backoff), state.open_until)
        return next_start, self._next_backoff(backoff)

    def _give_up(self, lane: int, at: float, exc_attempts: int, reason: str):
        self._clock.idle_until(lane, at)
        self._stats.n_giveups += 1
        self._count("executor.giveups")
        raise ExecutionGiveUpError(exc_attempts, reason, at=at)

    def _count(self, name: str, amount: float = 1.0) -> None:
        """Bump an observability counter (no-op when observability is off)."""
        if self._obs is not None:
            self._obs.metrics.counter(name).inc(amount)

    @staticmethod
    def _event(span: Span | None, name: str, time_s: float, **attrs) -> None:
        """Attach a point event to the call span when tracing is on."""
        if span is not None:
            span.add_event(name, time_s, **attrs)

    def _jittered(self, backoff: float) -> float:
        self._rng_draws += 1
        return backoff * (1.0 + self._config.jitter * self._rng.random())

    def _next_backoff(self, backoff: float) -> float:
        return min(
            backoff * self._config.backoff_multiplier,
            self._config.max_backoff_s,
        )
