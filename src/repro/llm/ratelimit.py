"""Lane clocks and rate limits on the simulated timeline.

Commercial LLM APIs throttle by requests- and tokens-per-minute.  Here
that budget is checked against *virtual* time so tests and experiments
never sleep:

- :class:`LaneClock` — per-lane virtual clocks; the executor occupies a
  lane for each request's modeled latency, and the makespan feeds the
  experiment's hours column;
- :class:`RateLimiter` — the global sliding one-minute RPM/TPM window the
  executor checks before every attempt (the executor's retry loop owns
  the backoff and the wait);
- :class:`SlidingWindowBudget` — the O(1) monotonic variant the serving
  layer's admission control uses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import RateLimitError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.obs.metrics import MetricsRegistry


class LaneClock:
    """Per-lane virtual clocks over one shared simulated timeline.

    A lane models one concurrent request slot of a deployment.  Each lane
    has its own "available at" time; occupying a lane charges busy time to
    it, so concurrent lanes *overlap* latency instead of summing it.  The
    makespan — the wall-clock of the whole run — is the latest lane time,
    while ``sum(busy)`` recovers the sequential estimate.
    """

    def __init__(self, n_lanes: int):
        if n_lanes < 1:
            raise ValueError(f"need at least one lane, got {n_lanes}")
        self._avail = [0.0] * n_lanes
        self._busy = [0.0] * n_lanes

    @property
    def n_lanes(self) -> int:
        return len(self._avail)

    def available_at(self, lane: int) -> float:
        return self._avail[lane]

    def busy_seconds(self, lane: int) -> float:
        return self._busy[lane]

    @property
    def min_available(self) -> float:
        """Earliest time any lane can start a new request."""
        return min(self._avail)

    @property
    def makespan(self) -> float:
        """Virtual wall-clock of everything scheduled so far."""
        return max(self._avail)

    def earliest_lane(self, not_before: list[float] | None = None) -> int:
        """Lane that can start soonest (ties break to the lowest index).

        ``not_before`` optionally holds a per-lane floor (e.g. a circuit
        breaker's reopen time) combined with lane availability.
        """
        best_lane, best_time = 0, float("inf")
        for lane, avail in enumerate(self._avail):
            start = avail if not_before is None else max(avail, not_before[lane])
            if start < best_time:
                best_lane, best_time = lane, start
        return best_lane

    def occupy(self, lane: int, start: float, duration: float) -> float:
        """Charge ``duration`` busy seconds to ``lane`` beginning at ``start``.

        ``start`` may not precede the lane's availability (no time travel);
        any gap between availability and ``start`` is idle time.  Returns
        the finish time.
        """
        if duration < 0:
            raise ValueError("cannot occupy a lane for negative time")
        if start < self._avail[lane] - 1e-9:
            raise ValueError(
                f"lane {lane} is busy until {self._avail[lane]:.3f}, "
                f"cannot start at {start:.3f}"
            )
        self._avail[lane] = start + duration
        self._busy[lane] += duration
        return self._avail[lane]

    def idle_until(self, lane: int, time: float) -> None:
        """Push a lane's availability forward without charging busy time."""
        if time > self._avail[lane]:
            self._avail[lane] = time

    def utilization(self, lane: int) -> float:
        """Busy fraction of this lane relative to the run's makespan."""
        span = self.makespan
        return self._busy[lane] / span if span > 0 else 0.0

    def checkpoint_state(self) -> dict:
        """The clock's full mutable state as plain JSON-ready data."""
        return {"avail": list(self._avail), "busy": list(self._busy)}

    def restore_checkpoint_state(self, state: dict) -> None:
        """Restore a state captured by :meth:`checkpoint_state`.

        The lane count must match — a resumed run re-creates its clock
        from the same configuration, so a mismatch means the checkpoint
        belongs to a different run.
        """
        avail = [float(v) for v in state["avail"]]
        busy = [float(v) for v in state["busy"]]
        if len(avail) != self.n_lanes or len(busy) != self.n_lanes:
            raise ValueError(
                f"checkpoint has {len(avail)} lane(s), clock has {self.n_lanes}"
            )
        self._avail = avail
        self._busy = busy


@dataclass
class RateLimit:
    """A requests-per-minute plus tokens-per-minute budget."""

    requests_per_minute: int
    tokens_per_minute: int

    def __post_init__(self) -> None:
        if self.requests_per_minute <= 0 or self.tokens_per_minute <= 0:
            raise ValueError("rate limits must be positive")


class RateLimiter:
    """Sliding one-minute window over a simulated clock.

    The budget is *global*: with lane-aware scheduling every lane checks
    against the same event window, so N concurrent lanes overlap latency
    but still share one RPM/TPM allowance — exactly how commercial APIs
    meter an account, not a connection.
    """

    def __init__(
        self,
        limit: RateLimit,
        metrics: "MetricsRegistry | None" = None,
    ):
        self._limit = limit
        self._metrics = metrics
        self._events: list[tuple[float, int]] = []  # (time, tokens)

    def check(
        self,
        tokens: int,
        now: float,
        floor: float | None = None,
    ) -> None:
        """Record an attempt at virtual time ``now``; raise on over-budget.

        Lanes run at different virtual times, so a caller passes its
        lane's time; ``floor`` is the earliest time any lane could still
        issue a request — events older than ``floor - 60`` can never be
        observed again and are pruned.
        """
        if floor is None:
            floor = now
        self._events = [
            (t, n) for t, n in self._events if t > min(floor, now) - 60.0
        ]
        window = [(t, n) for t, n in self._events if now - 60.0 < t <= now]
        n_requests = len(window)
        n_tokens = sum(n for __, n in window)
        if (
            n_requests + 1 > self._limit.requests_per_minute
            or n_tokens + tokens > self._limit.tokens_per_minute
        ):
            oldest = window[0][0] if window else now
            retry_after = max(0.001, oldest + 60.0 - now)
            if self._metrics is not None:
                self._metrics.counter("ratelimit.throttled").inc()
                self._metrics.histogram("ratelimit.wait_s").observe(retry_after)
            raise RateLimitError(retry_after)
        self._events.append((now, tokens))
        self._events.sort(key=lambda event: event[0])

    def checkpoint_state(self) -> dict:
        """The limiter's sliding window as plain JSON-ready data."""
        return {"events": [[t, n] for t, n in self._events]}

    def restore_checkpoint_state(self, state: dict) -> None:
        """Restore a window captured by :meth:`checkpoint_state`."""
        self._events = [(float(t), int(n)) for t, n in state["events"]]


class SlidingWindowBudget:
    """A one-minute RPM/TPM window for *monotonic* admission decisions.

    :class:`RateLimiter` serves the executor, whose lanes probe the window
    at out-of-order virtual times; it rebuilds the event list on every
    check.  Admission control at a serving front door sees arrivals in
    nondecreasing time order, so this variant keeps a deque and a running
    token sum — O(1) amortized per request, which is what lets a load
    generator replay hundreds of thousands of arrivals per second.

    Unlike the limiter, an over-budget request is *not* recorded: the
    caller rejects it outright (admission control) instead of waiting out
    the window (backoff), so a rejected burst does not poison the budget
    for requests that follow.
    """

    def __init__(self, limit: RateLimit):
        self._limit = limit
        self._events: deque[tuple[float, int]] = deque()  # (time, tokens)
        self._token_sum = 0
        self._last_now = float("-inf")

    @property
    def limit(self) -> RateLimit:
        return self._limit

    def try_admit(self, tokens: int, now: float) -> str | None:
        """Admit a ``tokens``-sized request at time ``now``, or name why not.

        Returns ``None`` and records the request when it fits the budget;
        returns ``"rpm"`` or ``"tpm"`` (and records nothing) when it does
        not.  ``now`` must be nondecreasing across calls.
        """
        if now < self._last_now:
            raise ValueError(
                f"admission times must be nondecreasing: got {now:.3f} "
                f"after {self._last_now:.3f}"
            )
        self._last_now = now
        while self._events and self._events[0][0] <= now - 60.0:
            __, stale = self._events.popleft()
            self._token_sum -= stale
        if len(self._events) + 1 > self._limit.requests_per_minute:
            return "rpm"
        if self._token_sum + tokens > self._limit.tokens_per_minute:
            return "tpm"
        self._events.append((now, tokens))
        self._token_sum += tokens
        return None
