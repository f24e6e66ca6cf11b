"""Deterministic fault injection for LLM clients.

Production preprocessing survives flaky upstreams; this module makes flaky
upstreams *reproducible*.  :class:`FaultInjectingClient` wraps any
:class:`~repro.llm.base.LLMClient` and applies a scripted fault plan, so
tests and failure drills replay bit-identical fault sequences regardless
of scheduling.

Plans come in two flavours:

- **positional** — keyed by 1-based call index (the original scheme,
  right for drills that target "the third call whatever it is");
- **fingerprint-keyed** — keyed by :func:`request_fingerprint`, a content
  digest of the request.  The degradation ladder bisects and re-orders
  batches, so a positional schedule drifts the moment a batch splits; a
  fingerprint schedule pins the fault to *the request itself* and fires
  deterministically at any concurrency and any retry order.  Each
  fingerprint maps to a per-occurrence sequence: occurrence *k* of the
  request draws entry *k* (``None`` = serve normally, exhausted = serve
  normally), so "fail the first two attempts of this exact prompt" is one
  line.

Fault kinds:

- ``transient`` — raise :class:`~repro.errors.TransientLLMError` (a 5xx /
  dropped-connection stand-in), optionally charging burned latency;
- ``latency`` — serve the real response but with its modeled latency
  overridden (a spike that trips the executor's timeout);
- ``rate_limit`` — raise :class:`~repro.errors.RateLimitError` (an
  upstream 429) with a scripted retry-after;
- ``crash`` — raise :class:`~repro.errors.InjectedCrashError`, the chaos
  harness's simulated process kill; it is *not* retryable and tears
  through the executor untouched (see :mod:`repro.runtime.chaos`).

Beyond scripted point faults, :class:`DegradedClient` models a *sick*
upstream: whole windows of 429 storms, latency brownouts, overload
rejections, and blackouts, scripted by a
:class:`~repro.resilience.degradation.DegradationPlan` on the simulated
clock.  The executor feeds the clock in through ``observe_time`` (which
every :class:`~repro.llm.base.ClientWrapper` forwards), so which calls
degrade is a pure function of virtual time and the plan seed —
bit-identical at any concurrency.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

from repro.errors import (
    InjectedCrashError,
    LLMError,
    RateLimitError,
    TransientLLMError,
)
from repro.llm.base import (
    ClientWrapper,
    CompletionRequest,
    CompletionResponse,
    LLMClient,
)
from repro.resilience.degradation import DegradationPlan
from repro.resilience.signals import ThrottleSignal, attach

_KINDS = ("transient", "latency", "rate_limit", "crash")

#: a positional plan maps a 1-based call index to the fault to inject
FaultPlan = Callable[[int], "Fault | None"]


def request_fingerprint(request: CompletionRequest) -> str:
    """A stable content digest of one completion request.

    Covers everything that makes the request *this* request — model,
    temperature, token cap, and the full transcript — so retries of an
    unchanged prompt share a fingerprint while a re-built (bisected,
    zero-shot-degraded) prompt gets a new one.
    """
    hasher = hashlib.sha256()
    hasher.update(request.model.encode("utf-8"))
    hasher.update(f"{request.temperature:.6f}".encode("utf-8"))
    hasher.update(str(request.max_tokens).encode("utf-8"))
    for role, content in request.transcript:
        hasher.update(role.encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(content.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()[:16]


@dataclass(frozen=True)
class Fault:
    """One scripted misbehaviour."""

    kind: str
    retry_after: float = 1.0    # rate_limit: scripted Retry-After
    latency_s: float = 0.0      # transient: burned time; latency: override
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise LLMError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}"
            )


#: a fingerprint schedule: per-occurrence faults for one exact request
FaultSchedule = Sequence["Fault | None"]


def plan_key_type(keys: Iterable) -> type:
    """``int`` for a positional plan's keys, ``str`` for a fingerprint plan's.

    An empty plan is positional.  Any other key type, or a mix of the two,
    raises :class:`~repro.errors.LLMError`.
    """
    key_types = {type(key) for key in keys}
    if key_types <= {int}:
        return int
    if key_types <= {str}:
        return str
    raise LLMError(
        "a fault plan mapping must be keyed entirely by call index (int) "
        "or entirely by request fingerprint (str)"
    )


class FaultInjectingClient(ClientWrapper):
    """Applies a scripted fault plan in front of another client.

    ``plan`` is one of:

    - a callable returning the fault for a 1-based call index,
    - a mapping of 1-based call indices to :class:`Fault` (positional),
    - a mapping of request fingerprints (:func:`request_fingerprint`) to a
      :class:`Fault` or a per-occurrence sequence of ``Fault | None``.

    Positional and fingerprint keys cannot be mixed in one mapping — the
    two schemes answer different questions and silent precedence would
    make drills unreproducible.
    """

    def __init__(
        self,
        inner: LLMClient,
        plan: Mapping[int, Fault] | Mapping[str, Fault | FaultSchedule] | FaultPlan,
    ):
        super().__init__(inner)
        self._by_fingerprint: dict[str, tuple[Fault | None, ...]] = {}
        self._occurrences: dict[str, int] = {}
        if callable(plan):
            self._plan: FaultPlan | None = plan
        elif isinstance(plan, Mapping):
            if plan_key_type(plan) is int:
                indexed = dict(plan)
                self._plan = lambda index: indexed.get(index)
            else:
                self._plan = None
                for fingerprint, scheduled in plan.items():
                    if isinstance(scheduled, Fault):
                        scheduled = (scheduled,)
                    self._by_fingerprint[fingerprint] = tuple(scheduled)
        else:
            raise LLMError(f"cannot interpret fault plan {plan!r}")
        self.n_calls = 0
        self.n_injected = 0

    def _scheduled_fault(self, request: CompletionRequest) -> "Fault | None":
        if self._plan is not None:
            return self._plan(self.n_calls)
        fingerprint = request_fingerprint(request)
        schedule = self._by_fingerprint.get(fingerprint)
        if schedule is None:
            return None
        occurrence = self._occurrences.get(fingerprint, 0)
        self._occurrences[fingerprint] = occurrence + 1
        if occurrence >= len(schedule):
            return None
        return schedule[occurrence]

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        self.n_calls += 1
        fault = self._scheduled_fault(request)
        if fault is None:
            return self._inner.complete(request)
        self.n_injected += 1
        if fault.kind == "crash":
            raise InjectedCrashError("mid_batch", fault.message)
        if fault.kind == "transient":
            raise TransientLLMError(fault.message, latency_s=fault.latency_s)
        if fault.kind == "rate_limit":
            raise RateLimitError(fault.retry_after)
        response = self._inner.complete(request)
        return replace(response, latency_s=fault.latency_s)

    def checkpoint_state(self) -> dict:
        """Mutable injection state (plus the wrapped client's), journaled
        so a resumed drill continues its fault script mid-sentence."""
        return {
            **super().checkpoint_state(),
            "n_calls": self.n_calls,
            "n_injected": self.n_injected,
            "occurrences": dict(self._occurrences),
        }

    def restore_checkpoint_state(self, state: dict) -> None:
        """Restore state captured by :meth:`checkpoint_state`."""
        super().restore_checkpoint_state(state)
        self.n_calls = int(state["n_calls"])
        self.n_injected = int(state["n_injected"])
        self._occurrences = {
            str(key): int(value)
            for key, value in state.get("occurrences", {}).items()
        }


class GarblingClient(ClientWrapper):
    """Serves an unparseable reply whenever a trigger string is in the prompt.

    Wraps any :class:`~repro.llm.base.LLMClient`; a request whose
    transcript contains one of ``triggers`` gets ``reply`` (metered
    through the real token accounting, so usage stays honest) instead of
    the wrapped client's answer.  Because the decision is a pure function
    of the request *content*, the garbling fires identically at any
    concurrency, batch composition, or retry order — including the
    degradation ladder's bisected and per-instance re-asks, which still
    contain the poisoned cell's text.  That makes it the deterministic
    way to drive one chosen instance into quarantine: plant a marker
    value in a cell, trigger on it, and every prompt mentioning that
    cell yields garbage until the ladder gives up.
    """

    def __init__(
        self,
        inner: LLMClient,
        triggers: Sequence[str],
        reply: str = "I cannot help with that.",
    ):
        if not triggers:
            raise LLMError("GarblingClient needs at least one trigger string")
        super().__init__(inner)
        self._triggers = tuple(str(trigger) for trigger in triggers)
        self._reply = reply
        self.n_calls = 0
        self.n_garbled = 0

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        self.n_calls += 1
        transcript = "\n".join(content for __, content in request.transcript)
        if any(trigger in transcript for trigger in self._triggers):
            self.n_garbled += 1
            from repro.llm.accounting import meter_response
            from repro.llm.profiles import get_profile

            return meter_response(
                get_profile(request.model), request, self._reply
            )
        return self._inner.complete(request)

    def checkpoint_state(self) -> dict:
        return {
            **super().checkpoint_state(),
            "n_calls": self.n_calls,
            "n_garbled": self.n_garbled,
        }

    def restore_checkpoint_state(self, state: dict) -> None:
        super().restore_checkpoint_state(state)
        self.n_calls = int(state["n_calls"])
        self.n_garbled = int(state["n_garbled"])


class DegradedClient(ClientWrapper):
    """Scripts backend *sickness* windows over the wrapped client.

    A :class:`~repro.resilience.degradation.DegradationPlan` divides the
    simulated timeline into episodes; each completion call is classified
    by the virtual time the executor announced via :meth:`observe_time`:

    - ``rate_limit_storm`` — raise :class:`~repro.errors.RateLimitError`
      with the episode's scripted Retry-After;
    - ``latency_brownout`` — serve the real reply with its modeled
      latency multiplied by the episode's factor (slow but correct);
    - ``overload`` — raise :class:`~repro.errors.TransientLLMError`
      (the provider's ``overloaded`` rejection), burning the scripted
      latency;
    - ``blackout`` — like overload but typically at intensity 1.0: a
      total outage window.

    Whether a particular call inside an episode is hit is decided by a
    seeded hash of the call's per-episode ordinal, so the scenario
    replays bit-identically at any concurrency or retry order.  Every
    raised error carries a :class:`~repro.resilience.signals.ThrottleSignal`
    naming this backend, which the executor's AIMD loop and the failover
    router consume.
    """

    def __init__(
        self,
        inner: LLMClient,
        plan: DegradationPlan,
        backend_name: str = "primary",
    ):
        super().__init__(inner)
        self._plan = plan
        self._name = backend_name
        self._now = 0.0
        self._episode_calls: dict[int, int] = {}
        self.n_calls = 0
        self.n_throttled = 0
        self.n_overloads = 0
        self.n_blackouts = 0
        self.n_slowed = 0

    @property
    def plan(self) -> DegradationPlan:
        return self._plan

    def observe_time(self, now: float) -> None:
        """Adopt the attempt's virtual start time (fed by the executor).

        The clock tracks the *current* attempt, not a running maximum:
        with multiple lanes, one lane finishing late must not fast-forward
        the outage window for its siblings' earlier calls.  The executor
        announces starts in its deterministic scheduling order, so this
        stays bit-identical at any concurrency.
        """
        self._now = now
        super().observe_time(now)

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        self.n_calls += 1
        hit = self._plan.episode_at(self._now)
        if hit is None:
            return self._inner.complete(request)
        index, episode = hit
        ordinal = self._episode_calls.get(index, 0)
        self._episode_calls[index] = ordinal + 1
        if not self._plan.decide(index, ordinal, episode.intensity):
            return self._inner.complete(request)
        if episode.kind == "rate_limit_storm":
            self.n_throttled += 1
            raise attach(
                RateLimitError(episode.retry_after_s),
                ThrottleSignal(
                    kind="rate_limit",
                    retry_after_s=episode.retry_after_s,
                    backend=self._name,
                ),
            )
        if episode.kind == "overload":
            self.n_overloads += 1
            raise attach(
                TransientLLMError(
                    "upstream overloaded", latency_s=episode.retry_after_s
                ),
                ThrottleSignal(
                    kind="overloaded",
                    retry_after_s=episode.retry_after_s,
                    backend=self._name,
                ),
            )
        if episode.kind == "blackout":
            self.n_blackouts += 1
            raise attach(
                TransientLLMError(
                    "backend blackout", latency_s=episode.retry_after_s
                ),
                ThrottleSignal(
                    kind="overloaded",
                    retry_after_s=episode.retry_after_s,
                    backend=self._name,
                ),
            )
        # latency_brownout: slow but correct.
        response = self._inner.complete(request)
        self.n_slowed += 1
        return replace(
            response, latency_s=response.latency_s * episode.latency_factor
        )

    def checkpoint_state(self) -> dict:
        return {
            **super().checkpoint_state(),
            "now": self._now,
            "episode_calls": {
                str(index): count
                for index, count in self._episode_calls.items()
            },
            "n_calls": self.n_calls,
            "n_throttled": self.n_throttled,
            "n_overloads": self.n_overloads,
            "n_blackouts": self.n_blackouts,
            "n_slowed": self.n_slowed,
        }

    def restore_checkpoint_state(self, state: dict) -> None:
        super().restore_checkpoint_state(state)
        self._now = float(state["now"])
        self._episode_calls = {
            int(index): int(count)
            for index, count in state["episode_calls"].items()
        }
        self.n_calls = int(state["n_calls"])
        self.n_throttled = int(state["n_throttled"])
        self.n_overloads = int(state["n_overloads"])
        self.n_blackouts = int(state["n_blackouts"])
        self.n_slowed = int(state["n_slowed"])
