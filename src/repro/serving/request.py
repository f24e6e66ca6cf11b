"""Request/response vocabulary of the serving layer.

A :class:`ServeRequest` is one tenant asking one question (a single data
instance) at a virtual arrival time.  Every request the service accepts
produces exactly one :class:`ServeResponse`; every request it refuses
produces exactly one :class:`RejectedRequest` with a typed reason — the
queue-conservation invariant the property suite enforces (arrived =
served + rejected, nothing dropped silently).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.data.instances import Instance

#: every reason a request can be refused admission; ``backend_degraded``
#: is load shedding under sustained backend sickness (resilience mode)
REJECT_REASONS: tuple[str, ...] = (
    "queue_full", "tenant_rpm", "tenant_tpm", "backend_degraded",
)

#: where a served answer came from: a completion call this request rode
#: on, a coalesced batch another request triggered, or the completed-
#: answer cache
ANSWER_SOURCES: tuple[str, ...] = ("llm", "shared", "cache")


@dataclass(frozen=True, slots=True)
class ServeRequest:
    """One tenant question arriving at a virtual time.

    ``request_id`` is globally unique and monotone in arrival order — the
    deterministic tie-breaker whenever two requests arrive at the same
    instant.  Slotted: a trace holds one request per arrival, and a
    request without a ``__dict__`` is about a third smaller.
    """

    request_id: int
    tenant: str
    arrival_s: float
    instance: Instance


class ServeResponse(NamedTuple):
    """One answered request.

    ``flushed_s`` is when the arrival-clock scheduler released the
    request's question for execution (equal to ``arrival_s`` for cache
    hits); the fairness bound lives here: ``flushed_s - arrival_s`` never
    exceeds the coalescer's max wait.  ``completed_s`` adds the modeled
    execution time, so it is the only field that varies with executor
    concurrency.  ``batch_seq`` names the coalesced batch that produced
    the answer (``None`` for cache hits); ``quarantine_reason`` is set
    when the degradation ladder gave up on the question (the prediction
    is then ``None``).

    A ``NamedTuple``, not a frozen dataclass: the service builds one per
    served request — nearly every arrival — and a tuple is built in one
    step where a frozen dataclass pays one ``object.__setattr__`` per
    field.  It is just as immutable; it also equals the plain tuple of
    its fields, and ``_replace``/``_asdict`` stand in for the
    ``dataclasses`` helpers.
    """

    request_id: int
    tenant: str
    arrival_s: float
    prediction: bool | str | None
    source: str
    flushed_s: float
    completed_s: float
    batch_seq: int | None = None
    quarantine_reason: str | None = None

    @property
    def latency_s(self) -> float:
        """Virtual time from arrival to completed answer."""
        return self.completed_s - self.arrival_s

    @property
    def wait_s(self) -> float:
        """Virtual time the request spent queued before its flush."""
        return self.flushed_s - self.arrival_s


@dataclass(frozen=True)
class RejectedRequest:
    """One refused request, with a typed reason from :data:`REJECT_REASONS`."""

    request_id: int
    tenant: str
    arrival_s: float
    reason: str
    detail: str = ""
