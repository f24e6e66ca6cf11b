"""Request/response vocabulary of the serving layer.

A :class:`ServeRequest` is one tenant asking one question (a single data
instance) at a virtual arrival time.  Every request the service accepts
produces exactly one :class:`ServeResponse`, a row of the run's
:class:`ServeLog`; every request it refuses
produces exactly one :class:`RejectedRequest` with a typed reason — the
queue-conservation invariant the property suite enforces (arrived =
served + rejected, nothing dropped silently).
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import repeat
from operator import sub
from typing import NamedTuple, overload

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
    """One answered request: a row of the :class:`ServeLog`, built on access.

    ``flushed_s`` is when the arrival-clock scheduler released the
    request's question for execution (equal to ``arrival_s`` for cache
    hits); the fairness bound lives here: ``flushed_s - arrival_s`` never
    exceeds the coalescer's max wait.  ``completed_s`` adds the modeled
    execution time, so it is the only field that varies with executor
    concurrency.  ``batch_seq`` names the coalesced batch that produced
    the answer (``None`` for cache hits); ``quarantine_reason`` is set
    when the degradation ladder gave up on the question (the prediction
    is then ``None``).

    The service does not hold these: it logs each answered request as
    one row of typed columns, and a ``ServeResponse`` is made each time
    the log is indexed or iterated.  It is a ``NamedTuple``, so it equals
    the plain tuple of its fields, and ``_replace``/``_asdict`` work.
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


#: makes a ``ServeResponse`` from one zipped row without running a Python
#: frame (``ServeResponse(...)`` and ``_make`` are Python functions)
_new_row = tuple.__new__


class ServeLog(Sequence[ServeResponse]):
    """The responses of one serve run, as typed columns.

    Each answered request is one row of five ``array`` columns:
    ``request_ids``, ``tenant_ids`` (an index into ``tenants``),
    ``arrivals``, ``completions`` and ``view_ids``.  A view is one answer
    as its requests saw it: prediction, source, flush time, batch seq and
    quarantine reason.  A flushed answer has an ``llm`` view for the
    request that rode the completion call and a ``shared`` view for the
    ones that joined it; an answer reused from the cache has a ``cache``
    view in each log that reuses it.  So a row is numbers only, and
    logging one allocates nothing the garbage collector tracks; the view
    table grows with answers, not arrivals, and lives with the log.
    :meth:`log_flushed` appends a flushed answer's rows; the service
    appends a cache hit's row to the five columns itself, in its
    per-arrival loop, so that a hit runs no extra Python frame.

    The log is a read-only sequence: indexing, slicing and iteration
    build :class:`ServeResponse` rows on access, in the order the service
    logged them, and it equals a list of the same responses.  Iteration
    runs in C (``map``/``zip`` over the columns).  ``flushed_s`` is not
    stored per row: it is the view's flush time, or the row's arrival for
    a cache view.  Times are stored as doubles and request ids as signed
    64-bit integers.
    """

    __slots__ = (
        "tenants", "tenant_id", "request_ids", "tenant_ids", "arrivals",
        "completions", "view_ids", "_predictions", "_sources", "_flushes",
        "_seqs", "_reasons", "_n_llm", "_n_shared",
    )

    def __init__(self, tenants: Sequence[str]):
        self.tenants = tuple(tenants)
        #: tenant name -> its id in ``tenant_ids``
        self.tenant_id = {name: i for i, name in enumerate(self.tenants)}
        self.request_ids = array("q")
        self.tenant_ids = array("B" if len(self.tenants) <= 256 else "I")
        self.arrivals = array("d")
        self.completions = array("d")
        self.view_ids = array("I")
        self._predictions: list[bool | str | None] = []
        self._sources: list[str] = []
        #: view id -> flush time, for flushed answers' views only
        self._flushes: dict[int, float] = {}
        self._seqs: list[int | None] = []
        self._reasons: list[str | None] = []
        self._n_llm = 0
        self._n_shared = 0

    def _view(
        self,
        prediction: bool | str | None,
        source: str,
        batch_seq: int | None,
        quarantine_reason: str | None,
    ) -> int:
        self._predictions.append(prediction)
        self._sources.append(source)
        self._seqs.append(batch_seq)
        self._reasons.append(quarantine_reason)
        return len(self._sources) - 1

    def cache_view(
        self, prediction: bool | str | None, quarantine_reason: str | None
    ) -> int:
        """A new view of a cached answer; rows name it by the returned id."""
        return self._view(prediction, "cache", None, quarantine_reason)

    def log_flushed(
        self,
        waiters: Sequence[ServeRequest],
        prediction: bool | str | None,
        flushed_s: float,
        finished_s: float,
        batch_seq: int,
        quarantine_reason: str | None,
    ) -> None:
        """Log every request waiting on one flushed answer.

        The first waiter rode the completion call (``llm``); the rest
        share its answer.  Each completes at ``max(arrival, finished_s)``.
        """
        tenant_id = self.tenant_id
        view = self._view(prediction, "llm", batch_seq, quarantine_reason)
        self._flushes[view] = flushed_s
        for position, waiter in enumerate(waiters):
            if position == 1:
                view = self._view(
                    prediction, "shared", batch_seq, quarantine_reason
                )
                self._flushes[view] = flushed_s
            self.request_ids.append(waiter.request_id)
            self.tenant_ids.append(tenant_id[waiter.tenant])
            self.arrivals.append(waiter.arrival_s)
            self.completions.append(max(waiter.arrival_s, finished_s))
            self.view_ids.append(view)
        self._n_llm += 1
        self._n_shared += len(waiters) - 1

    # -- reading --------------------------------------------------------

    def source_counts(self) -> dict[str, int]:
        """Rows per answer source; no row is walked."""
        return {
            "llm": self._n_llm,
            "shared": self._n_shared,
            "cache": len(self) - self._n_llm - self._n_shared,
        }

    def _fields(self, order: Iterable[int] | None = None) -> tuple:
        """One iterable per ``ServeResponse`` field, over every row in log
        order or over the rows at ``order``."""
        ids, tenants, arrivals, completions, views = (
            self.request_ids, self.tenant_ids, self.arrivals,
            self.completions, self.view_ids,
        )
        if order is not None:
            order = list(order)
            ids = map(ids.__getitem__, order)
            tenants = map(tenants.__getitem__, order)
            completions = map(completions.__getitem__, order)
            # These two are read by more than one field.
            arrivals = array("d", map(arrivals.__getitem__, order))
            views = array("I", map(views.__getitem__, order))
        return (
            ids,
            map(self.tenants.__getitem__, tenants),
            arrivals,
            map(self._predictions.__getitem__, views),
            map(self._sources.__getitem__, views),
            map(self._flushes.get, views, arrivals),
            completions,
            map(self._seqs.__getitem__, views),
            map(self._reasons.__getitem__, views),
        )

    def __len__(self) -> int:
        return len(self.request_ids)

    def __iter__(self) -> Iterator[ServeResponse]:
        return map(_new_row, repeat(ServeResponse), zip(*self._fields()))

    @overload
    def __getitem__(self, index: int) -> ServeResponse: ...

    @overload
    def __getitem__(self, index: slice) -> list[ServeResponse]: ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(
                _new_row, repeat(ServeResponse),
                zip(*self._fields(range(*index.indices(len(self))))),
            ))
        view = self.view_ids[index]
        arrival = self.arrivals[index]
        return ServeResponse(
            self.request_ids[index],
            self.tenants[self.tenant_ids[index]],
            arrival,
            self._predictions[view],
            self._sources[view],
            self._flushes.get(view, arrival),
            self.completions[index],
            self._seqs[view],
            self._reasons[view],
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (ServeLog, list)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"<ServeLog of {len(self)} response(s)>"

    def dicts_by_request_id(self) -> list[dict]:
        """Every row as its ``ServeResponse._asdict()``, in request-id
        order (log order among equal ids)."""
        order = sorted(range(len(self)), key=self.request_ids.__getitem__)
        return [
            {
                "request_id": request_id,
                "tenant": tenant,
                "arrival_s": arrival_s,
                "prediction": prediction,
                "source": source,
                "flushed_s": flushed_s,
                "completed_s": completed_s,
                "batch_seq": batch_seq,
                "quarantine_reason": quarantine_reason,
            }
            for (
                request_id, tenant, arrival_s, prediction, source, flushed_s,
                completed_s, batch_seq, quarantine_reason,
            ) in zip(*self._fields(order))
        ]

    def sorted_latencies(self) -> list[float]:
        """Every row's ``completed_s - arrival_s``, ascending."""
        return sorted(map(sub, self.completions, self.arrivals))


@dataclass(frozen=True)
class RejectedRequest:
    """One refused request, with a typed reason from :data:`REJECT_REASONS`."""

    request_id: int
    tenant: str
    arrival_s: float
    reason: str
    detail: str = ""
