"""The batch-coalescing scheduler.

Single-instance requests from many tenants are coalesced into batched
prompts so the instruction/few-shot overhead amortizes online exactly as
the paper's Table 3 shows it does offline.  One :class:`PendingEntry` is
one *unique question* (duplicate requests attach to the existing entry as
waiters); entries group by target attribute — the unit a prompt can
legally batch — and a group flushes when

- **full** (``eager`` mode): it reaches ``max_batch`` entries, flushing
  at the arrival that filled it, or
- **deadline** (both modes): the *oldest* entry's ``arrival + max_wait``
  passes, flushing the whole group at that deadline.

Every decision reads only arrival-clock times, never execution finish
times, so the flush sequence — and with it batch composition, predictions
and all metrics counts — is bit-identical at any executor concurrency.
Ties break on the first waiter's ``request_id`` (globally monotone), so
replays are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.instances import Instance
from repro.errors import ServingError
from repro.serving.request import ServeRequest

#: flush triggers, as recorded on :class:`Flush` and in the metrics
FLUSH_REASONS: tuple[str, ...] = ("full", "deadline")


@dataclass(frozen=True)
class CoalescePolicy:
    """How long a question may wait and how large a batch may grow.

    ``mode`` selects what happens between arrival and deadline:
    ``"eager"`` flushes a group the moment it holds ``max_batch``
    questions (lowest latency); ``"window"`` holds the group until the
    oldest deadline and then partitions *everything* gathered through
    :func:`~repro.core.batching.make_batches` — the paper's cluster
    batching applied to the live window (highest homogeneity).
    """

    max_batch: int = 8
    max_wait_s: float = 2.0
    mode: str = "window"

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ServingError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.max_wait_s < 0:
            raise ServingError(
                f"max_wait_s cannot be negative, got {self.max_wait_s}"
            )
        if self.mode not in ("eager", "window"):
            raise ServingError(
                f"unknown coalesce mode {self.mode!r}; "
                f"expected 'eager' or 'window'"
            )


@dataclass
class PendingEntry:
    """One unique in-flight question and every request waiting on it."""

    key: str
    instance: Instance
    target: str | None
    arrival_s: float
    deadline_s: float
    waiters: list[ServeRequest] = field(default_factory=list)

    @property
    def tie_break(self) -> int:
        return self.waiters[0].request_id if self.waiters else -1


@dataclass(frozen=True)
class Flush:
    """One released group: execute these entries no earlier than ``at``."""

    at: float
    reason: str
    target: str | None
    entries: tuple[PendingEntry, ...]


class BatchCoalescer:
    """Accumulates pending entries per target group and decides flushes.

    Drive it with nondecreasing arrival times: call :meth:`due` before
    admitting each arrival, :meth:`add` for each new unique question, and
    :meth:`drain` once the trace ends.  The coalescer never executes
    anything — it only hands back :class:`Flush` records in a
    deterministic order.

    A group's head never changes until the group flushes whole, so the
    earliest head deadline is a watermark that moves only when a group
    starts or flushes: :meth:`due` below it returns at once, which makes
    the common arrival (nothing ripe) O(1) whatever the number of groups.
    """

    def __init__(self, policy: CoalescePolicy):
        self._policy = policy
        self._groups: dict[str | None, list[PendingEntry]] = {}
        self._n_pending = 0
        #: earliest group-head deadline; ``inf`` when nothing is pending
        self._next_deadline = float("inf")

    @property
    def policy(self) -> CoalescePolicy:
        return self._policy

    @property
    def n_pending(self) -> int:
        """Unique questions currently waiting."""
        return self._n_pending

    def backlog_age_s(self, now: float) -> float:
        """Age of the oldest pending question at ``now`` (0.0 when idle).

        The serving layer's queue-pressure signal: under a healthy
        backend the coalescer drains every group by its deadline, so a
        backlog growing past the max wait means execution is falling
        behind arrivals — the symptom of sustained degradation.
        """
        oldest = min(
            (group[0].arrival_s for group in self._groups.values() if group),
            default=None,
        )
        return 0.0 if oldest is None else max(0.0, now - oldest)

    def add(self, entry: PendingEntry) -> Flush | None:
        """Queue a new unique question; eager mode may flush its group."""
        group = self._groups.get(entry.target)
        if group is None:
            group = self._groups[entry.target] = []
            self._next_deadline = min(self._next_deadline, entry.deadline_s)
        group.append(entry)
        self._n_pending += 1
        if (
            self._policy.mode == "eager"
            and len(group) >= self._policy.max_batch
        ):
            return self._flush_group(
                entry.target, at=entry.arrival_s, reason="full"
            )
        return None

    def due(self, now: float) -> list[Flush]:
        """Every group whose oldest deadline has passed by ``now``.

        A group flushes *whole* at its oldest entry's deadline, so no
        entry ever waits past its own ``max_wait`` on the arrival clock —
        the starvation bound a high-rate tenant cannot break.
        """
        if now < self._next_deadline:
            return []
        ripe = [
            (group[0].deadline_s, group[0].tie_break, target)
            for target, group in self._groups.items()
            if group and group[0].deadline_s <= now
        ]
        ripe.sort()
        return [
            self._flush_group(target, at=deadline, reason="deadline")
            for deadline, __, target in ripe
        ]

    def drain(self) -> list[Flush]:
        """Flush everything still pending (the trace is over).

        Remaining groups release at their oldest deadline — virtual time
        runs past every deadline once arrivals stop — in deadline order,
        so a drained trace is indistinguishable from one followed by a
        long quiet period.
        """
        flushes: list[Flush] = []
        while any(self._groups.values()):
            ripe = [
                (group[0].deadline_s, group[0].tie_break, target)
                for target, group in self._groups.items()
                if group
            ]
            deadline, __, target = min(ripe)
            flushes.append(
                self._flush_group(target, at=deadline, reason="deadline")
            )
        return flushes

    def _flush_group(
        self, target: str | None, at: float, reason: str
    ) -> Flush:
        entries = tuple(self._groups.pop(target, ()))
        if not entries:
            raise ServingError(
                f"flush of empty group {target!r}"
            )  # pragma: no cover - internal invariant
        self._n_pending -= len(entries)
        self._next_deadline = min(
            (group[0].deadline_s for group in self._groups.values()),
            default=float("inf"),
        )
        return Flush(at=at, reason=reason, target=target, entries=entries)
