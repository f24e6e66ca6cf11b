"""Checkpoint sessions: the pipeline's handle on a run journal.

A :class:`CheckpointSession` is what ``Preprocessor.run(checkpoint=...)``
opens around a run:

- **fresh run** — writes the sealed header and then appends one
  :class:`~repro.runtime.journal.BatchRecord` after every completed batch
  (fsync'd, so a kill between batches loses nothing);
- **resume** — recovers the journal's valid prefix (the first append
  cuts any torn tail a crash left), refuses with a structured context
  diff when the header fingerprint does not match the resuming run, and
  hands the pipeline the journaled records to replay.

The state captured per record is *cumulative* — executor lanes/RNG/rate
window, client call counters, run stats, metrics, tracer id counter — so
resume restores from the **last** record alone, while the per-record
predictions, quarantine entries, spans, and raw exchanges replay from
every record in order.  Nothing here imports the pipeline: the session
works on duck-typed stats/executor/client/observation objects, keeping
the dependency arrow pointing from ``core`` to ``runtime``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.errors import LLMError
from repro.llm.backend import Checkpointable
from repro.runtime.journal import (
    BatchRecord,
    JournalError,
    JournalHeader,
    RunJournal,
    open_journal,
)


@dataclass(frozen=True)
class JournalChaos:
    """A scripted kill inside the journaling machinery itself.

    ``site`` is ``"pre_journal"`` (die after the batch completed, before
    its record hits the disk) or ``"mid_journal"`` (die halfway through
    the fsync'd append, leaving a torn tail line); ``at_seq`` is the
    0-based batch sequence the kill targets.
    """

    site: str
    at_seq: int

    def __post_init__(self) -> None:
        if self.site not in ("pre_journal", "mid_journal"):
            raise ValueError(
                f"unknown journal chaos site {self.site!r}; expected "
                f"'pre_journal' or 'mid_journal'"
            )


@dataclass(frozen=True)
class RunCheckpoint:
    """Where (and how) one run journals itself.

    ``path`` is the journal file — created when absent, resumed when
    present.  ``chaos`` is the failure-drill hook; production runs leave
    it ``None``.
    """

    path: str | Path
    chaos: JournalChaos | None = None


def capture_client_state(client: object) -> dict | None:
    """The client's mutable state, when it opts into the resume contract.

    Clients declare resumability by satisfying the
    :class:`~repro.llm.backend.Checkpointable` protocol — both
    ``checkpoint_state`` and ``restore_checkpoint_state`` — rather than by
    being on a known-class list.  A client with neither journals ``None``
    state and replays statelessly; a client with only one half of the
    contract is ignored the same way (captured state that could never be
    restored would corrupt a resume silently).
    """
    if isinstance(client, Checkpointable):
        return client.checkpoint_state()
    return None


def restore_client_state(
    client: object, state: dict | None, path: str | Path
) -> None:
    """Put journaled client state back into ``client``.

    A client that refuses the state (it was journaled under another
    client seed) fails the resume with a :class:`JournalError` naming the
    journal at ``path``.
    """
    if state is None or not isinstance(client, Checkpointable):
        return
    try:
        client.restore_checkpoint_state(state)
    except LLMError as error:
        raise JournalError(f"cannot resume: {error}", path=path) from None


class CheckpointSession:
    """One run's open journal plus the replayable prefix it started from.

    ``records`` is that prefix and nothing more: a batch journaled during
    this run is on disk, so the session does not hold it in memory too.
    """

    def __init__(
        self,
        journal: RunJournal,
        header: JournalHeader,
        records: list[BatchRecord],
        chaos: JournalChaos | None = None,
    ):
        self._journal = journal
        self.header = header
        self.records = records
        self._chaos = chaos

    @property
    def path(self) -> Path:
        return self._journal.path

    @classmethod
    def open(
        cls, checkpoint: RunCheckpoint, context: dict
    ) -> "CheckpointSession":
        """Create or resume the journal at ``checkpoint.path``
        (see :func:`~repro.runtime.journal.open_journal`)."""
        journal, header, records = open_journal(checkpoint.path, context)
        return cls(journal, header, records, chaos=checkpoint.chaos)

    # -- per-batch bookkeeping -------------------------------------------

    def mark(self, stats: object, obs: object | None) -> dict:
        """Watermark the mutable accumulators before one batch runs."""
        return {
            "prompt_tokens": stats.usage.prompt_tokens,
            "completion_tokens": stats.usage.completion_tokens,
            "n_requests": stats.n_requests,
            "n_retries": stats.n_retries,
            "n_fallbacks": stats.n_fallbacks,
            "n_exchanges": len(stats.exchanges),
            "n_spans": obs.tracer.n_spans if obs is not None else 0,
        }

    def append_batch(
        self,
        *,
        seq: int,
        key: str,
        predictions: list,
        quarantine: list[dict],
        watermark: dict,
        stats: object,
        executor: object,
        client: object,
        obs: object | None,
    ) -> BatchRecord:
        """Journal one completed batch (durably) and return its record."""
        usage = stats.usage
        cost = {
            "prompt_tokens": usage.prompt_tokens - watermark["prompt_tokens"],
            "completion_tokens": (
                usage.completion_tokens - watermark["completion_tokens"]
            ),
            "n_requests": stats.n_requests - watermark["n_requests"],
        }
        outcome = {
            "n_format_retries": stats.n_retries - watermark["n_retries"],
            "n_fallbacks": stats.n_fallbacks - watermark["n_fallbacks"],
            "n_quarantined": len(quarantine),
        }
        clock = {"makespan_s": executor.clock.makespan}
        spans = []
        raw = []
        if obs is not None:
            spans = [
                span.to_dict()
                for span in obs.tracer.spans[watermark["n_spans"]:]
            ]
        if stats.keep_raw:
            raw = [
                ex.payload()
                for ex in stats.exchanges[watermark["n_exchanges"]:]
            ]
        state = {
            "executor": executor.checkpoint_state(),
            "client": capture_client_state(client),
            "stats": {
                "prompt_tokens": usage.prompt_tokens,
                "completion_tokens": usage.completion_tokens,
                "n_requests": stats.n_requests,
                "n_retries": stats.n_retries,
                "n_fallbacks": stats.n_fallbacks,
            },
            "obs": (
                {
                    "next_id": obs.tracer.n_spans + 1,
                    "metrics": obs.metrics.snapshot(),
                }
                if obs is not None
                else None
            ),
        }
        record = BatchRecord(
            seq=seq,
            key=key,
            predictions=predictions,
            quarantine=quarantine,
            outcome=outcome,
            cost=cost,
            clock=clock,
            spans=spans,
            raw=raw,
            state=state,
        )
        crash = None
        if self._chaos is not None and self._chaos.at_seq == seq:
            crash = self._chaos.site
        self._journal.append(record, crash=crash)
        return record

    def close(self) -> None:
        self._journal.close()
