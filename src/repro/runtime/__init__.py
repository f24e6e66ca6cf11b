"""Run durability: crash-safe journaling, resume, and chaos drills.

A long preprocessing run issues hundreds of completion calls; this package
makes such runs *restartable*:

- :mod:`repro.runtime.journal` — a write-ahead journal of completed
  batches: one fsync'd JSON line per batch, sealed to the run's
  configuration fingerprint, each line sealed by a digest of its exact
  bytes so any corruption is detected and everything before it remains
  recoverable;
- :mod:`repro.runtime.checkpoint` — the checkpoint session the pipeline
  threads through a run: opens/resumes a journal, verifies fingerprints,
  captures and restores the full mutable state (executor lanes, RNG,
  rate-limit window, client call counter, metrics, spans) so a resumed
  run is bit-identical to an uninterrupted one;
- :mod:`repro.runtime.chaos` — crash-point injection (mid-batch,
  pre-journal, mid-journal-append) and the crash→resume trial driver the
  determinism property suite and the CI chaos matrix run on.
"""

from repro.runtime.chaos import (
    CRASH_SITES,
    ChaosCell,
    ChaosTrial,
    JournalChaos,
    default_chaos_cells,
    result_payload,
    run_crash_matrix,
    run_crash_trial,
)
from repro.runtime.checkpoint import CheckpointSession, RunCheckpoint
from repro.runtime.journal import (
    JOURNAL_VERSION,
    BatchRecord,
    JournalError,
    JournalHeader,
    ResumeMismatchError,
    RunJournal,
    run_fingerprint,
)

__all__ = [
    "JOURNAL_VERSION",
    "BatchRecord",
    "ChaosCell",
    "ChaosTrial",
    "CheckpointSession",
    "CRASH_SITES",
    "JournalChaos",
    "JournalError",
    "JournalHeader",
    "ResumeMismatchError",
    "RunCheckpoint",
    "RunJournal",
    "default_chaos_cells",
    "result_payload",
    "run_crash_matrix",
    "run_crash_trial",
    "run_fingerprint",
]
