"""The write-ahead run journal: one fsync'd record per completed batch.

Format — a plain-text file of newline-terminated JSON lines:

- line 1 is the **sealed header**: journal version plus the run
  *fingerprint* (a digest over the full run context — pipeline and
  executor configuration, model profile, dataset identity and content
  digest, client class) and the context itself, so a journal can never be
  replayed into a run it does not describe;
- every following line is one **batch record**: the batch key, the
  predictions and quarantine entries it produced, its cost/clock deltas,
  the raw exchanges (when kept), the spans it traced, and a cumulative
  *state blob* (executor, client, stats, observability) that lets resume
  restore the run mid-flight.

Each line is its payload encoded once (sorted keys, compact separators,
ASCII only) and sealed: it opens with a ``check`` field, the first 16 hex
digits of the sha256 of exactly those payload bytes, so the seal sits at a
fixed position (``{"check":"<16 hex>",`` and then the payload after its
opening brace) and the line is still one JSON object.  Reading checks the
seal against the raw bytes of the line and re-encodes nothing, so any
changed byte fails it, even one that parses back to the same value
(``\\u00e9`` rewritten as ``\\u00E9``).  Records carry a strictly
increasing ``seq``.  Appends are atomic at the line level and fsync'd, so
after a crash the file is a valid prefix plus at most one torn tail line.

The header's ``journal_version`` is read before its seal, so a journal
written in another format version is refused as such (``unsupported
journal version 2 (this build reads 3)``) rather than reported as
corrupted; no older version is readable.  Version 3 stores the
executor's jitter generator as the number of draws taken since it was
seeded (version 2 stored its whole Mersenne-Twister state).

Corruption handling is *typed and recoverable*: a truncated tail, a
flipped byte, a duplicated record, or an out-of-order record each raise
:class:`JournalError` naming the line and reason, while the error object
carries every valid record before the damage — resume uses that prefix
and its first append cuts the tail, so completed work survives even a
corrupted journal, and a refused resume leaves the file as it found it.
A header whose fingerprint does not match the run being resumed raises
:class:`ResumeMismatchError` with a structured path-level diff of the two
contexts.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError
from repro.obs.manifest import canonical_json, diff_payloads

JOURNAL_VERSION = 3

#: a sealed line opens with ``{"check":"<16 hex>",``; the payload bytes the
#: seal covers are ``{`` plus everything after that prefix
_SEAL_OPEN = b'{"check":"'
_SEAL_HEX = 16
_SEAL_END = len(_SEAL_OPEN) + _SEAL_HEX
_BODY_START = _SEAL_END + len(b'",')


class JournalError(ReproError):
    """A journal is damaged; everything before the damage is recoverable.

    ``header`` and ``records`` hold the valid prefix (``header`` is
    ``None`` when the header line itself is unreadable), ``line_no`` is
    the 1-based line of the first damage, and ``recovered_bytes`` is the
    byte length of the valid prefix — truncating the file to it yields a
    clean journal again.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | Path | None = None,
        line_no: int | None = None,
        header: "JournalHeader | None" = None,
        records: "list[BatchRecord] | None" = None,
        recovered_bytes: int = 0,
    ):
        self.path = Path(path) if path is not None else None
        self.line_no = line_no
        self.header = header
        self.records = list(records or [])
        self.recovered_bytes = recovered_bytes
        location = ""
        if path is not None:
            location = f" in {path}"
            if line_no is not None:
                location += f" at line {line_no}"
        recoverable = (
            f" ({len(self.records)} valid record(s) recoverable)"
            if records is not None
            else ""
        )
        super().__init__(f"{message}{location}{recoverable}")


class ResumeMismatchError(JournalError):
    """A journal belongs to a different run than the one resuming from it.

    ``diff`` lists the divergent context paths, one ``path: journal !=
    current`` line each (``<absent>`` for a side that lacks the path), so
    the operator sees exactly which knob changed.
    """

    def __init__(self, path: str | Path, journaled: dict, current: dict):
        self.diff = [
            f"{diff.path}: "
            f"{'<absent>' if diff.kind == 'added' else repr(diff.expected)}"
            f" != "
            f"{'<absent>' if diff.kind == 'missing' else repr(diff.actual)}"
            for diff in diff_payloads(journaled, current)
        ] or ["$.fingerprint: differs"]
        shown = "\n  ".join(self.diff[:12])
        more = "" if len(self.diff) <= 12 else f"\n  … {len(self.diff) - 12} more"
        super().__init__(
            f"cannot resume: journal fingerprint does not match this run; "
            f"divergent context:\n  {shown}{more}",
            path=path,
        )


def _seal(body: bytes) -> bytes:
    return hashlib.sha256(body).hexdigest()[:_SEAL_HEX].encode("ascii")


def _dump_line(payload: dict) -> bytes:
    """One sealed, newline-terminated journal line."""
    body = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")
    return _SEAL_OPEN + _seal(body) + b'",' + body[1:] + b"\n"


def _seal_holds(line: bytes) -> bool:
    """Whether ``line`` (sans newline) carries the seal of its own bytes."""
    return (
        line.startswith(_SEAL_OPEN)
        and line[_SEAL_END:_BODY_START] == b'",'
        and line[len(_SEAL_OPEN):_SEAL_END]
        == _seal(b"{" + line[_BODY_START:])
    )


def run_fingerprint(context: dict) -> str:
    """The run fingerprint a journal header is sealed to.

    A digest over the canonical JSON of the full run context; any change —
    one config field, one instance of the dataset, a different client
    class — yields a different fingerprint and resume refuses.
    """
    return hashlib.sha256(canonical_json(context).encode("utf-8")).hexdigest()[:32]


@dataclass(frozen=True)
class JournalHeader:
    """The sealed first line binding a journal to one exact run."""

    fingerprint: str
    context: dict
    journal_version: int = JOURNAL_VERSION

    def to_payload(self) -> dict:
        return {
            "kind": "header",
            "journal_version": self.journal_version,
            "fingerprint": self.fingerprint,
            "context": self.context,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "JournalHeader":
        return cls(
            fingerprint=payload["fingerprint"],
            context=payload.get("context", {}),
            journal_version=payload["journal_version"],
        )


@dataclass(frozen=True)
class BatchRecord:
    """One completed batch, as journaled.

    ``predictions`` aligns with the batch unit's instance indices;
    ``quarantine`` holds this batch's quarantined instances (global index,
    typed reason, detail); ``cost`` and ``clock`` are the human-auditable
    deltas; ``spans`` are the trace spans this batch created; ``raw``
    carries the kept exchanges (``keep_raw`` runs only); ``state`` is the
    cumulative run state after this batch — the part resume restores.
    """

    seq: int
    key: str
    predictions: list
    quarantine: list = field(default_factory=list)
    outcome: dict = field(default_factory=dict)
    cost: dict = field(default_factory=dict)
    clock: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    raw: list = field(default_factory=list)
    state: dict = field(default_factory=dict)

    def to_payload(self) -> dict:
        return {
            "kind": "batch",
            "seq": self.seq,
            "key": self.key,
            "predictions": self.predictions,
            "quarantine": self.quarantine,
            "outcome": self.outcome,
            "cost": self.cost,
            "clock": self.clock,
            "spans": self.spans,
            "raw": self.raw,
            "state": self.state,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "BatchRecord":
        return cls(
            seq=payload["seq"],
            key=payload["key"],
            predictions=payload["predictions"],
            quarantine=payload.get("quarantine", []),
            outcome=payload.get("outcome", {}),
            cost=payload.get("cost", {}),
            clock=payload.get("clock", {}),
            spans=payload.get("spans", []),
            raw=payload.get("raw", []),
            state=payload.get("state", {}),
        )


class RunJournal:
    """Appends and reads one run's write-ahead journal file."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._handle = None
        #: where a reopened journal's valid prefix ends; the first append
        #: cuts any torn tail there
        self._valid_bytes: int | None = None

    # -- writing ----------------------------------------------------------

    def create(self, header: JournalHeader) -> None:
        """Start a fresh journal with a sealed header (truncates)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "wb")
        self._write(_dump_line(header.to_payload()))

    def reopen(self, valid_bytes: int) -> None:
        """Reopen an existing journal for appending after ``valid_bytes``.

        A torn tail past ``valid_bytes`` is cut by the first append, not
        here: a resume the caller refuses after reopening (say, a client
        that cannot take the journaled state) leaves the file untouched.
        """
        self._handle = open(self.path, "r+b")
        self._handle.seek(valid_bytes)
        self._valid_bytes = valid_bytes

    def append(self, record: BatchRecord, crash: str | None = None) -> None:
        """Durably append one batch record.

        ``crash`` is the chaos hook: ``"pre_journal"`` simulates a kill
        after the batch completed but before anything was written;
        ``"mid_journal"`` writes a torn half-line (fsync'd, so the damage
        is really on disk) before dying.
        """
        if self._handle is None:
            raise JournalError("journal is not open for writing", path=self.path)
        if self._valid_bytes is not None:
            self._handle.truncate(self._valid_bytes)
            self._valid_bytes = None
        from repro.errors import InjectedCrashError

        if crash == "pre_journal":
            raise InjectedCrashError("pre_journal", f"batch seq={record.seq}")
        line = _dump_line(record.to_payload())
        if crash == "mid_journal":
            self._write(line[: max(1, len(line) // 2)])
            raise InjectedCrashError("mid_journal", f"batch seq={record.seq}")
        self._write(line)

    def _write(self, data: bytes) -> None:
        self._handle.write(data)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- reading ----------------------------------------------------------

    @classmethod
    def load(cls, path: str | Path) -> tuple[JournalHeader, "list[BatchRecord]"]:
        """Read a journal strictly; raise :class:`JournalError` on damage.

        The raised error carries the valid prefix (header + records before
        the damage) and the byte length of that prefix, so callers can
        recover completed work from a journal the crash tore.
        """
        source = Path(path)
        try:
            blob = source.read_bytes()
        except FileNotFoundError as exc:
            raise JournalError("journal not found", path=source) from exc
        if not blob:
            raise JournalError("journal is empty", path=source)

        header: JournalHeader | None = None
        records: list[BatchRecord] = []
        offset = 0
        line_no = 0
        seen_keys: set[str] = set()

        def damaged(message: str) -> JournalError:
            return JournalError(
                message,
                path=source,
                line_no=line_no,
                header=header,
                records=records,
                recovered_bytes=offset,
            )

        while offset < len(blob):
            newline = blob.find(b"\n", offset)
            line_no += 1
            if newline < 0:
                raise damaged("truncated tail line (no trailing newline)")
            raw_line = blob[offset:newline]
            try:
                payload = json.loads(raw_line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                raise damaged("record is not valid JSON") from None
            if not isinstance(payload, dict):
                raise damaged("record is not a JSON object")
            kind = payload.get("kind")
            if header is None:
                if kind != "header":
                    raise damaged("first line is not a journal header")
                # Checked before the seal, which another format version
                # computes differently: an old journal is refused as old,
                # not reported as corrupted.
                if payload.get("journal_version") != JOURNAL_VERSION:
                    raise damaged(
                        f"unsupported journal version "
                        f"{payload.get('journal_version')!r} "
                        f"(this build reads {JOURNAL_VERSION})"
                    )
            if not _seal_holds(raw_line):
                raise damaged("record checksum mismatch (corrupted bytes)")
            if header is None:
                header = JournalHeader.from_payload(payload)
            else:
                if kind != "batch":
                    raise damaged(f"unexpected record kind {kind!r}")
                record = BatchRecord.from_payload(payload)
                if record.key in seen_keys:
                    raise damaged(
                        f"duplicated batch record (key {record.key!r})"
                    )
                if record.seq != len(records):
                    raise damaged(
                        f"out-of-order batch record "
                        f"(seq {record.seq}, expected {len(records)})"
                    )
                seen_keys.add(record.key)
                records.append(record)
            offset = newline + 1

        assert header is not None  # the empty case returned above
        return header, records

    @classmethod
    def recover(
        cls, path: str | Path
    ) -> tuple[JournalHeader, "list[BatchRecord]", JournalError | None]:
        """Read a journal, salvaging the valid prefix of a damaged one.

        Returns ``(header, records, error)`` where ``error`` is the
        :class:`JournalError` that strict loading raised (``None`` for a
        clean journal).  A journal whose *header* is unreadable cannot be
        recovered at all and re-raises.
        """
        try:
            header, records = cls.load(path)
            return header, records, None
        except JournalError as error:
            if error.header is None:
                raise
            return error.header, error.records, error


def open_journal(
    path: str | Path, context: dict
) -> tuple[RunJournal, JournalHeader, list[BatchRecord]]:
    """Create the journal at ``path`` for ``context``, or resume it.

    A missing or empty file gets a sealed header for ``context``.  An
    existing journal is recovered — the valid prefix is kept, and a torn
    tail is cut by the first append — and its fingerprint must match
    ``context``'s, else :class:`ResumeMismatchError` reports the divergent
    paths.  Opening never changes the file.  Returns the journal open for
    appending, its header, and the replayable records.
    """
    path = Path(path)
    fingerprint = run_fingerprint(context)
    journal = RunJournal(path)
    if not path.exists() or path.stat().st_size == 0:
        header = JournalHeader(fingerprint=fingerprint, context=context)
        journal.create(header)
        return journal, header, []
    header, records, error = RunJournal.recover(path)
    if header.fingerprint != fingerprint:
        raise ResumeMismatchError(path, header.context, context)
    valid_bytes = (
        error.recovered_bytes if error is not None else path.stat().st_size
    )
    journal.reopen(valid_bytes)
    return journal, header, records
