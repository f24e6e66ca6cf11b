"""The write-ahead journal: durability format, corruption taxonomy.

Every way a crash (or a disk) can damage a journal — a torn tail line, a
flipped byte, a duplicated record, a wrong-run header — must surface as a
*typed* :class:`~repro.runtime.journal.JournalError` that still carries
every valid record before the damage, because resume rebuilds from that
prefix.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.runtime.journal import (
    JOURNAL_VERSION,
    BatchRecord,
    JournalError,
    JournalHeader,
    ResumeMismatchError,
    RunJournal,
    run_fingerprint,
)


#: a header line exactly as journal format version 1 wrote it
V1_HEADER_LINE = (
    b'{"check":"20784690b7ea0fe3","context":{"dataset":{"digest":"abc123",'
    b'"name":"adult"},"pipeline_config":{"model":"gpt-3.5","seed":0}},'
    b'"fingerprint":"7e23ca19441c42b93a810078d36c17ab","journal_version":1,'
    b'"kind":"header"}\n'
)

#: a header line exactly as journal format version 2 wrote it
V2_HEADER_LINE = (
    b'{"check":"64d5583a2da74b9e","context":{"dataset":{"digest":"abc123",'
    b'"name":"adult"},"pipeline_config":{"model":"gpt-3.5","seed":0}},'
    b'"fingerprint":"7e23ca19441c42b93a810078d36c17ab","journal_version":2,'
    b'"kind":"header"}\n'
)


def _context(**overrides):
    base = {
        "pipeline_config": {"model": "gpt-3.5", "seed": 0},
        "dataset": {"name": "adult", "digest": "abc123"},
    }
    base.update(overrides)
    return base


def _record(seq):
    return BatchRecord(
        seq=seq,
        key=f"key-{seq}",
        predictions=[True, False],
        quarantine=[],
        outcome={"n_fallbacks": 0},
        cost={"prompt_tokens": 100 + seq},
        clock={"makespan_s": float(seq)},
        state={"stats": {"n_requests": seq + 1}},
    )


def _write_journal(path, n_records=3):
    context = _context()
    journal = RunJournal(path)
    journal.create(JournalHeader(
        fingerprint=run_fingerprint(context), context=context,
    ))
    for seq in range(n_records):
        journal.append(_record(seq))
    journal.close()
    return context


class TestRoundTrip:
    def test_load_returns_what_was_appended(self, tmp_path):
        path = tmp_path / "run.journal"
        context = _write_journal(path)
        header, records = RunJournal.load(path)
        assert header.fingerprint == run_fingerprint(context)
        assert header.context == context
        assert header.journal_version == JOURNAL_VERSION
        assert [r.seq for r in records] == [0, 1, 2]
        assert records[1].predictions == [True, False]
        assert records[2].state == {"stats": {"n_requests": 3}}

    def test_every_line_ends_with_newline_and_checksum(self, tmp_path):
        path = tmp_path / "run.journal"
        _write_journal(path)
        blob = path.read_bytes()
        assert blob.endswith(b"\n")
        for line in blob.splitlines():
            payload = json.loads(line)
            assert "check" in payload

    def test_fingerprint_changes_with_any_context_field(self):
        base = run_fingerprint(_context())
        assert run_fingerprint(_context(extra=1)) != base
        changed = _context()
        changed["pipeline_config"]["seed"] = 1
        assert run_fingerprint(changed) != base

    def test_context_diff_names_divergent_paths(self):
        diff = ResumeMismatchError(
            "run.journal",
            {"a": 1, "b": {"c": [1, 2]}},
            {"a": 2, "b": {"c": [1, 3]}, "d": True},
        ).diff
        assert "$.a: 1 != 2" in diff
        assert "$.b.c[1]: 2 != 3" in diff
        assert any(line.startswith("$.d:") for line in diff)
        assert "$.d: <absent> != True" in diff


class TestCorruption:
    """Satellite: each damage mode yields a typed, recoverable error."""

    def test_truncated_last_line(self, tmp_path):
        path = tmp_path / "run.journal"
        _write_journal(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])  # tear the tail mid-line
        with pytest.raises(JournalError) as excinfo:
            RunJournal.load(path)
        error = excinfo.value
        assert "truncated" in str(error) or "not valid JSON" in str(error)
        assert [r.seq for r in error.records] == [0, 1]
        assert "2 valid record(s) recoverable" in str(error)
        # truncating to recovered_bytes yields a clean journal again
        path.write_bytes(blob[: error.recovered_bytes])
        __, records = RunJournal.load(path)
        assert [r.seq for r in records] == [0, 1]

    def test_flipped_byte_fails_checksum(self, tmp_path):
        path = tmp_path / "run.journal"
        _write_journal(path)
        lines = path.read_bytes().splitlines(keepends=True)
        # flip one byte inside the middle record's payload
        target = bytearray(lines[2])
        pivot = target.find(b"predictions")
        target[pivot] ^= 0x01
        lines[2] = bytes(target)
        path.write_bytes(b"".join(lines))
        with pytest.raises(JournalError) as excinfo:
            RunJournal.load(path)
        error = excinfo.value
        assert "checksum" in str(error) or "not valid JSON" in str(error)
        assert [r.seq for r in error.records] == [0]
        assert error.line_no == 3

    def test_duplicated_record(self, tmp_path):
        path = tmp_path / "run.journal"
        _write_journal(path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines) + lines[-1])  # re-append last line
        with pytest.raises(JournalError) as excinfo:
            RunJournal.load(path)
        assert "duplicated" in str(excinfo.value)
        assert [r.seq for r in excinfo.value.records] == [0, 1, 2]

    def test_out_of_order_record(self, tmp_path):
        path = tmp_path / "run.journal"
        context = _context()
        journal = RunJournal(path)
        journal.create(JournalHeader(
            fingerprint=run_fingerprint(context), context=context,
        ))
        journal.append(_record(0))
        journal.append(_record(2))  # seq 1 skipped
        journal.close()
        with pytest.raises(JournalError) as excinfo:
            RunJournal.load(path)
        assert "out-of-order" in str(excinfo.value)
        assert [r.seq for r in excinfo.value.records] == [0]

    def test_unsupported_version_header(self, tmp_path):
        path = tmp_path / "run.journal"
        context = _context()
        journal = RunJournal(path)
        journal.create(JournalHeader(
            fingerprint=run_fingerprint(context),
            context=context,
            journal_version=JOURNAL_VERSION + 1,
        ))
        journal.close()
        with pytest.raises(JournalError) as excinfo:
            RunJournal.load(path)
        assert "version" in str(excinfo.value)
        assert excinfo.value.records == []

    def test_version_1_journal_is_refused_as_old_not_corrupt(self, tmp_path):
        path = tmp_path / "v1.journal"
        path.write_bytes(V1_HEADER_LINE)
        for read in (RunJournal.load, RunJournal.recover):
            with pytest.raises(JournalError) as excinfo:
                read(path)
            message = str(excinfo.value)
            assert "unsupported journal version 1 (this build reads 3)" in message
            assert "checksum" not in message
            assert excinfo.value.line_no == 1
            assert excinfo.value.header is None

    def test_version_2_journal_is_refused_as_old_not_corrupt(self, tmp_path):
        path = tmp_path / "v2.journal"
        path.write_bytes(V2_HEADER_LINE)
        for read in (RunJournal.load, RunJournal.recover):
            with pytest.raises(JournalError) as excinfo:
                read(path)
            message = str(excinfo.value)
            assert "unsupported journal version 2 (this build reads 3)" in message
            assert "checksum" not in message
            assert excinfo.value.line_no == 1
            assert excinfo.value.header is None

    def test_missing_and_empty_files_are_typed(self, tmp_path):
        with pytest.raises(JournalError):
            RunJournal.load(tmp_path / "absent.journal")
        empty = tmp_path / "empty.journal"
        empty.write_bytes(b"")
        with pytest.raises(JournalError):
            RunJournal.load(empty)

    def test_journal_error_is_a_repro_error(self):
        assert issubclass(JournalError, ReproError)


class TestRecover:
    def test_recover_clean_journal_has_no_error(self, tmp_path):
        path = tmp_path / "run.journal"
        _write_journal(path)
        header, records, error = RunJournal.recover(path)
        assert error is None
        assert len(records) == 3

    def test_recover_damaged_journal_returns_prefix(self, tmp_path):
        path = tmp_path / "run.journal"
        _write_journal(path)
        path.write_bytes(path.read_bytes()[:-7])
        header, records, error = RunJournal.recover(path)
        assert error is not None
        assert [r.seq for r in records] == [0, 1]
        assert header.journal_version == JOURNAL_VERSION

    def test_unreadable_header_is_not_recoverable(self, tmp_path):
        path = tmp_path / "run.journal"
        _write_journal(path)
        blob = path.read_bytes()
        path.write_bytes(b"garbage" + blob[7:])
        with pytest.raises(JournalError):
            RunJournal.recover(path)

    def test_reopen_truncates_torn_tail_and_appends(self, tmp_path):
        path = tmp_path / "run.journal"
        _write_journal(path)
        path.write_bytes(path.read_bytes()[:-5])
        header, records, error = RunJournal.recover(path)
        journal = RunJournal(path)
        journal.reopen(error.recovered_bytes)
        journal.append(_record(2))
        journal.close()
        __, clean = RunJournal.load(path)
        assert [r.seq for r in clean] == [0, 1, 2]


#: JSON values a journal payload may carry: non-ASCII text and keys, ints
#: past 64 bits, floats, None/bool, and nested lists and objects
_keys = st.text(max_size=6)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**80),
    st.floats(allow_nan=False),
    st.text(max_size=8),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_keys, inner, max_size=3),
    max_leaves=8,
)
_batches = st.lists(
    st.tuples(
        st.lists(_values, max_size=3),
        st.dictionaries(_keys, _values, max_size=3),
    ),
    min_size=1,
    max_size=3,
)


def _journal_of(path, batches):
    # Every journal carries an escaped non-ASCII character: the case of its
    # hex digits can change without changing the parsed value.
    context = {"run": "property", "name": "caf\u00e9"}
    journal = RunJournal(path)
    journal.create(JournalHeader(
        fingerprint=run_fingerprint(context), context=context,
    ))
    records = []
    for seq, (predictions, state) in enumerate(batches):
        record = BatchRecord(
            seq=seq, key=f"key-{seq}", predictions=predictions, state=state,
        )
        journal.append(record)
        records.append(record)
    journal.close()
    return records


class TestSealProperties:
    """The seal covers a line's exact bytes."""

    @given(_batches)
    @settings(max_examples=60, deadline=None)
    def test_append_then_load_round_trips_every_record(self, batches):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "run.journal"
            records = _journal_of(path, batches)
            __, loaded = RunJournal.load(path)
        assert loaded == records

    @given(_batches)
    @settings(max_examples=10, deadline=None)
    def test_every_single_byte_flip_is_caught(self, batches):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "run.journal"
            records = _journal_of(path, batches)
            blob = path.read_bytes()
            for position in range(len(blob)):
                # the 0-based line this byte belongs to (its newline included)
                line = blob.count(b"\n", 0, position)
                for mask in (0x01, 0x20):
                    damaged = bytearray(blob)
                    damaged[position] ^= mask
                    path.write_bytes(bytes(damaged))
                    with pytest.raises(JournalError) as excinfo:
                        RunJournal.load(path)
                    assert excinfo.value.line_no == line + 1
                    assert excinfo.value.records == records[:max(line - 1, 0)]
