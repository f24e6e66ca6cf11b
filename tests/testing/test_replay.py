"""Differential replay over the recorded reply corpus + mutation canary.

The replay suite re-feeds every raw reply stored in the golden snapshots
through the *current* parsing stack — no pipeline, no datasets, no model
— and diffs the outcome against what was recorded at capture time.  The
mutation canary then proves the suite has teeth: compiling
``core/parsing.py`` with a single-character edit must produce mismatches,
and the unmutated module must replay clean.  Flipping one character in
the real file on disk fails ``test_replay_matches_recordings`` with the
same readable diff.
"""

from pathlib import Path

import pytest

from repro.core import parsing as live_parsing
from repro.data.instances import Task
from repro.errors import AnswerFormatError
from repro.testing import GOLDEN_CELLS, GoldenStore
from repro.testing.golden import parse_outcomes
from tests.testing.replay import (
    ReplayError,
    load_mutated_parsing,
    replay_exchanges,
    replay_snapshot,
)

STORE = GoldenStore(Path(__file__).parent.parent / "golden" / "snapshots")
#: only pipeline cells record a reply corpus; serving snapshots freeze
#: scheduler behavior and have nothing for the parser to replay
SNAPSHOT_NAMES = [
    name for name in STORE.names()
    if name in {cell.name for cell in GOLDEN_CELLS}
]

#: single-character edits of core/parsing.py, each breaking a different
#: layer: marker detection, block splitting, block classification, and
#: the lenient parser's salvage alignment
MUTATIONS = (
    (r"answer\s*(\d+)", r"answeq\s*(\d+)"),
    ("lines[start + 1 : end]", "lines[start + 2 : end]"),
    ("if len(body) == 1:", "if len(body) == 2:"),
    ("not 1 <= current", "not 2 <= current"),
)


@pytest.mark.parametrize("name", SNAPSHOT_NAMES)
def test_replay_matches_recordings(name):
    """The current parser reproduces every recorded parse outcome."""
    report = replay_snapshot(STORE.load(name), snapshot=name)
    assert report.ok, report.render()
    assert report.n_exchanges > 0


@pytest.mark.parametrize(
    "old, new", MUTATIONS, ids=[old for old, __ in MUTATIONS]
)
def test_mutation_canary_detects_single_character_edits(old, new):
    """A one-character parser mutation must fail replay with a readable diff."""
    mutant = load_mutated_parsing(old, new)
    total_mismatches = 0
    for name in SNAPSHOT_NAMES:
        report = replay_snapshot(
            STORE.load(name), snapshot=name, parsing_module=mutant
        )
        total_mismatches += len(report.mismatches)
        if report.mismatches:
            text = report.render()
            assert name in text
            assert "recorded:" in text and "replayed:" in text
            assert "reply:" in text
    assert total_mismatches > 0, (
        f"mutation {old!r} -> {new!r} went undetected by the replay corpus"
    )


def test_mutation_canary_reverts_to_green():
    """The same harness is clean against the unmutated module — the canary
    detects the mutation, not itself."""
    for name in SNAPSHOT_NAMES:
        report = replay_snapshot(
            STORE.load(name), snapshot=name, parsing_module=live_parsing
        )
        assert report.ok, report.render()


class TestParseOutcomes:
    def test_ok_outcome_is_json_native(self):
        outcome = parse_outcomes("Answer 1: yes\nAnswer 2: no",
                                 Task.ENTITY_MATCHING, 2)
        assert outcome["strict"] == {"ok": [True, False]}
        assert outcome["lenient"] == [True, False]

    def test_error_outcome_records_message(self):
        outcome = parse_outcomes("", Task.ENTITY_MATCHING, 2)
        assert "error" in outcome["strict"]
        assert outcome["lenient"] == [None, None]

    def test_imputation_values_survive(self):
        outcome = parse_outcomes("Answer 1: tokyo", Task.DATA_IMPUTATION, 1)
        assert outcome["strict"] == {"ok": ["tokyo"]}

    def test_non_format_errors_propagate(self):
        class Exploding:
            @staticmethod
            def parse_batch_answers(reply, task, expected):
                raise ValueError("boom")

            @staticmethod
            def parse_batch_answers_lenient(reply, task, expected):
                return [None] * expected

        with pytest.raises(ValueError):
            parse_outcomes("x", Task.ENTITY_MATCHING, 1,
                           parsing_module=Exploding)


class TestReplayPlumbing:
    def test_missing_exchange_field_is_a_replay_error(self):
        with pytest.raises(ReplayError):
            replay_exchanges([{"reply": "x"}], Task.ENTITY_MATCHING)

    def test_malformed_snapshot_payload_is_a_replay_error(self):
        with pytest.raises(ReplayError):
            replay_snapshot({"exchanges": []})

    def test_unknown_mutation_target_is_a_replay_error(self):
        with pytest.raises(ReplayError):
            load_mutated_parsing("THIS STRING IS NOT IN PARSING PY", "x")

    def test_mutant_shares_the_real_error_type(self):
        mutant = load_mutated_parsing(
            "empty model reply", "empty model replY"
        )
        with pytest.raises(AnswerFormatError):
            mutant.parse_batch_answers("", Task.ENTITY_MATCHING, 1)
