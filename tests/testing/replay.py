"""Differential replay: re-run the parsing stack over recorded replies.

A golden snapshot (:mod:`repro.testing.golden`) stores, for every
completion call of a recorded run, the raw model reply together with the
outcome the parsing stack produced at capture time — the strict
:func:`~repro.core.parsing.parse_batch_answers` result (or the
:class:`~repro.errors.AnswerFormatError` it raised) and the lenient
:func:`~repro.core.parsing.parse_batch_answers_lenient` salvage, as
:func:`~repro.testing.golden.parse_outcomes` records them.  The replay
runner re-feeds those replies through the *current* parser and diffs the
outcomes, so a parser refactor is checked in milliseconds without
re-running any pipeline.

The runner accepts an alternative parsing module, which is how the
mutation canary works: :func:`load_mutated_parsing` compiles
``core/parsing.py`` with a single edit applied into a throwaway module,
and the canary test asserts the replay suite *fails* against the mutant
and stays green against the real module.  That proves the harness detects
single-character parser drift rather than vacuously passing.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType

from repro.core import parsing as _live_parsing
from repro.data.instances import Task
from repro.errors import ReproError
from repro.testing.golden import parse_outcomes


class ReplayError(ReproError):
    """A recorded reply could not be replayed (malformed snapshot, bad mutant)."""


@dataclass(frozen=True)
class ReplayMismatch:
    """One recorded reply whose replayed parse diverged from the recording."""

    exchange: int
    layer: str          # "strict" or "lenient"
    recorded: object
    replayed: object
    reply: str

    def render(self) -> str:
        preview = self.reply if len(self.reply) <= 240 else self.reply[:240] + "…"
        return (
            f"exchange[{self.exchange}].{self.layer}:\n"
            f"  recorded: {self.recorded!r}\n"
            f"  replayed: {self.replayed!r}\n"
            f"  reply:    {preview!r}"
        )


@dataclass
class ReplayReport:
    """The outcome of replaying one snapshot's recorded replies."""

    snapshot: str
    n_exchanges: int
    mismatches: list[ReplayMismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        if self.ok:
            return (
                f"replay {self.snapshot}: OK "
                f"({self.n_exchanges} recorded replies)"
            )
        head = (
            f"replay {self.snapshot}: {len(self.mismatches)} mismatch(es) "
            f"over {self.n_exchanges} recorded replies"
        )
        return "\n".join([head] + [m.render() for m in self.mismatches])


def replay_exchanges(
    exchanges: list[dict],
    task: Task,
    snapshot: str = "<exchanges>",
    parsing_module: ModuleType | None = None,
) -> ReplayReport:
    """Replay recorded exchange dicts through the (given) parsing stack."""
    report = ReplayReport(snapshot=snapshot, n_exchanges=len(exchanges))
    for index, exchange in enumerate(exchanges):
        try:
            reply = exchange["reply"]
            expected = exchange["n_expected"]
            recorded_strict = exchange["strict"]
            recorded_lenient = exchange["lenient"]
        except (TypeError, KeyError) as err:
            raise ReplayError(
                f"snapshot {snapshot!r}: exchange {index} is missing "
                f"field {err}"
            ) from err
        outcome = parse_outcomes(reply, task, expected, parsing_module)
        if outcome["strict"] != recorded_strict:
            report.mismatches.append(ReplayMismatch(
                exchange=index, layer="strict",
                recorded=recorded_strict, replayed=outcome["strict"],
                reply=reply,
            ))
        if outcome["lenient"] != recorded_lenient:
            report.mismatches.append(ReplayMismatch(
                exchange=index, layer="lenient",
                recorded=recorded_lenient, replayed=outcome["lenient"],
                reply=reply,
            ))
    return report


def replay_snapshot(
    payload: dict,
    snapshot: str = "<snapshot>",
    parsing_module: ModuleType | None = None,
) -> ReplayReport:
    """Replay one golden snapshot payload (as stored on disk)."""
    try:
        task = Task[payload["manifest"]["dataset"]["task"]]
        exchanges = payload["exchanges"]
    except (TypeError, KeyError) as err:
        raise ReplayError(
            f"snapshot {snapshot!r} is not a golden payload: missing {err}"
        ) from err
    return replay_exchanges(
        exchanges, task, snapshot=snapshot, parsing_module=parsing_module
    )


def load_mutated_parsing(old: str, new: str) -> ModuleType:
    """Compile ``core/parsing.py`` with ``old`` → ``new`` (first occurrence).

    The returned throwaway module shares the real
    :class:`~repro.errors.AnswerFormatError` and
    :class:`~repro.data.instances.Task` (its imports resolve normally), so
    it drops into :func:`parse_outcomes` as a faithful single-edit mutant
    of the production parser.
    """
    path = Path(_live_parsing.__file__)
    source = path.read_text(encoding="utf-8")
    if old not in source:
        raise ReplayError(
            f"mutation target {old!r} does not occur in {path.name}"
        )
    mutated = source.replace(old, new, 1)
    if mutated == source:
        raise ReplayError(f"mutation {old!r} -> {new!r} is a no-op")
    name = f"repro.core.parsing__mutant{next(_MUTANT_COUNTER)}"
    module = ModuleType(name)
    module.__file__ = f"{path}<mutant>"
    # Dataclass machinery resolves string annotations through sys.modules
    # at class-creation time, so the mutant must be registered before exec.
    sys.modules[name] = module
    try:
        exec(compile(mutated, f"{path.name}<mutant>", "exec"), module.__dict__)
    except BaseException:
        sys.modules.pop(name, None)
        raise
    return module


_MUTANT_COUNTER = itertools.count()
