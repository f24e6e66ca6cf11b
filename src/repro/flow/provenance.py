"""Cross-stage provenance: which stage produced or disqualified each datum.

The flow engine never silently drops anything.  Every change a stage makes
to the data moving through the graph is recorded as an *origin*:

- :class:`CellOrigin` — a cell-level event (a cell flagged by error
  detection, imputed by DI, quarantined by the degradation ladder, or an
  entire row excluded downstream because an upstream stage quarantined
  one of its cells);
- :class:`PairOrigin` — a pair-level event (a candidate pair excluded
  from entity matching because one of its rows carries an upstream
  quarantine).

Each stage's bundle of origins is a :class:`StageProvenance`; the engine
threads the full list into the flow result and the run manifest, so the
answer to "why is this cell blank / why was this pair never asked about"
is one lookup away.  The *staged degradation* acceptance criterion lives
here: an instance quarantined in stage N shows up in stage N+1's
``excluded_upstream`` with the originating stage named.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: cell-level actions a stage may record
CELL_ACTIONS = (
    "flagged",      # error detection marked the cell erroneous
    "blanked",      # the engine blanked a flagged cell for repair
    "imputed",      # imputation filled the cell
    "unrepaired",   # flagged/missing but no downstream stage repaired it
    "quarantined",  # the degradation ladder gave up on this cell's instance
    "excluded",     # the stage skipped this cell/row due to an upstream mark
)

#: pair-level actions a stage may record
PAIR_ACTIONS = (
    "matched",      # the stage predicted a correspondence/match
    "excluded",     # the pair was dropped due to an upstream quarantine
    "quarantined",  # the ladder gave up on this pair's own instance
)


@dataclass(frozen=True)
class CellOrigin:
    """One cell-level provenance event.

    ``stage`` is the stage that recorded the event; for ``excluded``
    events ``detail`` names the originating upstream stage and reason.
    """

    row: int
    attribute: str
    stage: str
    action: str
    detail: str = ""

    def payload(self) -> dict:
        return {
            "row": self.row,
            "attribute": self.attribute,
            "stage": self.stage,
            "action": self.action,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class PairOrigin:
    """One pair-level provenance event (schema or entity matching)."""

    left: str
    right: str
    stage: str
    action: str
    detail: str = ""

    def payload(self) -> dict:
        return {
            "left": self.left,
            "right": self.right,
            "stage": self.stage,
            "action": self.action,
            "detail": self.detail,
        }


def sort_cell_origins(origins: list[CellOrigin]) -> list[CellOrigin]:
    """Canonical order so provenance payloads are byte-stable."""
    return sorted(
        origins,
        key=lambda o: (o.row, o.attribute, o.stage, o.action, o.detail),
    )


def sort_pair_origins(origins: list[PairOrigin]) -> list[PairOrigin]:
    return sorted(
        origins,
        key=lambda o: (o.left, o.right, o.stage, o.action, o.detail),
    )


@dataclass
class StageProvenance:
    """Everything one stage did to the data passing through it.

    ``cells``/``pairs`` are the stage's own events; ``excluded_upstream``
    is the subset of events where the stage visibly skipped work because
    of marks inherited from earlier stages — the degradation trail the
    acceptance criteria require.  ``quarantined`` records the stage's own
    ladder casualties as ``(row, attribute, reason)`` triples.
    """

    stage: str
    kind: str
    cells: list[CellOrigin] = field(default_factory=list)
    pairs: list[PairOrigin] = field(default_factory=list)
    excluded_upstream: list[CellOrigin] = field(default_factory=list)
    quarantined: list[tuple[int, str, str]] = field(default_factory=list)

    def record_cell(
        self,
        row: int,
        attribute: str,
        action: str,
        detail: str = "",
    ) -> None:
        self.cells.append(
            CellOrigin(row=row, attribute=attribute, stage=self.stage,
                       action=action, detail=detail)
        )

    def record_pair(
        self,
        left: str,
        right: str,
        action: str,
        detail: str = "",
    ) -> None:
        self.pairs.append(
            PairOrigin(left=left, right=right, stage=self.stage,
                       action=action, detail=detail)
        )

    def record_excluded(
        self,
        row: int,
        attribute: str,
        origin_stage: str,
        reason: str,
    ) -> None:
        """A row/cell visibly skipped because ``origin_stage`` marked it."""
        self.excluded_upstream.append(
            CellOrigin(
                row=row,
                attribute=attribute,
                stage=self.stage,
                action="excluded",
                detail=f"quarantined in {origin_stage}: {reason}",
            )
        )

    def record_quarantine(self, row: int, attribute: str, reason: str) -> None:
        self.quarantined.append((row, attribute, reason))
        self.record_cell(row, attribute, "quarantined", reason)

    def payload(self) -> dict:
        """Canonical plain data for journals, manifests, and goldens."""
        return {
            "stage": self.stage,
            "kind": self.kind,
            "cells": [o.payload() for o in sort_cell_origins(self.cells)],
            "pairs": [o.payload() for o in sort_pair_origins(self.pairs)],
            "excluded_upstream": [
                o.payload()
                for o in sort_cell_origins(self.excluded_upstream)
            ],
            "quarantined": [
                {"row": row, "attribute": attribute, "reason": reason}
                for row, attribute, reason in sorted(self.quarantined)
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "StageProvenance":
        prov = cls(stage=payload["stage"], kind=payload["kind"])
        prov.cells = [CellOrigin(**entry) for entry in payload["cells"]]
        prov.pairs = [PairOrigin(**entry) for entry in payload["pairs"]]
        prov.excluded_upstream = [
            CellOrigin(**entry) for entry in payload["excluded_upstream"]
        ]
        prov.quarantined = [
            (entry["row"], entry["attribute"], entry["reason"])
            for entry in payload["quarantined"]
        ]
        return prov


@dataclass
class QuarantineMark:
    """A sticky per-row mark carried downstream along table edges.

    When stage N quarantines the instance for ``(row, attribute)``, every
    consumer of N's output table sees the mark and must either exclude
    the row (recording it in ``excluded_upstream``) or flag it — never
    silently pretend the cell is trustworthy.
    """

    row: int
    attribute: str
    stage: str
    reason: str

    def payload(self) -> dict:
        return {
            "row": self.row,
            "attribute": self.attribute,
            "stage": self.stage,
            "reason": self.reason,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "QuarantineMark":
        return cls(**payload)
