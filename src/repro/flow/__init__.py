"""Prep flows: declarative DAGs composing the paper's four tasks.

The :mod:`repro.flow` package turns the isolated table-level workflows
(:mod:`repro.core.workflows`) into end-to-end preparation pipelines:

- :mod:`repro.flow.graph` — typed stage nodes, validated edges,
  deterministic topological scheduling;
- :mod:`repro.flow.engine` — the executor: per-stage checkpointing on
  the PR 5 write-ahead journal, cross-stage provenance, staged
  degradation (quarantines travel, nothing is silently dropped);
- :mod:`repro.flow.provenance` — the origin/quarantine-mark vocabulary;
- :mod:`repro.flow.tables` — dataset-derived input tables and seeded
  corruption injectors;
- :mod:`repro.flow.spec` — the YAML declaration format;
- :mod:`repro.flow.reference` — the shipped 4-stage reference flow.
"""

from repro.flow.engine import (
    FLOW_CRASH_SITES,
    FlowChaos,
    FlowEngine,
    FlowLedger,
    FlowResult,
    StageResult,
    flow_context,
    table_from_payload,
    table_payload,
)
from repro.flow.graph import (
    STAGE_OUTPUT,
    STAGE_PARAMS,
    STAGE_PORTS,
    FlowGraph,
    StageNode,
)
from repro.flow.provenance import (
    CellOrigin,
    PairOrigin,
    QuarantineMark,
    StageProvenance,
)
from repro.flow.reference import REFERENCE_FLOW_DOC, reference_spec
from repro.flow.spec import (
    CorruptionSpec,
    FlowSpec,
    InputSpec,
    load_flow_spec,
    parse_flow,
)
from repro.flow.tables import (
    CorruptedCells,
    dataset_table,
    inject_missing,
    inject_typos,
)

__all__ = [
    "FLOW_CRASH_SITES",
    "FlowChaos",
    "FlowEngine",
    "FlowLedger",
    "FlowResult",
    "StageResult",
    "flow_context",
    "table_from_payload",
    "table_payload",
    "STAGE_OUTPUT",
    "STAGE_PARAMS",
    "STAGE_PORTS",
    "FlowGraph",
    "StageNode",
    "CellOrigin",
    "PairOrigin",
    "QuarantineMark",
    "StageProvenance",
    "REFERENCE_FLOW_DOC",
    "reference_spec",
    "CorruptionSpec",
    "FlowSpec",
    "InputSpec",
    "load_flow_spec",
    "parse_flow",
    "CorruptedCells",
    "dataset_table",
    "inject_missing",
    "inject_typos",
]
