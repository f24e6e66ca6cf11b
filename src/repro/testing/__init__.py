"""Conformance tooling: golden snapshots, differential replay, fuzzing.

This subpackage is the repo's answer to "did that refactor change
behavior?".  Three layers, each cheaper than the last:

* :mod:`repro.testing.golden` — byte-exact recordings of full pipeline
  runs (prompts, raw replies, predictions, metrics) with a structured
  diff and a record/verify CLI (``python -m repro.eval golden``);
* :mod:`repro.testing.replay` — re-runs only the parsing stack over the
  replies a snapshot recorded, so parser refactors are validated in
  milliseconds, plus the mutation-canary loader that proves the harness
  catches single-character parser edits;
* :mod:`repro.testing.fuzz` — seeded generation of malformed replies
  (``python -m repro.eval fuzz``) checking the parser's crash-freedom
  and shape invariants.

:mod:`repro.testing.reference` holds the oracles the fast paths are
checked against: the memo-free reference decoder (with its decode
microbench) and the row-by-row embedding reference.
"""

from repro.testing.fuzz import (
    OPERATORS,
    FuzzCase,
    FuzzReport,
    FuzzViolation,
    generate_case,
    run_fuzz,
)
from repro.testing.golden import (
    ALL_GOLDEN_CELLS,
    FACTORY_GOLDEN_CELLS,
    FLOW_GOLDEN_CELLS,
    GOLDEN_CELLS,
    GOLDEN_VERSION,
    RESILIENCE_GOLDEN_CELLS,
    SERVING_GOLDEN_CELLS,
    FactoryGoldenCell,
    FlowGoldenCell,
    GoldenCell,
    ResilienceGoldenCell,
    ServingGoldenCell,
    GoldenDiff,
    GoldenError,
    GoldenStore,
    capture_snapshot,
    cell_by_name,
    default_store_root,
    diff_payloads,
    flow_cell_fixture,
    render_diffs,
    write_diff_artifact,
)
from repro.testing.replay import (
    ReplayError,
    ReplayMismatch,
    ReplayReport,
    load_mutated_parsing,
    parse_outcomes,
    replay_exchanges,
    replay_snapshot,
)

__all__ = [
    "ALL_GOLDEN_CELLS",
    "FACTORY_GOLDEN_CELLS",
    "FLOW_GOLDEN_CELLS",
    "GOLDEN_CELLS",
    "GOLDEN_VERSION",
    "RESILIENCE_GOLDEN_CELLS",
    "SERVING_GOLDEN_CELLS",
    "FactoryGoldenCell",
    "FlowGoldenCell",
    "GoldenCell",
    "ResilienceGoldenCell",
    "ServingGoldenCell",
    "GoldenDiff",
    "GoldenError",
    "GoldenStore",
    "capture_snapshot",
    "cell_by_name",
    "default_store_root",
    "diff_payloads",
    "flow_cell_fixture",
    "render_diffs",
    "write_diff_artifact",
    "ReplayError",
    "ReplayMismatch",
    "ReplayReport",
    "load_mutated_parsing",
    "parse_outcomes",
    "replay_exchanges",
    "replay_snapshot",
    "OPERATORS",
    "FuzzCase",
    "FuzzReport",
    "FuzzViolation",
    "generate_case",
    "run_fuzz",
]
