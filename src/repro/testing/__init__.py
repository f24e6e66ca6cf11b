"""Conformance tooling: golden snapshots and fuzzing.

This subpackage is the repo's answer to "did that refactor change
behavior?":

* :mod:`repro.testing.golden` — byte-exact recordings of full pipeline
  runs (prompts, raw replies with their strict and lenient parse
  outcomes, predictions, metrics) with a structured diff and a
  record/verify CLI (``python -m repro.eval golden``);
* :mod:`repro.testing.fuzz` — seeded generation of malformed replies
  (``python -m repro.eval fuzz``) checking the parser's crash-freedom
  and shape invariants.

Code that only tests run lives under ``tests/``: the differential replay
of the recorded replies and its mutation canary
(``tests/testing/replay.py``), and the slow reference oracles the fast
paths are checked against (``tests/oracles.py``).
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
    "OPERATORS",
    "FuzzCase",
    "FuzzReport",
    "FuzzViolation",
    "generate_case",
    "run_fuzz",
]
