"""The reference flow: detect → impute → match-schemas → match-entities.

One end-to-end chain over the Beer entity-matching benchmark: the left
table is dirtied (typos and missing cells in ``style``), then the flow
detects the typos, blanks and imputes the damaged cells, aligns the
schemas, and matches the cleaned left table against the clean right
table — blocking on the untouched ``beer_name`` column.

The spec is kept as a plain dict, :data:`REFERENCE_FLOW_DOC`, so the
reference path never needs PyYAML.  ``examples/flows/clean_match_beer.yaml``
is the same flow as YAML text; a conformance test holds their payloads
equal.
"""

from __future__ import annotations

from repro.flow.spec import FlowSpec, parse_flow

REFERENCE_FLOW_DOC: dict = {
    "flow": "clean_match_beer",
    "config": {"degradation": "ladder"},
    "inputs": {
        "dirty_left": {
            "dataset": "beer",
            "side": "left",
            "size": 30,
            "seed": 0,
            "corrupt": [
                {"kind": "typos", "attribute": "style",
                 "rate": 0.2, "seed": 7},
                {"kind": "missing", "attribute": "style",
                 "rate": 0.25, "seed": 3},
            ],
        },
        "clean_right": {
            "dataset": "beer",
            "side": "right",
            "size": 30,
            "seed": 0,
        },
    },
    "stages": [
        {
            "name": "detect",
            "kind": "detect_errors",
            "table": "inputs.dirty_left",
            "params": {"attributes": ["style"]},
        },
        {
            "name": "impute",
            "kind": "impute_missing",
            "table": "detect",
            "params": {"attribute": "style"},
        },
        {
            "name": "align",
            "kind": "match_schemas",
            "left": "impute",
            "right": "inputs.clean_right",
        },
        {
            "name": "match",
            "kind": "match_entities",
            "left": "impute",
            "right": "inputs.clean_right",
            "params": {"blocking_attribute": "beer_name"},
        },
    ],
}

def reference_spec() -> FlowSpec:
    """The reference flow, parsed from the dict form (no YAML needed)."""
    return parse_flow(REFERENCE_FLOW_DOC)
