"""Flow spec parsing: strict YAML/dict declarations of flows."""

from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.flow import (
    REFERENCE_FLOW_DOC,
    load_flow_spec,
    parse_flow,
    reference_spec,
)

EXAMPLE_PATH = (
    Path(__file__).parent.parent.parent
    / "examples" / "flows" / "clean_match_beer.yaml"
)


def minimal_doc() -> dict:
    return {
        "flow": "tiny",
        "inputs": {"t": {"dataset": "adult", "size": 10}},
        "stages": [
            {"name": "detect", "kind": "detect_errors", "table": "inputs.t"},
        ],
    }


class TestParsing:
    def test_minimal_doc_parses(self):
        spec = parse_flow(minimal_doc())
        assert spec.name == "tiny"
        assert spec.graph.topological_order() == ("detect",)
        assert spec.inputs["t"].dataset == "adult"

    def test_non_mapping_document(self):
        with pytest.raises(ConfigError, match="must be a mapping"):
            parse_flow(["not", "a", "flow"])

    def test_missing_flow_name(self):
        doc = minimal_doc()
        del doc["flow"]
        with pytest.raises(ConfigError, match="missing its 'flow' name"):
            parse_flow(doc)

    def test_missing_stages(self):
        doc = minimal_doc()
        del doc["stages"]
        with pytest.raises(ConfigError, match="'stages' list"):
            parse_flow(doc)

    def test_unknown_top_level_key(self):
        doc = minimal_doc()
        doc["schedule"] = "eager"
        with pytest.raises(ConfigError, match="unknown key"):
            parse_flow(doc)

    def test_unknown_input_key(self):
        doc = minimal_doc()
        doc["inputs"]["t"]["shuffle"] = True
        with pytest.raises(ConfigError, match="unknown key"):
            parse_flow(doc)

    def test_input_without_dataset(self):
        doc = minimal_doc()
        doc["inputs"]["t"] = {"size": 10}
        with pytest.raises(ConfigError, match="missing 'dataset'"):
            parse_flow(doc)

    def test_bad_side(self):
        doc = minimal_doc()
        doc["inputs"]["t"]["side"] = "middle"
        with pytest.raises(ConfigError, match="'left' or 'right'"):
            parse_flow(doc)

    def test_unknown_corruption_kind(self):
        doc = minimal_doc()
        doc["inputs"]["t"]["corrupt"] = [
            {"kind": "scramble", "attribute": "age"}
        ]
        with pytest.raises(ConfigError, match="unknown corruption kind"):
            parse_flow(doc)

    def test_corruption_missing_attribute(self):
        doc = minimal_doc()
        doc["inputs"]["t"]["corrupt"] = [{"kind": "typos"}]
        with pytest.raises(ConfigError, match="missing 'attribute'"):
            parse_flow(doc)

    def test_stage_missing_name(self):
        doc = minimal_doc()
        del doc["stages"][0]["name"]
        with pytest.raises(ConfigError, match="missing 'name'"):
            parse_flow(doc)

    def test_stage_unknown_key(self):
        doc = minimal_doc()
        doc["stages"][0]["retries"] = 3
        with pytest.raises(ConfigError, match="unknown key"):
            parse_flow(doc)

    def test_graph_errors_surface_from_parse(self):
        doc = minimal_doc()
        doc["stages"][0]["table"] = "inputs.ghost"
        with pytest.raises(ConfigError, match="unknown flow input"):
            parse_flow(doc)


def example_yaml() -> str:
    return EXAMPLE_PATH.read_text(encoding="utf-8")


class TestYaml:
    def test_yaml_text_parses(self):
        spec = load_flow_spec(example_yaml())
        assert spec.name == "clean_match_beer"

    def test_invalid_yaml_is_config_error(self):
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_flow_spec("flow: [unclosed")

    def test_yaml_and_dict_forms_are_equivalent(self):
        """The two shipped forms of the reference flow must not drift."""
        from_yaml = load_flow_spec(example_yaml())
        from_dict = parse_flow(REFERENCE_FLOW_DOC)
        assert from_yaml.payload() == from_dict.payload()

    def test_shipped_example_file_matches_reference(self):
        spec = load_flow_spec(example_yaml())
        assert spec.payload() == reference_spec().payload()


class TestBuildInputs:
    def test_corruption_audit_names_touched_cells(self):
        spec = reference_spec()
        tables, audits = spec.build_inputs()
        assert set(tables) == {"clean_right", "dirty_left"}
        dirty = tables["dirty_left"]
        # every audited cell actually differs from (or blanks) the original
        assert audits["dirty_left"]
        for row, attribute, original in audits["dirty_left"]:
            assert dirty[row][attribute] != original
        assert audits["clean_right"] == []

    def test_build_is_deterministic(self):
        spec = reference_spec()
        first, __ = spec.build_inputs()
        second, __ = spec.build_inputs()
        for name in first:
            assert [dict(r) for r in first[name]] == [
                dict(r) for r in second[name]
            ]

    def test_describe_mentions_corruption(self):
        text = reference_spec().describe()
        assert "typos(style@0.2)" in text
        assert "missing(style@0.25)" in text
        assert "match_entities" in text
