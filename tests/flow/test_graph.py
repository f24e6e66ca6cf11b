"""Static validation and deterministic scheduling of flow graphs."""

import pytest

from repro.errors import ConfigError
from repro.flow import FlowGraph, StageNode


def _detect(name: str, source: str) -> StageNode:
    return StageNode.make(
        name, "detect_errors", {"table": source}
    )


def _impute(name: str, source: str) -> StageNode:
    return StageNode.make(
        name, "impute_missing", {"table": source}, {"attribute": "a"}
    )


def _match(name: str, left: str, right: str) -> StageNode:
    return StageNode.make(
        name, "match_entities", {"left": left, "right": right}
    )


def diamond_stages() -> list[StageNode]:
    """detect -> impute, then two matchers fanning in."""
    return [
        _detect("detect", "inputs.dirty"),
        _impute("impute", "detect"),
        _match("match_a", "impute", "inputs.clean"),
        _match("match_b", "impute", "inputs.clean"),
    ]


class TestValidation:
    def test_valid_graph_builds(self):
        graph = FlowGraph(diamond_stages(), inputs=("dirty", "clean"))
        assert set(graph.stages) == {"detect", "impute", "match_a", "match_b"}

    def test_empty_graph_rejected(self):
        with pytest.raises(ConfigError, match="at least one stage"):
            FlowGraph([], inputs=("t",))

    def test_duplicate_stage_name(self):
        stages = [_detect("d", "inputs.t"), _detect("d", "inputs.t")]
        with pytest.raises(ConfigError, match="duplicate stage name"):
            FlowGraph(stages, inputs=("t",))

    def test_unknown_kind(self):
        node = StageNode.make("x", "normalize", {"table": "inputs.t"})
        with pytest.raises(ConfigError, match="unknown kind"):
            FlowGraph([node], inputs=("t",))

    @pytest.mark.parametrize("bad", ["a.b", "a/b", "a\\b", "a b", "inputs.x"])
    def test_unsafe_stage_names(self, bad):
        node = StageNode.make(bad, "detect_errors", {"table": "inputs.t"})
        with pytest.raises(ConfigError):
            FlowGraph([node], inputs=("t",))

    def test_empty_stage_name(self):
        node = StageNode.make("", "detect_errors", {"table": "inputs.t"})
        with pytest.raises(ConfigError, match="empty name"):
            FlowGraph([node], inputs=("t",))

    def test_missing_port(self):
        node = StageNode.make("m", "match_entities", {"left": "inputs.t"})
        with pytest.raises(ConfigError, match="unwired: right"):
            FlowGraph([node], inputs=("t",))

    def test_unknown_port(self):
        node = StageNode.make(
            "d", "detect_errors", {"table": "inputs.t", "aux": "inputs.t"}
        )
        with pytest.raises(ConfigError, match="unknown port"):
            FlowGraph([node], inputs=("t",))

    def test_double_wired_port(self):
        node = StageNode(
            name="d", kind="detect_errors",
            inputs=(("table", "inputs.t"), ("table", "inputs.u")),
        )
        with pytest.raises(ConfigError, match="wires a port twice"):
            FlowGraph([node], inputs=("t", "u"))

    def test_unknown_param(self):
        node = StageNode.make(
            "d", "detect_errors", {"table": "inputs.t"},
            {"attributes": ["a"], "threshold": 0.5},
        )
        with pytest.raises(ConfigError, match="unknown parameter"):
            FlowGraph([node], inputs=("t",))

    def test_missing_required_param(self):
        node = StageNode.make("i", "impute_missing", {"table": "inputs.t"})
        with pytest.raises(ConfigError, match="required parameter 'attribute'"):
            FlowGraph([node], inputs=("t",))

    def test_unknown_flow_input(self):
        node = _detect("d", "inputs.nope")
        with pytest.raises(ConfigError, match="unknown flow input"):
            FlowGraph([node], inputs=("t",))

    def test_unknown_stage_ref(self):
        node = _detect("d", "ghost")
        with pytest.raises(ConfigError, match="unknown stage 'ghost'"):
            FlowGraph([node], inputs=("t",))

    def test_typed_edges_reject_matches_into_table_port(self):
        """A matcher produces pair lists, which no table port may consume."""
        stages = [
            _match("m", "inputs.l", "inputs.r"),
            _detect("d", "m"),
        ]
        with pytest.raises(ConfigError, match="produces matches"):
            FlowGraph(stages, inputs=("l", "r"))

    def test_cycle_is_named(self):
        stages = [_detect("a", "b"), _detect("b", "a")]
        with pytest.raises(ConfigError, match="cycle involving stage"):
            FlowGraph(stages, inputs=())

    def test_self_loop_is_a_cycle(self):
        with pytest.raises(ConfigError, match="cycle"):
            FlowGraph([_detect("a", "a")], inputs=())


class TestScheduling:
    def test_topological_order_respects_edges(self):
        graph = FlowGraph(diamond_stages(), inputs=("dirty", "clean"))
        order = graph.topological_order()
        assert order.index("detect") < order.index("impute")
        assert order.index("impute") < order.index("match_a")
        assert order.index("impute") < order.index("match_b")

    def test_ties_break_lexicographically(self):
        graph = FlowGraph(diamond_stages(), inputs=("dirty", "clean"))
        assert graph.topological_order() == (
            "detect", "impute", "match_a", "match_b"
        )

    def test_order_ignores_insertion_order(self):
        stages = diamond_stages()
        forward = FlowGraph(stages, inputs=("dirty", "clean"))
        backward = FlowGraph(list(reversed(stages)), inputs=("dirty", "clean"))
        assert forward.topological_order() == backward.topological_order()


class TestIntrospection:
    def test_spec_payload_is_insertion_order_free(self):
        stages = diamond_stages()
        forward = FlowGraph(stages, inputs=("dirty", "clean"))
        backward = FlowGraph(list(reversed(stages)), inputs=("clean", "dirty"))
        assert forward.spec_payload() == backward.spec_payload()

    def test_describe_lists_schedule_and_wiring(self):
        graph = FlowGraph(diamond_stages(), inputs=("dirty", "clean"))
        text = graph.describe()
        assert "inputs: clean, dirty" in text
        assert "1. detect [detect_errors] table<-inputs.dirty" in text
        assert "left<-impute" in text

    def test_upstream_stages_skips_flow_inputs(self):
        node = _match("m", "impute", "inputs.clean")
        assert node.upstream_stages() == ("impute",)
