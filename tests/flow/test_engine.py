"""The flow engine: end-to-end runs, provenance, quarantine, durability."""

import pytest

from repro.core.config import PipelineConfig
from repro.errors import ConfigError
from repro.flow import (
    FlowChaos,
    FlowEngine,
    FlowGraph,
    StageNode,
    table_from_payload,
    table_payload,
)
from repro.flow.tables import dataset_table, inject_missing, inject_typos
from repro.llm import GarblingClient
from repro.llm.simulated import SimulatedLLM
from repro.obs.manifest import canonical_json
from repro.runtime.journal import ResumeMismatchError
from tests.fixtures import run_reference_flow

MARKER = "!!GARBLED-CELL!!"


def small_graph() -> FlowGraph:
    return FlowGraph(
        [
            StageNode.make(
                "detect", "detect_errors",
                {"table": "inputs.dirty"},
                {"attributes": ["occupation"]},
            ),
            StageNode.make(
                "impute", "impute_missing",
                {"table": "detect"},
                {"attribute": "workclass"},
            ),
        ],
        inputs=("dirty",),
    )


def dirty_table(rows: int = 12):
    table = dataset_table("adult", size=4 * rows, seed=0)
    from repro.data.records import Table

    table = Table(table.schema, [r.copy() for r in list(table)[:rows]])
    table = inject_typos(table, "occupation", rate=0.2, seed=2).table
    table = inject_missing(table, "workclass", rate=0.25, seed=4).table
    return table


@pytest.fixture(scope="module")
def reference_result():
    return run_reference_flow()


class TestEndToEnd:
    def test_reference_flow_runs_all_four_stages(self, reference_result):
        result = reference_result
        assert result.order == ("detect", "impute", "align", "match")
        assert result.stages["detect"].output["flagged"]
        assert result.stages["impute"].output["imputed"]
        assert result.stages["align"].output["correspondences"]
        assert result.stages["match"].output["n_candidates"] > 0

    def test_report_rolls_up_stage_usage(self, reference_result):
        result = reference_result
        total = sum(
            result.stages[name].report.usage.prompt_tokens
            for name in result.order
        )
        assert result.report.usage.prompt_tokens == total
        assert result.report.n_requests == sum(
            result.stages[name].report.n_requests for name in result.order
        )

    def test_detect_output_table_blanks_flagged_cells(self, reference_result):
        detect = reference_result.stages["detect"]
        for cell in detect.output["flagged"]:
            assert detect.table[cell["row"]][cell["attribute"]] is None

    def test_impute_fills_blanked_cells(self, reference_result):
        impute = reference_result.stages["impute"]
        for row, value in impute.output["imputed"].items():
            assert impute.table[int(row)]["style"] == value

    def test_tables_property_lists_table_producers(self, reference_result):
        assert set(reference_result.tables) == {"detect", "impute"}

    def test_manifest_payload_carries_graph_and_stages(self, reference_result):
        manifest = reference_result.manifest_payload()
        assert manifest["kind"] == "flow_manifest"
        assert [s["name"] for s in manifest["flow"]["stages"]] == [
            "align", "detect", "impute", "match"
        ]
        assert set(manifest["stages"]) == set(reference_result.order)


class TestValidation:
    def test_missing_input_rejected(self):
        engine = FlowEngine(SimulatedLLM("gpt-3.5", seed=0))
        with pytest.raises(ConfigError, match="not provided: dirty"):
            engine.run(small_graph(), {})

    def test_extra_input_rejected(self):
        engine = FlowEngine(SimulatedLLM("gpt-3.5", seed=0))
        with pytest.raises(ConfigError, match="unexpected flow input"):
            engine.run(
                small_graph(),
                {"dirty": dirty_table(), "bonus": dirty_table()},
            )

    def test_chaos_must_target_a_known_stage(self):
        engine = FlowEngine(SimulatedLLM("gpt-3.5", seed=0))
        with pytest.raises(ConfigError, match="unknown stage"):
            engine.run(
                small_graph(), {"dirty": dirty_table()},
                chaos=FlowChaos(stage="ghost"),
            )

    def test_chaos_site_is_checked(self):
        with pytest.raises(ValueError, match="unknown flow chaos site"):
            FlowChaos(stage="detect", site="mid_flight")


class TestQuarantinePropagation:
    @pytest.fixture(scope="class")
    def poisoned_run(self):
        table = dirty_table()
        table[5]["occupation"] = MARKER
        client = GarblingClient(
            SimulatedLLM("gpt-3.5", seed=0), triggers=[MARKER]
        )
        config = PipelineConfig(degradation="ladder")
        engine = FlowEngine(client, config)
        return engine.run(small_graph(), {"dirty": table}), client

    def test_stage_n_quarantines_the_poisoned_cell(self, poisoned_run):
        result, client = poisoned_run
        assert client.n_garbled > 0
        detect = result.stages["detect"]
        assert {(q["row"], q["attribute"]) for q in detect.quarantine} == {
            (5, "occupation")
        }
        assert any(
            mark.row == 5 and mark.stage == "detect"
            for mark in detect.marks
        )

    def test_stage_n_plus_1_visibly_excludes_it(self, poisoned_run):
        result, __ = poisoned_run
        excluded = result.stages["impute"].provenance.excluded_upstream
        assert any(
            origin.row == 5 and "quarantined in detect" in origin.detail
            for origin in excluded
        )

    def test_excluded_row_is_never_imputed(self, poisoned_run):
        result, __ = poisoned_run
        assert "5" not in result.stages["impute"].output["imputed"]

    def test_healthy_rows_still_flow(self, poisoned_run):
        result, __ = poisoned_run
        assert result.stages["impute"].output["imputed"]


class TestDeterminism:
    def test_results_identical_at_concurrency_1_2_8(self):
        payloads = {
            concurrency: canonical_json(
                run_reference_flow(concurrency=concurrency).payload(
                    include_timing=False
                )
            )
            for concurrency in (1, 2, 8)
        }
        assert payloads[1] == payloads[2] == payloads[8]

    def test_table_payload_round_trips(self):
        table = dirty_table()
        clone = table_from_payload(table_payload(table))
        assert canonical_json(table_payload(clone)) == canonical_json(
            table_payload(table)
        )


class TestLedger:
    def test_rerun_restores_every_stage_from_the_ledger(self, tmp_path):
        table = dirty_table()
        config = PipelineConfig(degradation="ladder")

        def engine():
            return FlowEngine(
                SimulatedLLM("gpt-3.5", seed=0), config, workdir=tmp_path
            )

        first = engine().run(small_graph(), {"dirty": table})
        assert first.resumed_stages == ()
        second = engine().run(small_graph(), {"dirty": table})
        assert second.resumed_stages == ("detect", "impute")
        assert all(second.stages[name].resumed for name in second.order)
        assert canonical_json(second.payload()) == canonical_json(
            first.payload()
        )

    def test_ledger_refuses_a_different_flow(self, tmp_path):
        table = dirty_table()
        config = PipelineConfig(degradation="ladder")
        FlowEngine(
            SimulatedLLM("gpt-3.5", seed=0), config, workdir=tmp_path
        ).run(small_graph(), {"dirty": table})
        other = FlowGraph(
            [
                StageNode.make(
                    "detect", "detect_errors",
                    {"table": "inputs.dirty"},
                    {"attributes": ["education"]},
                ),
                StageNode.make(
                    "impute", "impute_missing",
                    {"table": "detect"},
                    {"attribute": "workclass"},
                ),
            ],
            inputs=("dirty",),
        )
        with pytest.raises(ResumeMismatchError):
            FlowEngine(
                SimulatedLLM("gpt-3.5", seed=0), config, workdir=tmp_path
            ).run(other, {"dirty": table})

    def test_stage_journals_are_written_per_stage(self, tmp_path):
        table = dirty_table()
        FlowEngine(
            SimulatedLLM("gpt-3.5", seed=0),
            PipelineConfig(degradation="ladder"),
            workdir=tmp_path,
        ).run(small_graph(), {"dirty": table})
        names = {path.name for path in tmp_path.iterdir()}
        assert "flow.journal" in names
        assert "stage-00-detect.journal" in names
        assert "stage-01-impute.journal" in names
