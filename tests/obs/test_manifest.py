"""Tests for repro.obs.manifest."""

import json

import pytest

from repro.core.config import PipelineConfig
from repro.core.executor import ExecutionReport, LaneReport
from repro.core.feature_selection import FeatureSelection
from repro.data.instances import Task
from repro.llm.profiles import get_profile
from repro.obs.manifest import (
    MANIFEST_VERSION,
    ManifestError,
    RunManifest,
    build_manifest,
    jsonable,
)
from repro.obs.tracing import Tracer


class TestJsonable:
    def test_primitives_pass_through(self):
        for value in (1, 1.5, "x", True, None):
            assert jsonable(value) == value

    def test_enum_becomes_name(self):
        assert jsonable(Task.ENTITY_MATCHING) == "ENTITY_MATCHING"

    def test_tuples_and_sets_become_lists(self):
        assert jsonable((1, 2)) == [1, 2]
        assert jsonable({"b", "a"}) == ["a", "b"]

    def test_dataclass_flattens(self):
        config = PipelineConfig(
            model="gpt-4",
            feature_selection=FeatureSelection(keep=("name", "abv")),
        )
        payload = jsonable(config)
        assert payload["model"] == "gpt-4"
        assert payload["feature_selection"]["keep"] == ["name", "abv"]
        assert json.loads(json.dumps(payload)) == payload

    def test_unknown_types_stringify(self):
        assert jsonable(object).startswith("<class")


def _manifest():
    tracer = Tracer()
    span = tracer.start_span("pipeline.run", 0.0, dataset="beer")
    span.end(2.0)
    report = ExecutionReport(
        concurrency=2,
        lanes=[LaneReport(lane=0, n_calls=3), LaneReport(lane=1, n_calls=2)],
        makespan_s=10.0,
        sequential_s=18.0,
        n_calls=5,
    )
    return build_manifest(
        config=PipelineConfig(model="gpt-3.5", observability=True),
        model_profile=get_profile("gpt-3.5"),
        dataset_name="beer",
        task=Task.ENTITY_MATCHING,
        n_instances=80,
        evaluation={"score": 0.9, "hours": 0.003},
        metrics_snapshot={"counters": {"executor.calls": 5.0},
                          "gauges": {}, "histograms": {}},
        execution=report,
        spans=tracer.spans,
    )


class TestRunManifest:
    def test_build_collects_every_section(self):
        manifest = _manifest()
        assert manifest.version == MANIFEST_VERSION
        assert manifest.config["model"] == "gpt-3.5"
        assert manifest.model_profile["name"] == "gpt-3.5"
        assert manifest.dataset == {
            "name": "beer", "task": "ENTITY_MATCHING", "n_instances": 80,
        }
        assert manifest.evaluation["score"] == 0.9
        assert manifest.metrics["counters"]["executor.calls"] == 5.0
        assert manifest.execution["makespan_s"] == 10.0
        assert len(manifest.execution["lanes"]) == 2
        assert len(manifest.trace["spans"]) == 1

    def test_dict_round_trip_is_exact(self):
        manifest = _manifest()
        rebuilt = RunManifest.from_dict(json.loads(manifest.dumps()))
        assert rebuilt == manifest

    def test_file_round_trip_is_exact(self, tmp_path):
        manifest = _manifest()
        path = manifest.write(tmp_path / "artifacts" / "run.json")
        assert path.read_text(encoding="utf-8") == manifest.dumps() + "\n"
        assert RunManifest.load(path) == manifest

    def test_unserializable_manifest_leaves_the_file_untouched(self, tmp_path):
        path = _manifest().write(tmp_path / "run.json")
        before = path.read_bytes()
        broken = _manifest()
        # "trace" sorts late, so much of the document streams out first.
        broken.trace = {"spans": [object()]}
        with pytest.raises(TypeError):
            broken.write(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ManifestError, match="not found"):
            RunManifest.load(tmp_path / "nope.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ManifestError, match="not valid JSON"):
            RunManifest.load(path)

    def test_rejects_foreign_versions(self):
        with pytest.raises(ManifestError, match="unsupported"):
            RunManifest.from_dict({"version": 99})

    def test_rejects_payload_without_version(self):
        with pytest.raises(ManifestError, match="missing 'version'"):
            RunManifest.from_dict({"config": {}})
