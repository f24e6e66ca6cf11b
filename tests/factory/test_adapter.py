"""The adapter layer: factory schemas behind the standard dataset API."""

import json
from pathlib import Path

import pytest

from repro.core.contextualize import serialize_instance
from repro.data.instances import Task
from repro.datasets import SCHEMA_PREFIX, dataset_info, load_dataset
from repro.datasets.registry import _GENERATORS, clear_cache, register_dataset
from repro.errors import ConfigError, DatasetError
from repro.factory import (
    InstanceFactory,
    SchemaGenerator,
    preset,
)
from repro.factory.presets import PRESET_NAMES

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "schemas"


def write_schema(tmp_path, schema, name="schema.json"):
    """A schema file in JSON — parseable with or without PyYAML."""
    path = tmp_path / name
    path.write_text(json.dumps(schema.to_dict()), encoding="utf-8")
    return str(path)


class TestSchemaGenerator:
    def test_generate_honors_size_and_task(self):
        generator = SchemaGenerator(preset("beer_replica"))
        dataset = generator.generate(size=25, seed=2)
        assert len(dataset) == 25
        assert dataset.task is Task.ENTITY_MATCHING
        assert len(dataset.fewshot_pool) == generator.fewshot_pool_size

    def test_default_size_is_the_task_tables_universe(self):
        schema = preset("ocr_invoices")
        generator = SchemaGenerator(schema)
        assert generator.default_size == schema.table(schema.task.table).rows

    def test_cache_token_is_the_fingerprint(self):
        schema = preset("adult_replica")
        assert SchemaGenerator(schema).cache_token == schema.fingerprint

    def test_streamed_equals_materialized_instances(self):
        generator = SchemaGenerator(preset("adult_replica"))
        streamed = [
            serialize_instance(instance)
            for instance in generator.iter_instances(30, seed=4)
        ]
        materialized = [
            serialize_instance(InstanceFactory(generator.schema, seed=4)
                               .instance_at(i))
            for i in range(30)
        ]
        assert streamed == materialized

    def test_generate_is_seed_deterministic(self):
        generator = SchemaGenerator(preset("orders"))
        a = generator.generate(size=20, seed=7)
        b = generator.generate(size=20, seed=7)
        assert [serialize_instance(i) for i in a.instances] == \
            [serialize_instance(i) for i in b.instances]

    def test_iter_instances_rejects_empty_streams(self):
        with pytest.raises(DatasetError):
            SchemaGenerator(preset("orders")).iter_instances(0)


class TestSchemaPathLoading:
    def test_load_dataset_by_schema_path(self, tmp_path):
        path = write_schema(tmp_path, preset("orders"))
        dataset = load_dataset(f"{SCHEMA_PREFIX}{path}", size=15, seed=1)
        assert len(dataset) == 15
        assert dataset.task is Task.ERROR_DETECTION

    def test_dataset_info_resolves_schema_paths(self, tmp_path):
        path = write_schema(tmp_path, preset("beer_replica"))
        info = dataset_info(f"{SCHEMA_PREFIX}{path}")
        assert info.task is Task.ENTITY_MATCHING
        assert "beer_replica" in info.description

    def test_empty_schema_path_rejected(self):
        with pytest.raises(DatasetError):
            load_dataset(SCHEMA_PREFIX)

    def test_missing_schema_file_rejected(self):
        with pytest.raises(ConfigError):
            load_dataset(f"{SCHEMA_PREFIX}/nonexistent/schema.yaml")

    def test_schema_path_dataset_matches_direct_generation(self, tmp_path):
        path = write_schema(tmp_path, preset("adult_replica"))
        via_path = load_dataset(f"{SCHEMA_PREFIX}{path}", size=12, seed=3)
        direct = SchemaGenerator(preset("adult_replica")).generate(
            size=12, seed=3
        )
        assert [serialize_instance(i) for i in via_path.instances] == \
            [serialize_instance(i) for i in direct.instances]


class TestRegisterSchema:
    def test_registered_schema_loads_by_name(self):
        schema = preset("beer_replica")
        name = "beer_replica_registered_for_test"
        register_dataset(SchemaGenerator(schema, name=name))
        try:
            dataset = load_dataset(name, size=10, seed=0)
            assert len(dataset) == 10
        finally:
            _GENERATORS.pop(name, None)
            clear_cache()

    def test_schema_prefix_names_are_rejected(self):
        with pytest.raises(DatasetError):
            register_dataset(
                SchemaGenerator(preset("orders"), name=f"{SCHEMA_PREFIX}sneaky")
            )


class TestExamplesStayInSyncWithPresets:
    """The shipped YAML files are generated from the presets; a drifted
    example would document a schema the golden cells no longer pin."""

    def test_every_preset_ships_an_example(self):
        yaml = pytest.importorskip("yaml")
        del yaml
        from repro.factory import load_schema_file

        for name in PRESET_NAMES:
            path = EXAMPLES / f"{name}.yaml"
            assert path.is_file(), f"missing example for preset {name!r}"
            assert load_schema_file(str(path)).fingerprint == \
                preset(name).fingerprint, name

    def test_no_orphan_examples(self):
        stems = {path.stem for path in EXAMPLES.glob("*.yaml")}
        assert stems == set(PRESET_NAMES)
