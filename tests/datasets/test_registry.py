"""Tests for repro.datasets.registry."""

import pytest

from repro.data.instances import Task
from repro.datasets import DATASET_NAMES, dataset_info, load_dataset
from repro.datasets.registry import clear_cache
from repro.errors import DatasetError, UnknownDatasetError


class TestRegistry:
    def test_all_twelve_present(self):
        assert len(DATASET_NAMES) == 12

    def test_unknown_name(self):
        with pytest.raises(UnknownDatasetError):
            load_dataset("nope")
        with pytest.raises(UnknownDatasetError):
            dataset_info("nope")

    def test_info_matches_paper_tasks(self):
        assert dataset_info("adult").task is Task.ERROR_DETECTION
        assert dataset_info("buy").task is Task.DATA_IMPUTATION
        assert dataset_info("synthea").task is Task.SCHEMA_MATCHING
        assert dataset_info("beer").task is Task.ENTITY_MATCHING

    def test_published_sizes(self):
        # The benchmark's published test-set sizes (fm_data_tasks).
        assert dataset_info("buy").default_size == 65
        assert dataset_info("restaurant").default_size == 86
        assert dataset_info("beer").default_size == 91
        assert dataset_info("itunes_amazon").default_size == 109
        assert dataset_info("fodors_zagat").default_size == 189

    def test_requested_size_honored(self):
        ds = load_dataset("beer", size=40)
        assert len(ds) == 40

    def test_bad_size_rejected(self):
        with pytest.raises(DatasetError):
            load_dataset("beer", size=0)

    def test_caching_returns_same_object(self):
        a = load_dataset("beer", size=30, seed=3)
        b = load_dataset("beer", size=30, seed=3)
        assert a is b

    def test_clear_cache(self):
        a = load_dataset("beer", size=31, seed=3)
        clear_cache()
        b = load_dataset("beer", size=31, seed=3)
        assert a is not b

    def test_seed_changes_content(self):
        a = load_dataset("beer", size=30, seed=1)
        b = load_dataset("beer", size=30, seed=2)
        texts_a = [str(i.pair.left) for i in a.instances]
        texts_b = [str(i.pair.left) for i in b.instances]
        assert texts_a != texts_b


class TestSchemaCacheKeys:
    """Regression: the dataset cache must key on generator *content*.

    Before cache_token, the key was (name, size, seed) — two different
    schemas reachable under the same name (one schema file edited between
    loads, or sequential re-registration) aliased in the cache and the
    second load silently returned the first schema's data.
    """

    def _write(self, tmp_path, preset_name, filename):
        import json

        from repro.factory import preset

        path = tmp_path / filename
        path.write_text(
            json.dumps(preset(preset_name).to_dict()), encoding="utf-8"
        )
        return path

    def test_builtin_generators_have_an_empty_cache_token(self):
        from repro.datasets.registry import _GENERATORS

        assert all(g.cache_token == "" for g in _GENERATORS.values())

    def test_two_schemas_same_sizes_different_names_stay_distinct(
        self, tmp_path
    ):
        from repro.datasets import SCHEMA_PREFIX

        a_path = self._write(tmp_path, "adult_replica", "a.json")
        b_path = self._write(tmp_path, "orders", "b.json")
        a = load_dataset(f"{SCHEMA_PREFIX}{a_path}", size=10, seed=0)
        b = load_dataset(f"{SCHEMA_PREFIX}{b_path}", size=10, seed=0)
        assert a is not b
        assert str(a.instances[0].record) != str(b.instances[0].record)

    def test_edited_schema_file_is_not_aliased(self, tmp_path):
        """Same path, same (size, seed) — edited content must reload."""
        from repro.datasets import SCHEMA_PREFIX

        path = self._write(tmp_path, "adult_replica", "schema.json")
        first = load_dataset(f"{SCHEMA_PREFIX}{path}", size=10, seed=0)
        self._write(tmp_path, "orders", "schema.json")
        second = load_dataset(f"{SCHEMA_PREFIX}{path}", size=10, seed=0)
        assert first is not second
        assert first.name != second.name

    def test_same_schema_content_still_caches(self, tmp_path):
        from repro.datasets import SCHEMA_PREFIX

        path = self._write(tmp_path, "orders", "schema.json")
        a = load_dataset(f"{SCHEMA_PREFIX}{path}", size=10, seed=0)
        b = load_dataset(f"{SCHEMA_PREFIX}{path}", size=10, seed=0)
        assert a is b

    def test_sequential_reregistration_under_one_name(self):
        """Register schema A under a name, drop it, register schema B
        under the same name: the cache must not serve A's data for B."""
        from repro.datasets.registry import (
            _GENERATORS,
            clear_cache,
            register_dataset,
        )
        from repro.factory import SchemaGenerator, preset

        name = "reused_name_for_cache_test"
        try:
            register_dataset(SchemaGenerator(preset("adult_replica"), name=name))
            first = load_dataset(name, size=10, seed=0)
            del _GENERATORS[name]
            register_dataset(SchemaGenerator(preset("orders"), name=name))
            second = load_dataset(name, size=10, seed=0)
            assert first is not second
            # different schemas -> different records, same registered name
            assert str(first.instances[0].record) != \
                str(second.instances[0].record)
        finally:
            _GENERATORS.pop(name, None)
            clear_cache()
