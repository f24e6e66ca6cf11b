"""Tests for repro.data.instances."""

import pytest

from repro.data.instances import (
    DIInstance,
    EDInstance,
    PreprocessingDataset,
    Task,
    ground_truth_labels,
)
from repro.data.records import Record
from repro.data.schema import Schema
from repro.errors import DatasetError


@pytest.fixture()
def schema():
    return Schema.from_names("t", ["a", "b"])


def _ed(schema, label, target="a"):
    return EDInstance(
        record=Record(schema=schema, values={"a": "x", "b": "y"}),
        target_attribute=target,
        label=label,
    )


class TestTask:
    def test_short_names(self):
        assert Task.ERROR_DETECTION.short_name == "ED"
        assert Task.ENTITY_MATCHING.short_name == "EM"

    def test_metric_names(self):
        assert Task.DATA_IMPUTATION.metric_name == "accuracy"
        assert Task.SCHEMA_MATCHING.metric_name == "f1"

    def test_binary(self):
        assert not Task.DATA_IMPUTATION.is_binary
        assert Task.ERROR_DETECTION.is_binary


class TestDIInstance:
    def test_target_must_be_missing(self, schema):
        record = Record(schema=schema, values={"a": "x"})
        with pytest.raises(DatasetError):
            DIInstance(record=record, target_attribute="a", true_value="x")

    def test_valid(self, schema):
        record = Record(schema=schema, values={"b": "y"})
        inst = DIInstance(record=record, target_attribute="a", true_value="v")
        assert inst.true_value == "v"


class TestPreprocessingDataset:
    def test_task_mismatch_rejected(self, schema):
        record = Record(schema=schema, values={"b": "y"})
        di = DIInstance(record=record, target_attribute="a", true_value="v")
        with pytest.raises(DatasetError):
            PreprocessingDataset(
                name="x", task=Task.ERROR_DETECTION, instances=[di]
            )

    def test_positive_rate(self, schema):
        ds = PreprocessingDataset(
            name="x",
            task=Task.ERROR_DETECTION,
            instances=[_ed(schema, True), _ed(schema, False)],
        )
        assert ds.positive_rate == 0.5

    def test_sample_fewshot_zero(self, schema):
        ds = PreprocessingDataset(
            name="x", task=Task.ERROR_DETECTION,
            instances=[_ed(schema, True)],
            fewshot_pool=[_ed(schema, False)],
        )
        assert ds.sample_fewshot(0) == []

    def test_sample_fewshot_whole_pool(self, schema):
        pool = [_ed(schema, True), _ed(schema, False)]
        ds = PreprocessingDataset(
            name="x", task=Task.ERROR_DETECTION,
            instances=[_ed(schema, True)], fewshot_pool=pool,
        )
        assert len(ds.sample_fewshot(10)) == 2

    def test_sample_fewshot_stratified(self, schema):
        pool = [_ed(schema, True)] * 5 + [_ed(schema, False)] * 5
        ds = PreprocessingDataset(
            name="x", task=Task.ERROR_DETECTION,
            instances=[_ed(schema, True)], fewshot_pool=pool,
        )
        sample = ds.sample_fewshot(4, seed=3)
        labels = {i.label for i in sample}
        assert labels == {True, False}

    def test_sample_fewshot_deterministic(self, restaurant_dataset):
        a = restaurant_dataset.sample_fewshot(5, seed=1)
        b = restaurant_dataset.sample_fewshot(5, seed=1)
        assert [i.instance_id for i in a] == [i.instance_id for i in b]

    def test_subset(self, adult_dataset):
        small = adult_dataset.subset(10)
        assert len(small) == 10
        assert small.fewshot_pool == adult_dataset.fewshot_pool

    def test_subset_noop_when_bigger(self, restaurant_dataset):
        assert restaurant_dataset.subset(10**6) is restaurant_dataset


class TestHelpers:
    def test_ground_truth_labels_mixed(self, schema):
        ed = _ed(schema, True)
        record = Record(schema=schema, values={"b": "y"})
        di = DIInstance(record=record, target_attribute="a", true_value="v")
        assert ground_truth_labels([ed]) == [True]
        assert ground_truth_labels([di]) == ["v"]
