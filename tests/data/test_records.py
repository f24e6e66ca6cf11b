"""Tests for repro.data.records."""

import pickle

import pytest

from repro.data.records import (
    Record,
    RecordPair,
    Table,
    coerce_cell,
)
from repro.data.schema import Attribute, AttrType, Schema
from repro.errors import RecordError, SchemaError


class TestCoerceCell:
    def test_empty_string_is_missing(self):
        assert coerce_cell("", Attribute("a")) is None
        assert coerce_cell("   ", Attribute("a")) is None

    def test_question_marks_are_missing(self):
        assert coerce_cell("???", Attribute("a")) is None

    def test_numeric_string_coerced_for_numeric_attr(self):
        attr = Attribute("n", AttrType.NUMERIC)
        assert coerce_cell("42", attr) == 42
        assert coerce_cell("4.5", attr) == 4.5

    def test_non_numeric_string_kept_in_numeric_attr(self):
        # Erroneous cells must be representable: "42x" stays text.
        attr = Attribute("n", AttrType.NUMERIC)
        assert coerce_cell("42x", attr) == "42x"

    def test_nan_string_kept_as_text_in_numeric_attr(self):
        # A NaN cell would make a record unequal to its own pickled copy.
        attr = Attribute("n", AttrType.NUMERIC)
        assert coerce_cell(" NaN ", attr) == "NaN"
        record = Record(Schema("s", (attr,)), {"n": "nan"})
        assert pickle.loads(pickle.dumps(record)) == record

    def test_bool_becomes_int(self):
        assert coerce_cell(True, Attribute("b", AttrType.BINARY)) == 1

    def test_number_in_text_attr_becomes_string(self):
        assert coerce_cell(7, Attribute("t")) == "7"

    def test_unsupported_type_raises(self):
        with pytest.raises(RecordError):
            coerce_cell(["list"], Attribute("a"))


class TestRecord:
    def test_unknown_attribute_rejected(self, people_schema):
        with pytest.raises(RecordError):
            Record(schema=people_schema, values={"nope": 1})

    def test_all_attributes_present_after_init(self, people_schema):
        record = Record(schema=people_schema, values={"name": "x"})
        assert record["age"] is None
        assert record["city"] is None

    def test_setitem_validates(self, alice):
        alice["age"] = 31
        assert alice["age"] == 31
        with pytest.raises(SchemaError):
            alice["zz"] = 1

    def test_getitem_unknown_raises(self, alice):
        with pytest.raises(SchemaError):
            alice["zz"]

    def test_missing_helpers(self, people_schema):
        record = Record(schema=people_schema, values={"name": "x"})
        assert record.is_missing("age")
        assert set(record.missing_attributes) == {"age", "city"}

    def test_copy_is_independent(self, alice):
        clone = alice.copy()
        clone["name"] = "bob"
        assert alice["name"] == "alice"

    def test_project(self, alice):
        projected = alice.project(["city", "name"])
        assert projected.schema.attribute_names == ("city", "name")
        assert projected["city"] == "boston"

    def test_with_missing(self, alice):
        blanked = alice.with_missing("city")
        assert blanked["city"] is None
        assert alice["city"] == "boston"

    def test_iteration_follows_schema_order(self, alice):
        assert [name for name, __ in alice] == ["name", "age", "city"]

    def test_to_dict(self, alice):
        assert alice.to_dict() == {"name": "alice", "age": 30, "city": "boston"}


class TestTable:
    def test_append_checks_schema(self, people_schema, alice):
        other = Schema.from_names("other", ["x"])
        table = Table(people_schema)
        table.append(alice)
        with pytest.raises(RecordError):
            table.append(Record(schema=other, values={"x": 1}))

    def test_column_and_distinct(self, people_schema):
        table = Table.from_rows(
            people_schema,
            [{"name": "a", "city": "x"}, {"name": "b", "city": "x"}],
        )
        assert table.column("city") == ["x", "x"]
        assert table.distinct("city") == {"x"}

    def test_column_unknown_raises(self, people_schema):
        table = Table(people_schema)
        with pytest.raises(SchemaError):
            table.column("zz")

    def test_indexing(self, people_schema, alice):
        table = Table(people_schema, [alice])
        assert table[0]["name"] == "alice"
        assert len(table) == 1


class TestRecordPair:
    def test_iteration(self, alice):
        pair = RecordPair(alice, alice.copy())
        left, right = pair
        assert left is alice
