"""Tests for repro.core.contextualize."""

import pytest

from repro.core.contextualize import (
    parse_record_pair,
    parse_serialized_record,
    serialize_attribute,
    serialize_instance,
    serialize_record,
)
from repro.data.instances import EMInstance, SMInstance
from repro.data.records import AttributePair, Record, RecordPair
from repro.data.schema import Attribute, Schema
from repro.errors import PromptError


class TestSerializeRecord:
    def test_paper_format(self, alice):
        text = serialize_record(alice)
        assert text == '[name: "alice", age: "30", city: "boston"]'

    def test_missing_rendered_as_question_marks(self, people_schema):
        record = Record(schema=people_schema, values={"name": "x"})
        text = serialize_record(record)
        assert "age: ???" in text
        assert '"???"' not in text


class TestRoundtrip:
    def test_parse_inverts_serialize(self, alice):
        fields = parse_serialized_record(serialize_record(alice))
        assert fields == {"name": "alice", "age": "30", "city": "boston"}

    def test_missing_roundtrip(self, people_schema):
        record = Record(schema=people_schema, values={"name": "x"})
        fields = parse_serialized_record(serialize_record(record))
        assert fields["age"] is None
        assert fields["name"] == "x"

    def test_surrounding_text_tolerated(self, alice):
        text = f"Question 3: Record is {serialize_record(alice)}. What is it?"
        fields = parse_serialized_record(text)
        assert fields["city"] == "boston"

    def test_no_record_raises(self):
        with pytest.raises(PromptError):
            parse_serialized_record("no brackets here")

    def test_empty_brackets_raise(self):
        with pytest.raises(PromptError):
            parse_serialized_record("[]")


class TestParseEdgeCases:
    def test_empty_quoted_value_is_an_empty_string(self):
        assert parse_serialized_record('[a: "", b: "x"]') == {"a": "", "b": "x"}

    def test_question_marks_are_missing(self):
        assert parse_serialized_record("[a: ???, b: ???]") == {
            "a": None, "b": None,
        }

    def test_escaped_quote_is_kept_verbatim(self):
        fields = parse_serialized_record(r'[a: "say \"hi\"", b: "2"]')
        assert fields == {"a": r'say \"hi\"', "b": "2"}

    def test_repeated_name_is_last_wins_in_first_position(self):
        fields = parse_serialized_record('[a: "1", b: "2", a: "3"]')
        assert fields == {"a": "3", "b": "2"}
        assert list(fields) == ["a", "b"]

    def test_surrounding_text_and_padding_are_tolerated(self):
        text = 'Question 9: Record is [ name :  "x" ,age: ???]. Is it?'
        assert parse_serialized_record(text) == {"name": "x", "age": None}

    def test_only_the_outermost_brackets_bound_the_record(self):
        text = 'lead [a: "[1]", b: "c]d"] tail'
        assert parse_serialized_record(text) == {"a": "[1]", "b": "c]d"}


class TestPairSerialization:
    def test_em_instance(self, alice):
        inst = EMInstance(pair=RecordPair(alice, alice.copy()), label=True)
        text = serialize_instance(inst)
        assert text.startswith("Record A is [")
        assert "Record B is [" in text
        left, right = parse_record_pair(text)
        assert left["name"] == right["name"] == "alice"

    def test_sm_instance(self):
        pair = AttributePair(
            Attribute("dob", description="date of birth"),
            Attribute("birth_date", description="birth date"),
        )
        inst = SMInstance(pair=pair, label=True)
        text = serialize_instance(inst)
        assert 'name: "dob"' in text
        left, right = parse_record_pair(text)
        assert left["name"] == "dob"
        assert right["description"] == "birth date"

    def test_missing_second_record_raises(self):
        with pytest.raises(PromptError):
            parse_record_pair('Record A is [a: "1"]. nothing else')


class TestSerializeAttribute:
    def test_format(self):
        text = serialize_attribute(Attribute("x", description="desc"))
        assert text == '[name: "x", description: "desc"]'
