"""Property tests for the indexed data model: schemas and record coercion.

A :class:`Schema` answers name lookups from an index built once, and a
:class:`Record` coerces its cells through those lookups.  These
properties hold both to the linear scans the index replaces: the same
answers, the same errors, the same cell values (types and key order
included), and the same dataclass behaviour (equality, hashing,
``asdict``, ``replace``, pickling).
"""

import copy
import dataclasses
import pickle
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.records import Record
from repro.data.schema import Attribute, AttrType, Schema
from repro.errors import RecordError, SchemaError
from repro.obs.manifest import jsonable

names = st.text(alphabet=string.ascii_lowercase + "_- .'é", min_size=1, max_size=8)
attributes = st.builds(
    Attribute,
    name=names,
    type=st.sampled_from(list(AttrType)),
    description=st.text(max_size=12),
)
schemas = st.builds(
    Schema,
    name=names,
    attributes=st.lists(
        attributes, max_size=8, unique_by=lambda attr: attr.name
    ).map(tuple),
)
cells = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["", " ", "???", " ??? ", "12", " 3.5 ", "1e3", "x", "-0"]),
    st.text(max_size=10),
)


def _scan_get(schema, name):
    for attr in schema.attributes:
        if attr.name == name:
            return attr
    return None


# --- the coercion before the schema index, kept as the reference ---------

def _reference_coerce_cell(value, attr):
    if value is None:
        return None
    if isinstance(value, str):
        value = value.strip()
        if value == "" or value == "???":
            return None
        if attr.type.is_numeric:
            try:
                as_float = float(value)
            except ValueError:
                return value
            return int(as_float) if as_float.is_integer() else as_float
        return value
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        if attr.type.is_numeric:
            return value
        return str(value)
    raise RecordError(f"unsupported cell value {value!r}")


def _reference_values(schema, values):
    coerced = {}
    for name, value in values.items():
        if name not in tuple(a.name for a in schema.attributes):
            raise RecordError(f"value for unknown attribute {name!r}")
        coerced[name] = _reference_coerce_cell(value, _scan_get(schema, name))
    for attr in schema.attributes:
        coerced.setdefault(attr.name, None)
    return coerced


def _typed(values):
    return [(name, type(value), value) for name, value in values.items()]


class TestSchemaLookups:
    @given(schemas, st.lists(names, max_size=6))
    def test_lookups_agree_with_linear_scans(self, schema, probes):
        scanned_names = tuple(attr.name for attr in schema.attributes)
        assert schema.attribute_names == scanned_names
        for probe in [*scanned_names, *probes]:
            expected = _scan_get(schema, probe)
            assert (probe in schema) == (expected is not None)
            if expected is None:
                with pytest.raises(SchemaError):
                    schema[probe]
                with pytest.raises(SchemaError):
                    schema.index_of(probe)
            else:
                assert schema[probe] is expected
                assert schema.index_of(probe) == scanned_names.index(probe)
                assert schema.attributes[schema.index_of(probe)] is expected
        for attr in schema.attributes:
            assert attr in schema
        assert [] not in schema  # unhashable: simply absent

    @given(schemas)
    def test_positions_still_index_the_attributes(self, schema):
        for position, attr in enumerate(schema.attributes):
            assert schema[position] is attr
        with pytest.raises(SchemaError):
            schema[len(schema.attributes)]

    @given(schemas, st.data())
    def test_projection_matches_its_names(self, schema, data):
        chosen = data.draw(st.permutations(schema.attribute_names))
        chosen = chosen[: data.draw(st.integers(0, len(chosen)))]
        projected = schema.project(chosen)
        assert projected.attribute_names == tuple(chosen)
        assert projected == Schema(
            schema.name, tuple(_scan_get(schema, n) for n in chosen)
        )

    @given(schemas)
    def test_duplicates_are_still_refused(self, schema):
        if schema.attributes:
            with pytest.raises(SchemaError):
                Schema(schema.name, schema.attributes + schema.attributes[:1])


class TestSchemaIsStillAPlainDataclass:
    @given(schemas)
    def test_equality_and_hash_see_only_the_fields(self, schema):
        twin = Schema(schema.name, tuple(schema.attributes))
        assert twin == schema
        assert hash(twin) == hash(schema) == hash((schema.name, schema.attributes))
        assert [field.name for field in dataclasses.fields(schema)] == [
            "name", "attributes",
        ]

    @given(schemas)
    def test_asdict_and_jsonable(self, schema):
        assert dataclasses.asdict(schema) == {
            "name": schema.name,
            "attributes": tuple(
                dataclasses.asdict(attr) for attr in schema.attributes
            ),
        }
        assert jsonable(schema) == {
            "name": schema.name,
            "attributes": [
                {"name": a.name, "type": a.type.name, "description": a.description}
                for a in schema.attributes
            ],
        }

    @given(schemas)
    @settings(max_examples=50)
    def test_pickle_and_copy_rebuild_a_working_index(self, schema):
        for clone in (
            pickle.loads(pickle.dumps(schema)),
            copy.copy(schema),
            copy.deepcopy(schema),
        ):
            assert clone == schema
            assert clone.attribute_names == schema.attribute_names
            for attr in schema.attributes:
                assert clone[attr.name] == attr

    @given(schemas, names)
    def test_replace_rebuilds_the_index(self, schema, new_name):
        renamed = dataclasses.replace(schema, name=new_name)
        assert renamed.name == new_name
        assert renamed.attribute_names == schema.attribute_names
        kept = dataclasses.replace(schema, attributes=schema.attributes[1:])
        assert kept.attribute_names == schema.attribute_names[1:]
        for attr in schema.attributes[:1]:
            assert attr.name not in kept


class TestRecordCoercion:
    @given(schemas, st.data())
    def test_values_equal_the_scanning_coercion(self, schema, data):
        provided = data.draw(st.permutations(schema.attribute_names))
        provided = provided[: data.draw(st.integers(0, len(provided)))]
        values = {name: data.draw(cells) for name in provided}
        record = Record(schema=schema, values=dict(values))
        assert _typed(record.values) == _typed(_reference_values(schema, values))
        assert list(record) == [
            (attr.name, record.values[attr.name]) for attr in schema.attributes
        ]

    @given(schemas, names, cells)
    def test_unknown_attribute_is_refused(self, schema, name, value):
        if name in schema.attribute_names:
            return
        with pytest.raises(RecordError):
            Record(schema=schema, values={name: value})
        with pytest.raises(RecordError):
            _reference_values(schema, {name: value})
