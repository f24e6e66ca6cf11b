"""Property tests for the indexed data model: schemas and record coercion.

A :class:`Schema` answers name lookups from an index built once, and a
:class:`Record` coerces its cells through those lookups.  These
properties hold both to the linear scans the index replaces: the same
answers, the same errors, the same cell values (types and schema order
included), and the same dataclass behaviour (equality, hashing,
``asdict``, ``replace``, pickling).  A record keeps its cells in one list;
:class:`TestRecordLayout` holds every record operation to the dict of
cells records used to keep, rebuilt here as the reference.
"""

import copy
import dataclasses
import pickle
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.instances import DIInstance, EDInstance, EMInstance, SMInstance
from repro.data.records import AttributePair, Record, RecordPair
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


def _typed(pairs):
    return [(name, type(value), value) for name, value in pairs]


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
        reference = _reference_values(schema, values)
        assert _typed(record) == _typed(
            (attr.name, reference[attr.name]) for attr in schema.attributes
        )

    @given(schemas, names, cells)
    def test_unknown_attribute_is_refused(self, schema, name, value):
        if name in schema.attribute_names:
            return
        with pytest.raises(RecordError):
            Record(schema=schema, values={name: value})
        with pytest.raises(RecordError):
            _reference_values(schema, {name: value})


# --- the dict-of-cells record layout, kept as the reference ---------------

class _DictRecord:
    """A record as a dict of coerced cells: input order, then the blanks."""

    def __init__(self, schema, values=None, record_id=""):
        self.schema = schema
        self.values = _reference_values(schema, dict(values or {}))
        self.record_id = record_id

    def _check(self, name):
        if name not in _names_of(self.schema):
            raise SchemaError(f"no attribute {name!r}")

    def get(self, name):
        self._check(name)
        return self.values.get(name)

    def set(self, name, value):
        self._check(name)
        self.values[name] = _reference_coerce_cell(
            value, _scan_get(self.schema, name)
        )

    def items(self):
        return [(a.name, self.values.get(a.name)) for a in self.schema.attributes]

    def copy(self):
        return _DictRecord(self.schema, dict(self.values), self.record_id)

    def project(self, names):
        return _DictRecord(
            self.schema.project(names),
            {n: self.values.get(n) for n in names},
            self.record_id,
        )

    def with_missing(self, name):
        out = self.copy()
        out.values[name] = None
        return out

    def __eq__(self, other):
        return (self.schema, self.values, self.record_id) == (
            other.schema, other.values, other.record_id
        )


def _names_of(schema):
    return tuple(attr.name for attr in schema.attributes)


def _same(record, reference):
    assert record.schema == reference.schema
    assert record.record_id == reference.record_id
    assert _typed(record) == _typed(reference.items())
    assert _typed(record.to_dict().items()) == _typed(reference.items())
    assert record.missing_attributes == tuple(
        name for name, value in reference.items() if value is None
    )


@st.composite
def _provided(draw, schema):
    """Some of ``schema``'s names in a random order, each with a raw cell."""
    order = draw(st.permutations(schema.attribute_names))
    order = order[: draw(st.integers(0, len(order)))]
    return {name: draw(cells) for name in order}


record_ids = st.text(max_size=6)


class TestRecordLayout:
    @given(schemas, st.data(), record_ids, st.lists(names, max_size=4))
    def test_reads_match_the_dict_layout(self, schema, data, record_id, probes):
        values = data.draw(_provided(schema))
        record = Record(schema, dict(values), record_id)
        reference = _DictRecord(schema, values, record_id)
        _same(record, reference)
        for name in [*schema.attribute_names, *probes]:
            assert (name in record) == (name in _names_of(schema))
            if name in _names_of(schema):
                assert _typed([(name, record[name])]) == _typed(
                    [(name, reference.get(name))]
                )
                assert record.is_missing(name) == (reference.get(name) is None)
            else:
                with pytest.raises(SchemaError):
                    record[name]
                with pytest.raises(SchemaError):
                    reference.get(name)

    @given(schemas, st.data(), st.lists(st.tuples(names, cells), max_size=8))
    def test_assignment_coerces_like_the_dict_layout(
        self, schema, data, assignments
    ):
        values = data.draw(_provided(schema))
        record = Record(schema, dict(values))
        reference = _DictRecord(schema, values)
        known = list(schema.attribute_names)
        for probe, value in assignments:
            name = data.draw(st.sampled_from(known)) if known else probe
            if name in known:
                record[name] = value
                reference.set(name, value)
            else:
                with pytest.raises(SchemaError):
                    record[name] = value
            _same(record, reference)
            assert (record == Record(schema, record.to_dict())) == (
                reference == _DictRecord(schema, dict(reference.values))
            )

    @given(schemas, st.data(), record_ids)
    def test_copy_is_independent_and_with_missing_blanks_one_cell(
        self, schema, data, record_id
    ):
        values = data.draw(_provided(schema))
        record = Record(schema, dict(values), record_id)
        reference = _DictRecord(schema, values, record_id)
        twin = record.copy()
        _same(twin, reference.copy())
        # a copy re-coerces: an int a text cell got as a bool turns str
        assert (twin == record) == (reference.copy() == reference)
        assert twin is not record
        for name in schema.attribute_names:
            twin[name] = "changed"
            blanked = record.with_missing(name)
            _same(blanked, reference.with_missing(name))
            assert blanked[name] is None
        _same(record, reference)  # neither the copy nor a blank touched it
        with pytest.raises(SchemaError):
            record.with_missing("not an attribute name")

    @given(schemas, st.data())
    def test_projection_matches_the_dict_layout(self, schema, data):
        values = data.draw(_provided(schema))
        chosen = data.draw(st.permutations(schema.attribute_names))
        chosen = chosen[: data.draw(st.integers(0, len(chosen)))]
        record = Record(schema, dict(values), "r1")
        _same(
            record.project(chosen),
            _DictRecord(schema, values, "r1").project(chosen),
        )

    @given(schemas, st.data(), record_ids)
    def test_equality_ignores_input_order_and_records_stay_unhashable(
        self, schema, data, record_id
    ):
        values = data.draw(_provided(schema))
        shuffled = dict(
            (name, values[name])
            for name in data.draw(st.permutations(list(values)))
        )
        first = Record(schema, values, record_id)
        second = Record(schema, shuffled, record_id)
        assert first == second
        other = data.draw(_provided(schema))
        assert (Record(schema, other, record_id) == first) == (
            _DictRecord(schema, other, record_id)
            == _DictRecord(schema, values, record_id)
        )
        assert first != Record(schema, values, record_id + "x")
        assert first != dict(first)
        with pytest.raises(TypeError):
            hash(first)

    @given(schemas, cells, names)
    def test_unknown_names_are_refused(self, schema, value, name):
        if name in schema.attribute_names:
            return
        record = Record(schema)
        with pytest.raises(RecordError):
            Record(schema, {name: value})
        with pytest.raises(SchemaError):
            record[name]
        with pytest.raises(SchemaError):
            record[name] = value
        assert name not in record
        assert not hasattr(record, "__dict__")

    @given(schemas, st.data(), record_ids)
    @settings(max_examples=50)
    def test_records_and_instances_pickle_round_trip(
        self, schema, data, record_id
    ):
        values = data.draw(_provided(schema))
        record = Record(schema, dict(values), record_id)
        reference = _DictRecord(schema, values, record_id)
        for clone in (
            pickle.loads(pickle.dumps(record)),
            copy.deepcopy(record),
        ):
            assert clone == record
            _same(clone, reference)
            if schema.attribute_names:
                clone[schema.attribute_names[0]] = None
                assert record[schema.attribute_names[0]] == reference.get(
                    schema.attribute_names[0]
                )
        instances = [
            SMInstance(
                AttributePair(Attribute("a", description="x"), Attribute("b")),
                label=True, instance_id="sm-0",
            ),
            EMInstance(RecordPair(record, record.copy()), label=False),
        ]
        if schema.attribute_names:
            target = schema.attribute_names[-1]
            instances += [
                EDInstance(record, target, label=True, clean_value="v"),
                DIInstance(record.with_missing(target), target, "v", "di-0"),
            ]
        for instance in instances:
            clone = pickle.loads(pickle.dumps(instance))
            assert type(clone) is type(instance)
            assert clone == instance
            assert clone.task is instance.task
            assert not hasattr(instance, "__dict__")
            assert not hasattr(clone, "__dict__")
