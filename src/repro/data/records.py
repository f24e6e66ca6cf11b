"""Records, record pairs, attribute pairs, and tables.

A :class:`Record` maps attribute names to cell values, tied to a
:class:`~repro.data.schema.Schema`, and stores the cells in schema order.
Missing values are represented by ``None`` (rendered as ``???`` by
contextualization, paper Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from repro.data.schema import Attribute, AttrType, Schema
from repro.errors import RecordError, SchemaError

#: Cell values are numbers, strings, or missing.
CellValue = float | int | str | None


def coerce_cell(value: Any, attr: Attribute) -> CellValue:
    """Coerce a raw value into a cell value consistent with ``attr``.

    Strings are stripped; empty strings become ``None`` (missing).  Numeric
    attributes accept ints/floats and numeric-looking strings; anything else
    is kept as text so that *erroneous* cells (the subject of error
    detection) can be represented faithfully.
    """
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
                return value  # an out-of-type value is data, not an error here
            return int(as_float) if as_float.is_integer() else as_float
        return value
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        if attr.type.is_numeric:
            return value
        return str(value)
    raise RecordError(
        f"unsupported cell value {value!r} of type {type(value).__name__} "
        f"for attribute {attr.name!r}"
    )


class Record:
    """A single row of a relational table.

    Access cells with ``record[name]``; missing cells read as ``None``.
    Records are mutable (error injection and imputation update them) but
    always validated against their schema on construction and assignment.

    The cells live in one list in schema order, and a name finds its cell
    through the schema's name -> position map, so a record holds no dict
    and no instance ``__dict__``.  Equality compares schema, cells and id
    (so the order the constructor's ``values`` came in does not matter);
    a record is mutable and therefore unhashable.
    """

    __slots__ = ("schema", "_cells", "record_id")

    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        schema: Schema,
        values: Mapping[str, Any] | None = None,
        record_id: str = "",
    ) -> None:
        self.schema = schema
        self.record_id = record_id
        cells: list[CellValue] = [None] * len(schema.attributes)
        if values:
            positions = schema._positions
            attributes = schema.attributes
            for name, value in values.items():
                position = positions.get(name)
                if position is None:
                    raise RecordError(
                        f"value for unknown attribute {name!r} "
                        f"(schema {schema.name!r})"
                    )
                cells[position] = coerce_cell(value, attributes[position])
        self._cells = cells

    def _position(self, name: str) -> int:
        try:
            return self.schema._positions[name]
        except (KeyError, TypeError):
            raise SchemaError(
                f"schema {self.schema.name!r} has no attribute {name!r}"
            ) from None

    def __getitem__(self, name: str) -> CellValue:
        return self._cells[self._position(name)]

    def __setitem__(self, name: str, value: Any) -> None:
        position = self._position(name)
        self._cells[position] = coerce_cell(
            value, self.schema.attributes[position]
        )

    def __contains__(self, name: object) -> bool:
        return name in self.schema

    def __iter__(self) -> Iterator[tuple[str, CellValue]]:
        return zip(self.schema.attribute_names, self._cells)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.schema, self._cells, self.record_id) == (
            other.schema, other._cells, other.record_id  # type: ignore[attr-defined]
        )

    def __repr__(self) -> str:
        return (
            f"Record(schema={self.schema!r}, values={self.to_dict()!r}, "
            f"record_id={self.record_id!r})"
        )

    def is_missing(self, name: str) -> bool:
        """Whether the cell for ``name`` is missing."""
        return self[name] is None

    @property
    def missing_attributes(self) -> tuple[str, ...]:
        return tuple(name for name, value in self if value is None)

    def copy(self) -> Record:
        """A deep-enough copy: cell values are immutable scalars.

        The cells go through the constructor's coercion again, as they
        always have: that turns an integer a text cell was given as a
        bool into its string.
        """
        return Record(self.schema, self.to_dict(), self.record_id)

    def project(self, names: list[str] | tuple[str, ...]) -> Record:
        """Record restricted to ``names`` (feature selection, Section 3.4)."""
        projected_schema = self.schema.project(names)
        return Record(
            projected_schema, {n: self[n] for n in names}, self.record_id
        )

    def with_missing(self, name: str) -> Record:
        """Copy of this record with the cell for ``name`` blanked out.

        Used to pose data-imputation questions without mutating the source.
        """
        out = self.copy()
        out._cells[out._position(name)] = None
        return out

    def to_dict(self) -> dict[str, CellValue]:
        return dict(zip(self.schema.attribute_names, self._cells))

    def __str__(self) -> str:
        inner = ", ".join(f"{n}={v!r}" for n, v in self)
        return f"Record({inner})"


@dataclass(frozen=True)
class RecordPair:
    """A pair of records, the unit of entity matching."""

    left: Record
    right: Record

    def __iter__(self) -> Iterator[Record]:
        yield self.left
        yield self.right


@dataclass(frozen=True)
class AttributePair:
    """A pair of attributes from two schemas, the unit of schema matching."""

    left: Attribute
    right: Attribute

    def __iter__(self) -> Iterator[Attribute]:
        yield self.left
        yield self.right


class Table:
    """A schema plus an ordered collection of records."""

    def __init__(self, schema: Schema, records: list[Record] | None = None):
        self.schema = schema
        self._records: list[Record] = []
        for record in records or []:
            self.append(record)

    def append(self, record: Record) -> None:
        if record.schema.attribute_names != self.schema.attribute_names:
            raise RecordError(
                f"record schema {record.schema.attribute_names} does not match "
                f"table schema {self.schema.attribute_names}"
            )
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def __getitem__(self, index: int) -> Record:
        return self._records[index]

    @property
    def records(self) -> tuple[Record, ...]:
        return tuple(self._records)

    def column(self, name: str) -> list[CellValue]:
        """All values of attribute ``name`` in row order."""
        if name not in self.schema:
            raise SchemaError(
                f"schema {self.schema.name!r} has no attribute {name!r}"
            )
        return [r[name] for r in self._records]

    def distinct(self, name: str) -> set[CellValue]:
        """Distinct non-missing values of attribute ``name``."""
        return {v for v in self.column(name) if v is not None}

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: list[Mapping[str, Any]],
        id_prefix: str = "r",
    ) -> Table:
        """Build a table from a list of dict-like rows."""
        records = [
            Record(schema=schema, values=dict(row), record_id=f"{id_prefix}{i}")
            for i, row in enumerate(rows)
        ]
        return cls(schema, records)


def infer_schema(name: str, rows: list[Mapping[str, Any]]) -> Schema:
    """Infer a schema from raw rows: numeric if every non-missing value parses.

    Intended for loading external CSVs whose types are unknown.
    """
    if not rows:
        raise SchemaError("cannot infer a schema from zero rows")
    names: list[str] = list(rows[0].keys())
    types: dict[str, AttrType] = {}
    for attr_name in names:
        numeric = True
        saw_value = False
        for row in rows:
            value = row.get(attr_name)
            if value is None or value == "":
                continue
            saw_value = True
            try:
                float(value)
            except (TypeError, ValueError):
                numeric = False
                break
        types[attr_name] = (
            AttrType.NUMERIC if (numeric and saw_value) else AttrType.TEXT
        )
    return Schema.from_names(name, names, types)
