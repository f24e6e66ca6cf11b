"""Schemas and attributes.

The paper's data model (Section 2.1) operates on relational tables specified
by schemas; attributes are numerical (including binary) or textual (including
categorical).  Schema matching additionally represents each attribute as a
``(name, description)`` pair, so :class:`Attribute` carries an optional
human-readable description.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import SchemaError


class AttrType(enum.Enum):
    """Type of an attribute in the paper's data model."""

    NUMERIC = "numeric"
    TEXT = "text"
    CATEGORICAL = "categorical"
    BINARY = "binary"

    @property
    def is_numeric(self) -> bool:
        """Whether values of this type are numbers (binary counts as numeric)."""
        return self in (AttrType.NUMERIC, AttrType.BINARY)

    @property
    def is_textual(self) -> bool:
        """Whether values of this type are text (categorical counts as text)."""
        return self in (AttrType.TEXT, AttrType.CATEGORICAL)


@dataclass(frozen=True)
class Attribute:
    """A named, typed column of a relational schema.

    Parameters
    ----------
    name:
        Column name as it appears in prompts and CSV headers.
    type:
        One of :class:`AttrType`.
    description:
        Optional natural-language description.  Used by schema matching,
        where each attribute is presented as ``(name, description)``.
    """

    name: str
    type: AttrType = AttrType.TEXT
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Schema:
    """An ordered collection of uniquely named attributes.

    Supports lookup by name or position and projection onto a subset of
    attributes (used by feature selection).  Name lookups go through a
    name -> attribute index and a name -> position map, both built once
    in ``__post_init__``; neither is a dataclass field, so equality,
    hashing, ``asdict`` and ``replace`` see only ``name`` and
    ``attributes``.  A :class:`~repro.data.records.Record` keeps its cells
    in schema order and finds a name's cell through the position map.
    """

    name: str
    attributes: tuple[Attribute, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("schema name must be non-empty")
        index: dict[str, Attribute] = {}
        for attr in self.attributes:
            if attr.name in index:
                raise SchemaError(
                    f"duplicate attribute {attr.name!r} in schema {self.name!r}"
                )
            index[attr.name] = attr
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_names", tuple(index))
        object.__setattr__(
            self, "_positions", {name: i for i, name in enumerate(index)}
        )

    def __reduce__(self):
        # Pickle the fields only; unpickling rebuilds the lookup tables.
        return (type(self), (self.name, self.attributes))

    @classmethod
    def from_names(
        cls,
        name: str,
        attribute_names: list[str] | tuple[str, ...],
        types: dict[str, AttrType] | None = None,
    ) -> Schema:
        """Build a schema from bare attribute names.

        ``types`` optionally maps attribute names to :class:`AttrType`;
        unmapped attributes default to :data:`AttrType.TEXT`.
        """
        types = types or {}
        attrs = tuple(
            Attribute(n, types.get(n, AttrType.TEXT)) for n in attribute_names
        )
        return cls(name=name, attributes=attrs)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return self._names

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __contains__(self, name: object) -> bool:
        if isinstance(name, Attribute):
            name = name.name
        try:
            return name in self._index
        except TypeError:  # unhashable: no attribute has that name
            return False

    def __getitem__(self, key: str | int) -> Attribute:
        if isinstance(key, int):
            try:
                return self.attributes[key]
            except IndexError:
                raise SchemaError(
                    f"attribute index {key} out of range for schema {self.name!r} "
                    f"with {len(self)} attributes"
                ) from None
        try:
            return self._index[key]
        except (KeyError, TypeError):
            raise SchemaError(
                f"schema {self.name!r} has no attribute {key!r}"
            ) from None

    def index_of(self, name: str) -> int:
        """Position of attribute ``name`` in this schema."""
        try:
            return self._positions[name]
        except (KeyError, TypeError):
            raise SchemaError(
                f"schema {self.name!r} has no attribute {name!r}"
            ) from None

    def project(self, names: list[str] | tuple[str, ...]) -> Schema:
        """Return a new schema restricted to ``names``, preserving their order.

        Raises :class:`SchemaError` if any name is absent.  This is the
        schema-level operation behind feature selection (paper Section 3.4).
        """
        attrs = tuple(self[n] for n in names)
        return Schema(name=self.name, attributes=attrs)
