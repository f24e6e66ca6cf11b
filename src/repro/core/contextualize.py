"""Contextualization (paper Section 3.3).

Converts a data instance into the text sequence::

    [x1.name: "x1.value", ..., xn.name: "xn.value"]

Missing values are rendered as ``???`` (unquoted); schema-matching
attributes are rendered with ``name`` and ``description`` fields.  The
inverse operation — parsing the serialization back into attribute/value
pairs — lives here too, because the *simulated* LLM must read the very
same text a real LLM would receive (it gets no side channel).
"""

from __future__ import annotations

import hashlib
import re
from typing import Iterable

from repro.data.instances import (
    DIInstance,
    EDInstance,
    EMInstance,
    Instance,
    SMInstance,
)
from repro.data.records import Record
from repro.data.schema import Attribute
from repro.errors import PromptError
from repro.text.tokenize import count_part, count_tokens

MISSING_TOKEN = "???"

#: token counts of a bracketed field list's punctuation
_BRACKETS_TOKENS = count_tokens("[]")
_SEPARATOR_TOKENS = count_tokens(", ")


def _record_fields(record: Record) -> list[str]:
    return [
        f"{name}: {MISSING_TOKEN}" if value is None else f'{name}: "{value}"'
        for name, value in record
    ]


def _attribute_fields(attribute: Attribute) -> list[str]:
    return [
        f'name: "{attribute.name}"',
        f'description: "{attribute.description}"',
    ]


def _bracketed(fields: list[str]) -> str:
    return "[" + ", ".join(fields) + "]"


def _bracketed_tokens(fields: list[str]) -> int:
    """``count_tokens(_bracketed(fields))``, summed over its parts.

    A field starts after ``[`` or a space and ends in ``"`` or ``?``, so
    each field is a token-safe part (:func:`~repro.text.tokenize.count_part`)
    whatever its value holds.
    """
    return (
        _BRACKETS_TOKENS
        + _SEPARATOR_TOKENS * max(len(fields) - 1, 0)
        + sum(map(count_part, fields))
    )


def _sides(instance: Instance) -> tuple[tuple[str, list[str]], ...]:
    """The instance as (lead, fields) pairs; its text is each lead followed
    by its bracketed fields."""
    if isinstance(instance, (EDInstance, DIInstance)):
        return (("", _record_fields(instance.record)),)
    if isinstance(instance, EMInstance):
        return (
            ("Record A is ", _record_fields(instance.pair.left)),
            (". Record B is ", _record_fields(instance.pair.right)),
        )
    if isinstance(instance, SMInstance):
        return (
            ("Attribute A is ", _attribute_fields(instance.pair.left)),
            (". Attribute B is ", _attribute_fields(instance.pair.right)),
        )
    raise PromptError(f"cannot serialize instance type {type(instance).__name__}")


def serialize_record(record: Record) -> str:
    """Render a record as ``[a: "1", b: ???, ...]``."""
    return _bracketed(_record_fields(record))


def serialize_attribute(attribute: Attribute) -> str:
    """Render an SM attribute as ``[name: "...", description: "..."]``."""
    return _bracketed(_attribute_fields(attribute))


def serialize_instance(instance: Instance) -> str:
    """Render any task's data instance as the prompt text fragment."""
    return "".join(lead + _bracketed(fields) for lead, fields in _sides(instance))


def serialize_counted(instance: Instance) -> tuple[str, int]:
    """:func:`serialize_instance` and the text's token count.

    The count equals ``count_tokens(text)`` but is summed over the text's
    token-safe parts: each field through the bounded
    :func:`~repro.text.tokenize.count_part` memo, plus the brackets,
    commas and pair leads.  Fields repeat across a dataset's records, so
    most of them are counted once per process.
    """
    sides = _sides(instance)
    text = "".join(lead + _bracketed(fields) for lead, fields in sides)
    tokens = sum(
        count_part(lead) + _bracketed_tokens(fields) for lead, fields in sides
    )
    return text, tokens


def instances_digest(
    instances: Iterable[Instance], fewshot: Iterable[Instance]
) -> str:
    """Content digest over serialized instances, then few-shot examples.

    Each serialization is followed by ``\\x00`` and ``\\x01`` fences the
    few-shot part; hashed with 16-byte blake2b.  A journal header and a
    shard plan seal the data they were computed from with it.
    """
    digest = hashlib.blake2b(digest_size=16)
    for instance in instances:
        digest.update(serialize_instance(instance).encode("utf-8"))
        digest.update(b"\x00")
    digest.update(b"\x01")
    for example in fewshot:
        digest.update(serialize_instance(example).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


# --- the inverse: what the simulated LLM reads ---------------------------

_FIELD_RE = re.compile(
    r'(?P<name>[\w\-. ]+?):\s*(?:"(?P<value>(?:[^"\\]|\\.)*)"|(?P<missing>\?\?\?))'
)


def parse_serialized_record(text: str) -> dict[str, str | None]:
    """Parse ``[a: "1", b: ???]`` back into ``{"a": "1", "b": None}``.

    Tolerant of surrounding text; raises :class:`PromptError` if no fields
    are found — that means the prompt was malformed.
    """
    start = text.find("[")
    end = text.rfind("]")
    if start == -1 or end == -1 or end <= start:
        raise PromptError(f"no [..] record found in: {text[:120]!r}")
    fields: dict[str, str | None] = {
        name.strip(): None if missing else value
        for name, value, missing in _FIELD_RE.findall(text, start + 1, end)
    }
    if not fields:
        raise PromptError(f"no fields parsed from: {text[:120]!r}")
    return fields


def parse_record_pair(text: str) -> tuple[dict[str, str | None], dict[str, str | None]]:
    """Parse ``Record A is [...]. Record B is [...]`` (or Attribute A/B)."""
    marker_b = None
    for candidate in ("Record B is", "Attribute B is"):
        index = text.find(candidate)
        if index != -1:
            marker_b = index
            break
    if marker_b is None:
        raise PromptError(f"no second record found in: {text[:120]!r}")
    left = parse_serialized_record(text[:marker_b])
    right = parse_serialized_record(text[marker_b:])
    return left, right
