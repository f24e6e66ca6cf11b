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

MISSING_TOKEN = "???"


def serialize_record(record: Record) -> str:
    """Render a record as ``[a: "1", b: ???, ...]``."""
    parts = []
    for name, value in record:
        if value is None:
            parts.append(f"{name}: {MISSING_TOKEN}")
        else:
            parts.append(f'{name}: "{value}"')
    return "[" + ", ".join(parts) + "]"


def serialize_attribute(attribute: Attribute) -> str:
    """Render an SM attribute as ``[name: "...", description: "..."]``."""
    return (
        f'[name: "{attribute.name}", description: "{attribute.description}"]'
    )


def serialize_instance(instance: Instance) -> str:
    """Render any task's data instance as the prompt text fragment."""
    if isinstance(instance, (EDInstance, DIInstance)):
        return serialize_record(instance.record)
    if isinstance(instance, EMInstance):
        left = serialize_record(instance.pair.left)
        right = serialize_record(instance.pair.right)
        return f"Record A is {left}. Record B is {right}"
    if isinstance(instance, SMInstance):
        left = serialize_attribute(instance.pair.left)
        right = serialize_attribute(instance.pair.right)
        return f"Attribute A is {left}. Attribute B is {right}"
    raise PromptError(f"cannot serialize instance type {type(instance).__name__}")


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
    inner = text[start + 1 : end]
    fields: dict[str, str | None] = {}
    for match in _FIELD_RE.finditer(inner):
        name = match.group("name").strip()
        if match.group("missing") is not None:
            fields[name] = None
        else:
            fields[name] = match.group("value")
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
