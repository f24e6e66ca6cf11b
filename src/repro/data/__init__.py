"""Relational data substrate: schemas, records, tables, and task instances.

This package provides the data model the paper operates on (Section 2.1):
relational tables specified by schemas, where every attribute is either
numerical (including binary) or textual (including categorical).
"""

from repro.data.schema import Attribute, AttrType, Schema
from repro.data.records import AttributePair, Record, RecordPair, Table
from repro.data.instances import (
    DIInstance,
    EDInstance,
    EMInstance,
    PreprocessingDataset,
    SMInstance,
    Task,
)

__all__ = [
    "Attribute",
    "AttrType",
    "Schema",
    "Record",
    "RecordPair",
    "AttributePair",
    "Table",
    "Task",
    "EDInstance",
    "DIInstance",
    "SMInstance",
    "EMInstance",
    "PreprocessingDataset",
]
