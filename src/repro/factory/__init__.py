"""Schema-driven dataset factory: unlimited scenarios beyond the 12 benchmarks.

A YAML (or in-code) schema declares tables, typed columns with realistic
distributions, foreign keys, and a task with error-injection /
match-hardness knobs; the factory turns it into a streaming benchmark
generator whose every row and instance is a pure function of
``(schema fingerprint, size, seed)``.  See ``DESIGN.md`` §15.
"""

from repro.factory.adapter import SchemaGenerator, schema_generator_from_file
from repro.factory.generate import DatasetFactory, TableStream
from repro.factory.instances import InstanceFactory
from repro.factory.model import (
    ColumnSpec,
    Distribution,
    FactorySchema,
    HardnessSpec,
    KNOWN_FAMILIES,
    TableSpec,
    TaskSpec,
)
from repro.factory.ocr import (
    GLYPH_CONFUSIONS,
    OCR_KINDS,
    apply_ocr,
    broken_line,
    garble_glyphs,
    merged_column,
)
from repro.factory.presets import PRESET_NAMES, preset
from repro.factory.spec import dump_schema, load_schema, load_schema_file

__all__ = [
    "ColumnSpec",
    "DatasetFactory",
    "Distribution",
    "FactorySchema",
    "GLYPH_CONFUSIONS",
    "HardnessSpec",
    "InstanceFactory",
    "KNOWN_FAMILIES",
    "OCR_KINDS",
    "PRESET_NAMES",
    "SchemaGenerator",
    "TableSpec",
    "TableStream",
    "TaskSpec",
    "apply_ocr",
    "broken_line",
    "dump_schema",
    "garble_glyphs",
    "load_schema",
    "load_schema_file",
    "merged_column",
    "preset",
    "schema_generator_from_file",
]
