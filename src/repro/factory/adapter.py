"""``SchemaGenerator``: factory schemas behind the ``DatasetGenerator`` API.

The adapter is what lets the rest of the system — pipelines, flows,
sharding, serving, the CLI — consume factory datasets *unchanged*: a
schema becomes a generator with a ``name``, ``task`` and
``default_size``, loadable through ``load_dataset`` like the twelve
hand-written benchmarks.  Two registry-facing details matter:

- ``cache_token`` is the schema fingerprint, so the dataset cache keys
  on schema *content*, not just the registered name — two different
  schemas under the same name (or one schema file edited between loads)
  can never alias (the registry collision fixed in this PR);
- ``iter_instances`` exposes the streaming path: instances arrive one at
  a time, in index order, without a list ever materializing — the
  million-row path ``repro.eval gen`` and streamed shard planning use.
"""

from __future__ import annotations

import random

from repro.data.instances import Instance, Task
from repro.datasets.base import DatasetGenerator
from repro.errors import DatasetError
from repro.factory.generate import DatasetFactory
from repro.factory.instances import InstanceFactory
from repro.factory.model import FactorySchema
from repro.factory.spec import load_schema_file


class SchemaGenerator(DatasetGenerator):
    """A :class:`~repro.factory.model.FactorySchema` as a dataset generator."""

    def __init__(self, schema: FactorySchema, name: str | None = None):
        self.schema = schema
        self.name = name or schema.name
        self.task = Task(schema.task.kind)
        self.default_size = schema.table(schema.task.table).rows
        self.fingerprint = schema.fingerprint
        self.description = (
            f"factory schema {schema.name!r} "
            f"(fingerprint {schema.fingerprint}, task {self.task.short_name})"
        )
        self._active_seed: int | None = None

    @property
    def cache_token(self) -> str:
        """The schema fingerprint — the registry folds it into cache keys."""
        return self.fingerprint

    def generate(self, size: int | None = None, seed: int = 0):
        # The base class owns sizing and few-shot carving; instances
        # themselves are pure functions of (fingerprint, seed, index), so
        # the seed must reach _generate_instances as a value, not only as
        # the base rng's state.
        self._active_seed = seed
        try:
            return super().generate(size=size, seed=seed)
        finally:
            self._active_seed = None

    def _generate_instances(
        self, count: int, rng: random.Random
    ) -> list[Instance]:
        seed = self._active_seed if self._active_seed is not None else 0
        return list(InstanceFactory(self.schema, seed=seed).iter_instances(count))

    # -- streaming --------------------------------------------------------

    def iter_instances(self, count: int, seed: int = 0):
        """Stream ``count`` instances without materializing them.

        This is the raw per-index stream: identical bytes to the total
        ``generate`` draws from (instance ``i`` here *is* instance ``i``
        there) — ``generate`` additionally carves a few-shot pool out of
        its materialized list, which a stream by definition cannot.
        """
        if count <= 0:
            raise DatasetError(f"count must be positive, got {count}")
        return InstanceFactory(self.schema, seed=seed).iter_instances(count)

    def factory(self, seed: int = 0) -> DatasetFactory:
        """The row-level factory (table streams) for this schema."""
        return DatasetFactory(self.schema, seed=seed)


def schema_generator_from_file(path: str) -> SchemaGenerator:
    """A generator for a schema file — the ``schema:<path>`` dataset path."""
    return SchemaGenerator(load_schema_file(path))
