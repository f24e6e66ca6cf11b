"""The shard plan: a pure function of (dataset digest, config).

Horizontal scale-out starts with a *deterministic partition*.  Exactly as
``Preprocessor._plan_units`` hoists the full batch plan ahead of any
completion call, :func:`plan_shards` materializes the full shard plan
ahead of any worker process: which instances belong to which shard is
decided once, from the dataset's content digest and the pipeline
configuration, before a single process forks.  Everything downstream —
worker scheduling, journal naming, the deterministic merge — keys off
this plan, which is why the merged result cannot depend on how many
workers happened to execute it.

Assignment is **content-addressed**: each instance hashes to its shard by
its own serialized text (salted with the config fingerprint and the shard
count), not by its position in the list.  Consequences, all
property-tested in ``tests/property/test_property_shard.py``:

- the plan is a pure function of (dataset digest, config, shard count) —
  re-planning is bit-identical;
- it is insertion-order-free — permuting the dataset moves an instance's
  global *index* but never its shard;
- every instance lands in exactly one shard (the per-shard index lists
  partition ``range(n)``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core.config import PipelineConfig
from repro.core.contextualize import instances_digest, serialize_instance
from repro.data.instances import Instance, PreprocessingDataset
from repro.errors import ShardError
from repro.obs.manifest import canonical_json, jsonable

#: hard ceiling on automatic shard counts: beyond this, per-shard journal
#: and process overhead dominates any conceivable parallel win
MAX_AUTO_SHARDS = 32

#: target batches per shard when the shard count is chosen automatically —
#: enough work to amortize a worker process, few enough shards to spread
MIN_BATCHES_PER_SHARD = 8


def config_fingerprint(config: PipelineConfig) -> str:
    """Canonical digest of the full pipeline configuration."""
    return hashlib.sha256(
        canonical_json(jsonable(config)).encode("utf-8")
    ).hexdigest()[:16]


def shard_of(instance: Instance, n_shards: int, salt: str) -> int:
    """The shard an instance belongs to — a pure function of its content.

    ``salt`` binds the assignment to one (config, shard count) pair so
    different runs spread differently; the instance's serialized text
    (its full identity, the same text the journal digest covers) does the
    rest.  Position plays no part, which is what makes the plan
    insertion-order-free.
    """
    hasher = hashlib.blake2b(digest_size=8)
    hasher.update(salt.encode("utf-8"))
    hasher.update(b"\x00")
    hasher.update(serialize_instance(instance).encode("utf-8"))
    return int.from_bytes(hasher.digest(), "little") % n_shards


def default_shard_count(n_instances: int, config: PipelineConfig) -> int:
    """An automatic shard count scaled to the dataset.

    Aims for at least :data:`MIN_BATCHES_PER_SHARD` prompt batches per
    shard (so each worker process amortizes its startup over real work),
    capped at :data:`MAX_AUTO_SHARDS`.
    """
    batch = max(1, config.batch_size_for_model())
    per_shard = MIN_BATCHES_PER_SHARD * batch
    return max(1, min(MAX_AUTO_SHARDS, -(-n_instances // per_shard)))


@dataclass(frozen=True)
class ShardSpec:
    """One shard: its id and the global dataset indices it owns.

    ``indices`` preserve dataset order, so the shard's sub-dataset is the
    original dataset filtered — never reordered.
    """

    shard_id: int
    indices: tuple[int, ...]

    @property
    def n_instances(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class ShardPlan:
    """The full partition, sealed to the data and configuration it is for.

    ``digest``/``fingerprint`` name the exact (dataset, config) pair the
    plan was computed from; the merge layer refuses payloads from a
    foreign plan by comparing them.
    """

    digest: str
    fingerprint: str
    n_instances: int
    n_shards: int
    shards: tuple[ShardSpec, ...]

    @property
    def nonempty_shards(self) -> tuple[ShardSpec, ...]:
        return tuple(spec for spec in self.shards if spec.indices)

    def describe(self) -> dict:
        """The plan as plain data (merged-manifest provenance)."""
        return {
            "digest": self.digest,
            "fingerprint": self.fingerprint,
            "n_instances": self.n_instances,
            "n_shards": self.n_shards,
            "shard_sizes": [spec.n_instances for spec in self.shards],
        }


def plan_shards(
    dataset: PreprocessingDataset,
    config: PipelineConfig,
    n_shards: int | None = None,
) -> ShardPlan:
    """Partition ``dataset`` into shards (see module docstring).

    ``n_shards=None`` picks :func:`default_shard_count`.  A shard may
    come out empty (content hashing balances in expectation, not
    exactly); the runner simply skips it.
    """
    if n_shards is not None and n_shards < 1:
        raise ShardError(f"n_shards must be >= 1, got {n_shards}")
    instances = list(dataset.instances)
    if n_shards is None:
        n_shards = default_shard_count(len(instances), config)
    fingerprint = config_fingerprint(config)
    salt = f"{fingerprint}|{n_shards}"
    members: list[list[int]] = [[] for _ in range(n_shards)]
    for index, instance in enumerate(instances):
        members[shard_of(instance, n_shards, salt)].append(index)
    return ShardPlan(
        digest=instances_digest(instances, dataset.fewshot_pool),
        fingerprint=fingerprint,
        n_instances=len(instances),
        n_shards=n_shards,
        shards=tuple(
            ShardSpec(shard_id=shard_id, indices=tuple(indices))
            for shard_id, indices in enumerate(members)
        ),
    )
