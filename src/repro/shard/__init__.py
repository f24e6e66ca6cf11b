"""Sharded multi-process execution with a deterministic merge.

The scale-out layer: partition a dataset into content-addressed shards
(:mod:`repro.shard.plan`), run each shard as a hermetic pipeline in a
worker process (:mod:`repro.shard.runner`), and merge the per-shard
payloads keyed by shard id (:mod:`repro.shard.merge`), so the output is
bit-identical at any worker count.  :mod:`repro.shard.chaos` drills
worker kills.
"""

from repro.shard.chaos import ShardChaosTrial, run_shard_crash_trial
from repro.shard.merge import MergedRun, merge_shards
from repro.shard.plan import (
    ShardPlan,
    ShardSpec,
    config_fingerprint,
    default_shard_count,
    plan_shards,
    shard_of,
)
from repro.shard.runner import (
    SHARD_CRASH_SITES,
    ShardChaos,
    ShardTask,
    ShardedRun,
    run_shard,
    run_sharded,
    shard_dataset,
    shard_payload,
)

__all__ = [
    "SHARD_CRASH_SITES",
    "MergedRun",
    "ShardChaos",
    "ShardChaosTrial",
    "ShardPlan",
    "ShardSpec",
    "ShardTask",
    "ShardedRun",
    "config_fingerprint",
    "default_shard_count",
    "merge_shards",
    "plan_shards",
    "run_shard",
    "run_shard_crash_trial",
    "run_sharded",
    "shard_dataset",
    "shard_of",
    "shard_payload",
]
