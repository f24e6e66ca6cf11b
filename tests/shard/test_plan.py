"""The shard plan: pure, content-addressed, exhaustive-and-disjoint."""

import pytest

from repro.core.config import PipelineConfig
from repro.core.contextualize import instances_digest
from repro.datasets import load_dataset
from repro.errors import ShardError
from repro.shard import (
    config_fingerprint,
    default_shard_count,
    plan_shards,
    shard_of,
)
from repro.shard.plan import MAX_AUTO_SHARDS


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("adult", size=60, seed=0)


@pytest.fixture(scope="module")
def config():
    return PipelineConfig()


class TestPlanShards:
    def test_replanning_is_bit_identical(self, dataset, config):
        assert plan_shards(dataset, config, 4) == plan_shards(
            dataset, config, 4
        )

    def test_every_index_lands_in_exactly_one_shard(self, dataset, config):
        plan = plan_shards(dataset, config, 5)
        seen = [index for spec in plan.shards for index in spec.indices]
        assert sorted(seen) == list(range(len(dataset.instances)))
        assert len(seen) == len(set(seen))

    def test_shard_indices_preserve_dataset_order(self, dataset, config):
        plan = plan_shards(dataset, config, 5)
        for spec in plan.shards:
            assert list(spec.indices) == sorted(spec.indices)

    def test_single_shard_plan_owns_everything(self, dataset, config):
        plan = plan_shards(dataset, config, 1)
        assert plan.n_shards == 1
        assert plan.shards[0].indices == tuple(range(len(dataset.instances)))

    def test_plan_is_sealed_to_dataset_and_config(self, dataset, config):
        plan = plan_shards(dataset, config, 3)
        assert plan.digest == instances_digest(
            dataset.instances, dataset.fewshot_pool
        )
        assert plan.fingerprint == config_fingerprint(config)

        other_data = load_dataset("adult", size=60, seed=1)
        assert plan_shards(other_data, config, 3).digest != plan.digest

        other_config = PipelineConfig(seed=config.seed + 1)
        assert (
            plan_shards(dataset, other_config, 3).fingerprint
            != plan.fingerprint
        )

    def test_assignment_is_content_addressed_not_positional(
        self, dataset, config
    ):
        plan = plan_shards(dataset, config, 4)
        salt = f"{plan.fingerprint}|{plan.n_shards}"
        for spec in plan.shards:
            for index in spec.indices:
                assert (
                    shard_of(dataset.instances[index], 4, salt)
                    == spec.shard_id
                )

    def test_shard_for_index_inverts_the_partition(self, dataset, config):
        plan = plan_shards(dataset, config, 4)
        for spec in plan.nonempty_shards:
            assert plan.shard_for_index(spec.indices[0]) == spec.shard_id
        with pytest.raises(ShardError):
            plan.shard_for_index(len(dataset.instances))

    def test_describe_is_plain_data(self, dataset, config):
        described = plan_shards(dataset, config, 4).describe()
        assert described["n_instances"] == len(dataset.instances)
        assert described["n_shards"] == 4
        assert sum(described["shard_sizes"]) == len(dataset.instances)
        assert set(described) == {
            "digest", "fingerprint", "n_instances", "n_shards", "shard_sizes"
        }

    def test_rejects_nonpositive_shard_counts(self, dataset, config):
        with pytest.raises(ShardError):
            plan_shards(dataset, config, 0)
        with pytest.raises(ShardError):
            plan_shards(dataset, config, -2)


class TestDefaultShardCount:
    def test_small_datasets_stay_single_shard(self, config):
        batch = config.batch_size_for_model()
        assert default_shard_count(8 * batch, config) == 1
        assert default_shard_count(1, config) == 1
        assert default_shard_count(0, config) == 1

    def test_large_datasets_cap_at_the_ceiling(self, config):
        assert default_shard_count(10_000_000, config) == MAX_AUTO_SHARDS

    def test_growth_is_monotone(self, config):
        counts = [
            default_shard_count(n, config) for n in range(0, 4000, 97)
        ]
        assert counts == sorted(counts)
