"""Property tests for the shard plan and the merge fold.

The scale-out guarantees are algebraic, so they are stated algebraically:
the plan is a pure, insertion-order-free function that partitions the
dataset exactly; the merge fold is invariant under any permutation of its
inputs (worker scheduling can only permute, never change, the fold).
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PipelineConfig
from repro.core.contextualize import serialize_instance
from repro.data.instances import EDInstance, PreprocessingDataset, Task
from repro.llm.accounting import request_prompt_tokens
from repro.llm.base import ChatMessage, CompletionRequest
from repro.shard import merge_shards, plan_shards
from repro.shard.plan import ShardPlan, ShardSpec
from repro.text.tokenize import count_message_tokens

_CONFIG = PipelineConfig()

_words = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)


@st.composite
def ed_instances(draw):
    value = draw(_words)
    age = draw(st.integers(min_value=0, max_value=120))
    return EDInstance(
        record=(("name", value), ("age", str(age))),
        target_attribute="name",
        label=draw(st.booleans()),
    )


def _dataset(instances):
    return PreprocessingDataset(
        name="prop", task=Task.ERROR_DETECTION,
        instances=list(instances), fewshot_pool=[],
    )


class TestPlanProperties:
    @given(
        st.lists(ed_instances(), min_size=1, max_size=30),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_instance_lands_in_exactly_one_shard(self, instances, k):
        plan = plan_shards(_dataset(instances), _CONFIG, k)
        seen = [i for spec in plan.shards for i in spec.indices]
        assert sorted(seen) == list(range(len(instances)))

    @given(
        st.lists(ed_instances(), min_size=1, max_size=30),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_replanning_is_pure(self, instances, k):
        assert plan_shards(_dataset(instances), _CONFIG, k) == plan_shards(
            _dataset(instances), _CONFIG, k
        )

    @given(
        st.lists(ed_instances(), min_size=2, max_size=20),
        st.integers(min_value=1, max_value=6),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_assignment_is_insertion_order_free(self, instances, k, rng):
        def by_content(plan, items):
            owner = {}
            for spec in plan.shards:
                for index in spec.indices:
                    key = serialize_instance(items[index])
                    # duplicate content always hashes to the same shard, so
                    # the map stays well-defined under permutation
                    owner[key] = spec.shard_id
            return owner

        original = plan_shards(_dataset(instances), _CONFIG, k)
        shuffled = list(instances)
        rng.shuffle(shuffled)
        permuted = plan_shards(_dataset(shuffled), _CONFIG, k)
        assert by_content(original, instances) == by_content(
            permuted, shuffled
        )


class TestMergeProperties:
    @given(
        st.integers(min_value=1, max_value=8),
        st.randoms(use_true_random=False),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_fold_is_permutation_invariant(self, n_shards, rng, data):
        sizes = [
            data.draw(st.integers(min_value=0, max_value=4))
            for __ in range(n_shards)
        ]
        indices, cursor = [], 0
        for size in sizes:
            indices.append(tuple(range(cursor, cursor + size)))
            cursor += size
        plan = ShardPlan(
            digest="d" * 32, fingerprint="f" * 16,
            n_instances=cursor, n_shards=n_shards,
            shards=tuple(
                ShardSpec(shard_id=sid, indices=owned)
                for sid, owned in enumerate(indices)
            ),
        )
        payloads = [
            {
                "shard_id": sid,
                "indices": list(owned),
                "predictions": [f"s{sid}i{i}" for i in owned],
                "quarantine": [],
                "usage": {
                    "prompt_tokens": data.draw(
                        st.integers(min_value=0, max_value=999)
                    ),
                    "completion_tokens": 1,
                },
                "n_requests": 1,
                "n_format_retries": 0,
                "n_fallbacks": 0,
                "estimated_seconds": float(
                    data.draw(st.integers(min_value=0, max_value=50))
                ),
                "raw_replies": [],
                "exchanges": [],
                "metrics": None,
                "spans": None,
            }
            for sid, owned in enumerate(indices)
            if owned
        ]
        reference = merge_shards(plan, payloads).payload()
        shuffled = list(payloads)
        rng.shuffle(shuffled)
        assert merge_shards(plan, shuffled).payload() == reference


class TestMemoProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["system", "user", "assistant"]),
                st.text(min_size=0, max_size=60),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_memoized_prompt_tokens_match_the_reference_meter(self, pairs):
        request = CompletionRequest(
            messages=tuple(
                ChatMessage(role=role, content=text) for role, text in pairs
            ),
            model="gpt-3.5",
        )
        reference = count_message_tokens(request.transcript)
        assert request.prompt_tokens == reference
        # and again, through the carried count and the warm block cache
        assert request.prompt_tokens == reference
        assert request_prompt_tokens(request) == reference
