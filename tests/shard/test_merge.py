"""The shard merge: keyed by shard id, order-blind, loudly unforgiving."""

import pytest

from repro.errors import ShardError
from repro.shard import merge_shards
from repro.shard.merge import SPAN_STRIDE, _merge_metrics, _rebase_spans
from repro.shard.plan import ShardPlan, ShardSpec


def _plan(assignment: dict[int, tuple[int, ...]], n_instances: int) -> ShardPlan:
    n_shards = max(assignment) + 1
    return ShardPlan(
        digest="d" * 32,
        fingerprint="f" * 16,
        n_instances=n_instances,
        n_shards=n_shards,
        shards=tuple(
            ShardSpec(shard_id=sid, indices=assignment.get(sid, ()))
            for sid in range(n_shards)
        ),
    )


def _payload(shard_id: int, indices: tuple[int, ...], *, seconds=1.0,
             predictions=None, quarantine=(), metrics=None, spans=None):
    return {
        "shard_id": shard_id,
        "indices": list(indices),
        "predictions": (
            list(predictions)
            if predictions is not None
            else [f"p{index}" for index in indices]
        ),
        "quarantine": list(quarantine),
        "usage": {"prompt_tokens": 100, "completion_tokens": 10},
        "n_requests": 2,
        "n_format_retries": 1,
        "n_fallbacks": 0,
        "estimated_seconds": seconds,
        "raw_replies": [],
        "exchanges": [],
        "metrics": metrics,
        "spans": spans,
    }


class TestCombine:
    def test_overlapping_shards_refuse_to_combine(self):
        plan = _plan({0: (0,)}, 1)
        with pytest.raises(ShardError, match="exactly once"):
            merge_shards(plan, [_payload(0, (0,)), _payload(0, (0,))])


class TestFinalize:
    def test_scatters_predictions_through_the_plan(self):
        plan = _plan({0: (0, 3), 1: (1, 2)}, 4)
        merged = merge_shards(
            plan, [_payload(0, (0, 3)), _payload(1, (1, 2))]
        )
        assert merged.predictions == ["p0", "p1", "p2", "p3"]
        assert merged.n_requests == 4
        assert merged.n_format_retries == 2
        assert merged.usage == {"prompt_tokens": 200, "completion_tokens": 20}

    def test_fold_order_cannot_change_the_result(self):
        plan = _plan({0: (0, 3), 1: (1, 2), 2: (4,)}, 5)
        payloads = [
            _payload(0, (0, 3)), _payload(1, (1, 2)), _payload(2, (4,)),
        ]
        forward = merge_shards(plan, payloads).payload()
        backward = merge_shards(plan, list(reversed(payloads))).payload()
        assert forward == backward

    def test_parallel_makespan_is_max_sequential_is_sum(self):
        plan = _plan({0: (0,), 1: (1,)}, 2)
        merged = merge_shards(plan, [
            _payload(0, (0,), seconds=3.0), _payload(1, (1,), seconds=5.0),
        ])
        assert merged.estimated_seconds == 5.0
        assert merged.sequential_seconds == 8.0

    def test_quarantine_remaps_local_to_global_and_sorts(self):
        plan = _plan({0: (2, 5), 1: (0, 7)}, 8)
        merged = merge_shards(plan, [
            _payload(0, (2, 5),
                     quarantine=[{"index": 1, "reason": "r", "detail": ""}]),
            _payload(1, (0, 7),
                     quarantine=[{"index": 0, "reason": "q", "detail": ""}]),
        ])
        assert [entry["index"] for entry in merged.quarantine] == [0, 5]
        assert merged.n_quarantined == 2
        assert merged.coverage == pytest.approx(6 / 8)

    def test_missing_shard_payload_is_an_error(self):
        plan = _plan({0: (0,), 1: (1,)}, 2)
        with pytest.raises(ShardError, match="missing shard payload"):
            merge_shards(plan, [_payload(0, (0,))])

    def test_foreign_shard_payload_is_an_error(self):
        plan = _plan({0: (0, 1)}, 2)
        with pytest.raises(ShardError, match="unplanned"):
            merge_shards(plan, [_payload(0, (0, 1)), _payload(7, (9,))])

    def test_empty_shards_need_no_payload(self):
        plan = _plan({0: (0, 1), 1: ()}, 2)
        merged = merge_shards(plan, [_payload(0, (0, 1))])
        assert merged.predictions == ["p0", "p1"]

    def test_payload_from_a_foreign_plan_is_an_error(self):
        plan = _plan({0: (0, 1)}, 2)
        with pytest.raises(ShardError, match="foreign plan"):
            merge_shards(plan, [_payload(0, (0, 2))])

    def test_prediction_count_mismatch_is_an_error(self):
        plan = _plan({0: (0, 1)}, 2)
        with pytest.raises(ShardError, match="prediction"):
            merge_shards(plan, [_payload(0, (0, 1), predictions=["only"])])


class TestMetricsMerge:
    def test_counters_and_histograms_sum_gauges_namespace(self):
        merged = _merge_metrics([
            (0, {
                "counters": {"llm.requests": 2},
                "gauges": {"cache.hit_rate": 0.5},
                "histograms": {"latency": {
                    "bounds": [1.0], "counts": [1, 0], "sum": 0.5, "count": 1,
                }},
            }),
            (3, {
                "counters": {"llm.requests": 3},
                "gauges": {"cache.hit_rate": 0.25},
                "histograms": {"latency": {
                    "bounds": [1.0], "counts": [0, 2], "sum": 4.0, "count": 2,
                }},
            }),
        ])
        assert merged["counters"] == {"llm.requests": 5.0}
        assert merged["gauges"] == {
            "shard000.cache.hit_rate": 0.5,
            "shard003.cache.hit_rate": 0.25,
        }
        assert merged["histograms"]["latency"] == {
            "bounds": [1.0], "counts": [1, 2], "sum": 4.5, "count": 3,
        }

    def test_divergent_histogram_bounds_are_an_error(self):
        with pytest.raises(ShardError, match="divergent"):
            _merge_metrics([
                (0, {"counters": {}, "gauges": {}, "histograms": {"h": {
                    "bounds": [1.0], "counts": [0, 0], "sum": 0, "count": 0,
                }}}),
                (1, {"counters": {}, "gauges": {}, "histograms": {"h": {
                    "bounds": [2.0], "counts": [0, 0], "sum": 0, "count": 0,
                }}}),
            ])

    def test_all_absent_snapshots_merge_to_none(self):
        assert _merge_metrics([(0, None), (1, None)]) is None


class TestSpanRebasing:
    def test_ids_shift_into_the_shard_stride_and_tag_the_shard(self):
        spans = [
            {"span_id": 1, "parent_id": None, "attributes": {"x": 1}},
            {"span_id": 2, "parent_id": 1, "attributes": {}},
        ]
        rebased = _rebase_spans(2, spans)
        assert rebased[0]["span_id"] == 1 + 2 * SPAN_STRIDE
        assert rebased[0]["parent_id"] is None
        assert rebased[1]["parent_id"] == 1 + 2 * SPAN_STRIDE
        assert all(span["attributes"]["shard"] == 2 for span in rebased)
        # the originals are untouched (merge must not mutate payloads)
        assert spans[0]["span_id"] == 1
        assert "shard" not in spans[0]["attributes"]
