"""Deterministic merge of per-shard results.

Per-shard payloads are plain data (:func:`~repro.shard.runner.shard_payload`
emits them, and they pickle across process boundaries unchanged).
:func:`merge_shards` keys them by shard id — a shard id arriving twice
(the one thing scheduling could never legally produce) raises
:class:`~repro.errors.ShardError` instead of silently double-counting —
and then resolves them against the :class:`ShardPlan`, walking the plan's
shards in shard-id order.  The arrival order of the payloads therefore
cannot reach the result: that is the worker-count-independence guarantee.

Resolving against the plan:

- predictions scatter to global dataset indices through the plan;
- quarantine entries remap local → global indices and sort, matching the
  single-process run's ordering invariant;
- usage/request/retry/fallback counters sum;
- ``estimated_seconds`` is the **max** over shards (shards run in
  parallel on independent virtual clocks) while ``sequential_seconds``
  keeps the sum — the pair is what the scaling benchmark plots;
- metrics counters and histograms sum; gauges are namespaced per shard
  (``shard003.cache.hit_rate``) because averaging them would invent data;
- spans rebase ids by ``shard_id * SPAN_STRIDE`` and tag a ``shard``
  attribute, so the merged trace stays collision-free and attributable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import ShardError
from repro.obs.manifest import canonical_json
from repro.shard.plan import ShardPlan

#: id offset between consecutive shards' span streams; one shard never
#: allocates anywhere near this many spans
SPAN_STRIDE = 1_000_000


@dataclass
class MergedRun:
    """A sharded run's results, reassembled to single-run shape.

    Field-for-field comparable with a single-process
    :class:`~repro.core.pipeline.PipelineResult` payload, plus the two
    shard-specific extras: ``sequential_seconds`` (the sum the parallel
    makespan is measured against) and ``plan`` provenance.
    """

    n_instances: int
    n_shards: int
    predictions: list
    quarantine: list[dict]
    usage: dict
    n_requests: int
    n_format_retries: int
    n_fallbacks: int
    estimated_seconds: float
    sequential_seconds: float
    raw_replies: list[str] = field(default_factory=list)
    exchanges: list[dict] = field(default_factory=list)
    metrics: dict | None = None
    spans: list[dict] | None = None
    plan: dict = field(default_factory=dict)

    @property
    def n_quarantined(self) -> int:
        return len(self.quarantine)

    @property
    def coverage(self) -> float:
        if not self.predictions:
            return 1.0
        return (len(self.predictions) - len(self.quarantine)) / len(
            self.predictions
        )

    def payload(self) -> dict:
        """Canonical plain data for bit-identity diffs across runs."""
        payload = {
            "predictions": self.predictions,
            "quarantine": self.quarantine,
            "coverage": self.coverage,
            "usage": self.usage,
            "n_requests": self.n_requests,
            "n_format_retries": self.n_format_retries,
            "n_fallbacks": self.n_fallbacks,
            "estimated_seconds": self.estimated_seconds,
            "sequential_seconds": self.sequential_seconds,
            "raw_replies": self.raw_replies,
            "exchanges": self.exchanges,
            "metrics": self.metrics,
            "spans": self.spans,
            "plan": self.plan,
        }
        return json.loads(canonical_json(payload))


def _merge_metrics(per_shard: list[tuple[int, dict]]) -> dict | None:
    """Sum counters/histograms across shards; namespace gauges per shard."""
    present = [(sid, snap) for sid, snap in per_shard if snap is not None]
    if not present:
        return None
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    for sid, snap in present:
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0.0) + float(value)
        for name, value in snap.get("gauges", {}).items():
            gauges[f"shard{sid:03d}.{name}"] = float(value)
        for name, data in snap.get("histograms", {}).items():
            if name not in histograms:
                histograms[name] = {
                    "bounds": list(data["bounds"]),
                    "counts": [int(c) for c in data["counts"]],
                    "sum": float(data["sum"]),
                    "count": int(data["count"]),
                }
                continue
            merged = histograms[name]
            if merged["bounds"] != list(data["bounds"]):
                raise ShardError(
                    f"histogram {name!r} has divergent bucket bounds across "
                    f"shards; snapshots cannot be merged"
                )
            merged["counts"] = [
                have + int(more)
                for have, more in zip(merged["counts"], data["counts"])
            ]
            merged["sum"] += float(data["sum"])
            merged["count"] += int(data["count"])
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }


def _rebase_spans(shard_id: int, spans: list[dict]) -> list[dict]:
    """Shift one shard's span ids into its private id range."""
    offset = shard_id * SPAN_STRIDE
    rebased = []
    for span in spans:
        moved = dict(span)
        moved["span_id"] = span["span_id"] + offset
        if span.get("parent_id") is not None:
            moved["parent_id"] = span["parent_id"] + offset
        attributes = dict(span.get("attributes", {}))
        attributes["shard"] = shard_id
        moved["attributes"] = attributes
        rebased.append(moved)
    return rebased


def merge_shards(plan: ShardPlan, payloads: list[dict]) -> MergedRun:
    """Merge one payload per non-empty shard of ``plan`` (any order) into
    a single-run-shaped result (see the module docstring)."""
    by_shard: dict[int, dict] = {}
    for payload in payloads:
        shard_id = int(payload["shard_id"])
        if shard_id in by_shard:
            raise ShardError(
                f"shard {shard_id} has more than one payload; a shard must "
                f"be merged exactly once"
            )
        by_shard[shard_id] = payload
    expected = {spec.shard_id for spec in plan.nonempty_shards}
    missing = expected - set(by_shard)
    if missing:
        raise ShardError(
            f"merge is missing shard payload(s) {sorted(missing)}; the "
            f"plan has {len(expected)} non-empty shard(s)"
        )
    foreign = set(by_shard) - expected
    if foreign:
        raise ShardError(
            f"merge received payload(s) for unplanned shard(s) "
            f"{sorted(foreign)}"
        )

    predictions: list = [None] * plan.n_instances
    quarantine: list[dict] = []
    raw_replies: list[str] = []
    exchanges: list[dict] = []
    prompt_tokens = completion_tokens = 0
    n_requests = n_format_retries = n_fallbacks = 0
    estimated = 0.0
    sequential = 0.0
    metric_snaps: list[tuple[int, dict]] = []
    spans: list[dict] = []
    any_spans = False

    for spec in plan.nonempty_shards:
        payload = by_shard[spec.shard_id]
        if list(payload["indices"]) != list(spec.indices):
            raise ShardError(
                f"shard {spec.shard_id} payload covers indices "
                f"{payload['indices']!r} but the plan assigns "
                f"{list(spec.indices)!r}; payload belongs to a foreign plan"
            )
        if len(payload["predictions"]) != len(spec.indices):
            raise ShardError(
                f"shard {spec.shard_id} returned "
                f"{len(payload['predictions'])} prediction(s) for "
                f"{len(spec.indices)} instance(s)"
            )
        for local, prediction in enumerate(payload["predictions"]):
            predictions[spec.indices[local]] = prediction
        for entry in payload["quarantine"]:
            quarantine.append({
                "index": spec.indices[entry["index"]],
                "reason": entry["reason"],
                "detail": entry.get("detail", ""),
            })
        prompt_tokens += payload["usage"]["prompt_tokens"]
        completion_tokens += payload["usage"]["completion_tokens"]
        n_requests += payload["n_requests"]
        n_format_retries += payload["n_format_retries"]
        n_fallbacks += payload["n_fallbacks"]
        estimated = max(estimated, payload["estimated_seconds"])
        sequential += payload["estimated_seconds"]
        raw_replies.extend(payload.get("raw_replies", []))
        exchanges.extend(payload.get("exchanges", []))
        metric_snaps.append((spec.shard_id, payload.get("metrics")))
        shard_spans = payload.get("spans")
        if shard_spans is not None:
            any_spans = True
            spans.extend(_rebase_spans(spec.shard_id, shard_spans))

    quarantine.sort(key=lambda entry: entry["index"])
    return MergedRun(
        n_instances=plan.n_instances,
        n_shards=plan.n_shards,
        predictions=predictions,
        quarantine=quarantine,
        usage={
            "prompt_tokens": prompt_tokens,
            "completion_tokens": completion_tokens,
        },
        n_requests=n_requests,
        n_format_retries=n_format_retries,
        n_fallbacks=n_fallbacks,
        estimated_seconds=estimated,
        sequential_seconds=sequential,
        raw_replies=raw_replies,
        exchanges=exchanges,
        metrics=_merge_metrics(metric_snaps),
        spans=spans if any_spans else None,
        plan=plan.describe(),
    )
