"""The scaling benchmark behind ``BENCH_shards.json``.

Two measurements, both of *host* wall-clock (the virtual-clock cost model
is deliberately untouched by this PR — parallelism changes when work
happens, never what it costs):

- **shard scaling** — one fixed shard plan executed at several worker
  counts; reports wall seconds and speedup per count, and checks the
  merged payload digest is identical across all of them (the determinism
  half of the scaling story is measured in the same breath as the speed
  half).
- **decode microbench** — the same request batch served by the memo-free
  reference decoder (:class:`~repro.testing.reference.ReferenceLLM`) and
  by the production :class:`~repro.llm.simulated.SimulatedLLM`; reports
  the amortization speedup and verifies the responses match in text,
  usage and latency.

``python -m repro.eval shard-bench`` and ``benchmarks/test_shards.py``
both come through :func:`run_shard_bench`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

from repro.obs.manifest import canonical_json


def _payload_digest(payload: dict) -> str:
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()[:16]


def build_decode_requests(
    n: int = 1000,
    dataset: str = "adult",
    model: str = "gpt-3.5",
    seed: int = 0,
):
    """``n`` realistic single-instance completion requests.

    Realistic means what the pipeline actually sends: a shared system
    instruction and few-shot demonstration block (the bulk of the prompt)
    followed by one instance-specific question.  That shape is exactly
    where the client's memo wins — the shared prefix parses once.
    """
    from repro.core.config import PipelineConfig
    from repro.core.prompts import PromptBuilder
    from repro.core.tasks import target_attribute_of
    from repro.datasets import load_dataset
    from repro.llm.base import CompletionRequest

    config = PipelineConfig(model=model, seed=seed)
    data = load_dataset(dataset, size=n, seed=seed)
    fewshot = data.sample_fewshot(config.fewshot_for(data.task), seed=seed)
    builders: dict = {}
    requests = []
    instances = data.instances
    for index in range(n):
        instance = instances[index % len(instances)]
        target = target_attribute_of(instance)
        builder = builders.get(target)
        if builder is None:
            builder = PromptBuilder(
                data.task, config, target_attribute=target
            )
            builders[target] = builder
        prompt = builder.build([instance], fewshot_examples=fewshot)
        requests.append(CompletionRequest(
            messages=prompt.messages, model=model, temperature=0.75
        ))
    return requests


def decode_microbench(
    n: int = 1000,
    dataset: str = "adult",
    model: str = "gpt-3.5",
    seed: int = 0,
) -> dict:
    """Reference vs production decode over the same ``n``-request batch.

    ``identical`` holds when every response (text, usage and latency)
    matches.  Each arm starts with the process-wide caches empty.
    """
    # Imported here: repro.shard is on the sharded run's import path, and
    # the oracle is a test-only dependency.
    from repro.llm.simulated import SimulatedLLM
    from repro.testing.reference import ReferenceLLM, reset_caches

    requests = build_decode_requests(n, dataset=dataset, model=model, seed=seed)

    reset_caches()
    reference = ReferenceLLM(model, seed=seed)
    started = time.perf_counter()
    reference_replies = reference.complete_batch(requests)
    reference_s = time.perf_counter() - started

    reset_caches()
    client = SimulatedLLM(model, seed=seed)
    started = time.perf_counter()
    replies = client.complete_batch(requests)
    client_s = time.perf_counter() - started

    memo = client.memo
    return {
        "n": n,
        "dataset": dataset,
        "model": model,
        "reference_s": reference_s,
        "client_s": client_s,
        "speedup": reference_s / client_s if client_s > 0 else 0.0,
        "identical": replies == reference_replies,
        "memo": {"hits": memo.hits, "misses": memo.misses, "entries": len(memo)},
    }


def shard_scaling_bench(
    dataset: str = "adult",
    size: int = 240,
    model: str = "gpt-3.5",
    seed: int = 0,
    n_shards: int = 8,
    worker_counts: tuple[int, ...] = (1, 2, 4, 8),
) -> dict:
    """One shard plan, several worker counts: wall-clock plus identity."""
    from repro.core.config import PipelineConfig
    from repro.datasets import load_dataset
    from repro.llm.backend import SimulatedBackend
    from repro.shard.runner import run_sharded

    config = PipelineConfig(model=model, seed=seed)
    data = load_dataset(dataset, size=size, seed=seed)
    backend = SimulatedBackend(model=model, seed=seed)
    runs = []
    digests = []
    baseline_s: float | None = None
    for workers in worker_counts:
        started = time.perf_counter()
        run = run_sharded(
            backend, config, data, n_shards=n_shards, workers=workers
        )
        wall_s = time.perf_counter() - started
        if baseline_s is None:
            baseline_s = wall_s
        digest = _payload_digest(run.payload())
        digests.append(digest)
        runs.append({
            "workers": run.workers,
            "wall_s": wall_s,
            "speedup": baseline_s / wall_s if wall_s > 0 else 0.0,
            "digest": digest,
        })
    return {
        "dataset": dataset,
        "size": size,
        "model": model,
        "n_shards": n_shards,
        "runs": runs,
        "identical": len(set(digests)) == 1,
    }


def run_shard_bench(
    out: str | Path = "BENCH_shards.json",
    size: int = 240,
    n_shards: int = 8,
    worker_counts: tuple[int, ...] = (1, 2, 4, 8),
    decode_n: int = 1000,
    dataset: str = "adult",
    model: str = "gpt-3.5",
    seed: int = 0,
) -> dict:
    """Run both measurements and write the artifact; returns the payload."""
    payload = {
        "host": {"cpu_count": os.cpu_count()},
        "scaling": shard_scaling_bench(
            dataset=dataset, size=size, model=model, seed=seed,
            n_shards=n_shards, worker_counts=tuple(worker_counts),
        ),
        "decode": decode_microbench(
            n=decode_n, dataset=dataset, model=model, seed=seed
        ),
    }
    Path(out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def render_bench(payload: dict) -> str:
    """A terminal-friendly summary of a bench payload."""
    lines = []
    scaling = payload["scaling"]
    lines.append(
        f"shard scaling — {scaling['dataset']} n={scaling['size']} "
        f"shards={scaling['n_shards']} "
        f"(identical={scaling['identical']})"
    )
    for run in scaling["runs"]:
        lines.append(
            f"  workers={run['workers']:>2}  wall={run['wall_s']:.2f}s  "
            f"speedup={run['speedup']:.2f}x"
        )
    decode = payload["decode"]
    lines.append(
        f"batch decode — n={decode['n']}  reference={decode['reference_s']:.2f}s  "
        f"client={decode['client_s']:.2f}s  "
        f"speedup={decode['speedup']:.2f}x "
        f"(identical={decode['identical']})"
    )
    return "\n".join(lines)
