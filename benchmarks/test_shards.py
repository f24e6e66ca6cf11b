"""Shard scaling benchmark — multi-process fan-out + batch decode.

Writes ``BENCH_shards.json`` with the two curves the scale-out layer is
judged on:

- **worker scaling**: one fixed shard plan through ``run_sharded`` at
  workers {1, 2, 4, 8}.  The determinism half of the bar (merged payload
  bit-identical at every count) is asserted unconditionally; the
  wall-clock half (≥ 2x at 4 workers) only where the host actually has 4
  CPUs to scale onto.
- **batch decode**: the client's decode vs the memo-free reference
  decoder over 1k pipeline requests.  The ≥ 3x bar is algorithmic —
  shared-prefix parses and few-shot fits amortize across the batch — so
  it holds on any host.
"""

import hashlib
import json
import os
import time
from pathlib import Path

import pytest

from benchmarks.conftest import run_once
from repro.core.config import PipelineConfig
from repro.datasets import load_dataset
from repro.llm.backend import SimulatedBackend
from repro.obs.manifest import canonical_json
from repro.shard.runner import run_sharded
from repro.testing.reference import decode_microbench

OUT_PATH = Path("BENCH_shards.json")

SIZE = 240
N_SHARDS = 8


def _scaling(worker_counts, seed, model="gpt-3.5"):
    """One shard plan at several worker counts: wall-clock plus identity."""
    config = PipelineConfig(model=model, seed=seed)
    data = load_dataset("adult", size=SIZE, seed=seed)
    backend = SimulatedBackend(model=model, seed=seed)
    runs = []
    for workers in worker_counts:
        started = time.perf_counter()
        run = run_sharded(
            backend, config, data, n_shards=N_SHARDS, workers=workers
        )
        wall_s = time.perf_counter() - started
        digest = hashlib.sha256(
            canonical_json(run.payload()).encode("utf-8")
        ).hexdigest()[:16]
        runs.append({"workers": run.workers, "wall_s": wall_s, "digest": digest})
    for run in runs:
        run["speedup"] = runs[0]["wall_s"] / run["wall_s"]
    return {
        "dataset": "adult",
        "size": SIZE,
        "model": model,
        "n_shards": N_SHARDS,
        "runs": runs,
        "identical": len({run["digest"] for run in runs}) == 1,
    }


def _shard_bench(seed):
    payload = {
        "host": {"cpu_count": os.cpu_count()},
        "scaling": _scaling((1, 2, 4, 8), seed),
        "decode": decode_microbench(n=1000, seed=seed),
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def test_shard_scaling_and_decode(benchmark, seed):
    payload = run_once(benchmark, _shard_bench, seed)

    scaling = payload["scaling"]
    decode = payload["decode"]
    print()
    print(
        f"shard scaling — adult n={SIZE} shards={N_SHARDS} "
        f"(identical={scaling['identical']})"
    )
    for run in scaling["runs"]:
        print(
            f"  workers={run['workers']:>2}  wall={run['wall_s']:.2f}s  "
            f"speedup={run['speedup']:.2f}x"
        )
    print(
        f"batch decode — n={decode['n']}  "
        f"reference={decode['reference_s']:.2f}s  "
        f"client={decode['client_s']:.2f}s  "
        f"speedup={decode['speedup']:.2f}x (identical={decode['identical']})"
    )

    assert scaling["identical"], (
        "merged payloads diverged across worker counts"
    )
    assert [run["workers"] for run in scaling["runs"]] == [1, 2, 4, 8]

    assert decode["identical"], "client decode diverged from the reference"
    assert decode["speedup"] >= 3.0, (
        f"batch decode speedup {decode['speedup']:.2f}x is below the 3x bar"
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="wall-clock scaling needs at least 4 CPUs",
)
def test_four_workers_double_throughput(benchmark, seed):
    scaling = run_once(benchmark, _scaling, (1, 4), seed)
    runs = {run["workers"]: run for run in scaling["runs"]}
    assert runs[4]["speedup"] >= 2.0, (
        f"4 workers reached only {runs[4]['speedup']:.2f}x over 1"
    )
