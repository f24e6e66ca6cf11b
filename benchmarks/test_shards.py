"""Shard scaling benchmark — multi-process fan-out + batch decode.

Writes ``BENCH_shards.json`` with the two curves the scale-out layer is
judged on:

- **worker scaling**: one fixed shard plan at workers {1, 2, 4, 8}.  The
  determinism half of the bar (merged payload bit-identical at every
  count) is asserted unconditionally; the wall-clock half (≥ 2x at 4
  workers) only where the host actually has 4 CPUs to scale onto.
- **batch decode**: the client's decode vs the memo-free reference
  decoder over 1k pipeline requests.  The ≥ 3x bar is algorithmic —
  shared-prefix parses and few-shot fits amortize across the batch — so
  it holds on any host.
"""

import json
import os
from pathlib import Path

import pytest

from benchmarks.conftest import run_once
from repro.shard import run_shard_bench
from repro.shard.bench import render_bench

OUT_PATH = Path("BENCH_shards.json")


def test_shard_scaling_and_decode(benchmark, seed):
    payload = run_once(
        benchmark,
        run_shard_bench,
        out=OUT_PATH,
        size=240,
        n_shards=8,
        worker_counts=(1, 2, 4, 8),
        decode_n=1000,
        seed=seed,
    )

    print()
    print(render_bench(payload))

    scaling = payload["scaling"]
    assert scaling["identical"], (
        "merged payloads diverged across worker counts"
    )
    assert [run["workers"] for run in scaling["runs"]] == [1, 2, 4, 8]

    decode = payload["decode"]
    assert decode["identical"], "client decode diverged from the reference"
    assert decode["speedup"] >= 3.0, (
        f"batch decode speedup {decode['speedup']:.2f}x is below the 3x bar"
    )

    # the written report carries the same numbers the harness returned
    report = json.loads(OUT_PATH.read_text(encoding="utf-8"))
    assert report["scaling"]["identical"] is True
    assert report["decode"]["speedup"] == decode["speedup"]


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="wall-clock scaling needs at least 4 CPUs",
)
def test_four_workers_double_throughput(benchmark, seed):
    payload = run_once(
        benchmark,
        run_shard_bench,
        out=OUT_PATH,
        size=240,
        n_shards=8,
        worker_counts=(1, 4),
        decode_n=10,
        seed=seed,
    )
    runs = {run["workers"]: run for run in payload["scaling"]["runs"]}
    assert runs[4]["speedup"] >= 2.0, (
        f"4 workers reached only {runs[4]['speedup']:.2f}x over 1"
    )
