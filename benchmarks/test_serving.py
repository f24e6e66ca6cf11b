"""Serving benchmark — online batch coalescing vs one-prompt-per-request.

Replays one Pareto-skewed 3-tenant trace (Adult ED, GPT-3.5) through
``PreprocessingService.serve`` twice — coalesced, and as the uncoalesced
baseline (batch size 1, eager flushing, answer cache disabled) — and
writes ``BENCH_serving.json``.  The acceptance bar is the paper's Table 3
amortization measured online: coalesced serving must cut
per-served-request token cost by at least 2x.  The baseline pays one
completion call per request, so it replays only a prefix of the trace —
its marginal cost is constant, which keeps the ratio exact (and
conservative for the coalesced side).
"""

import dataclasses
import json
from pathlib import Path

from benchmarks.conftest import run_once
from repro.core.config import PipelineConfig
from repro.datasets import load_dataset
from repro.eval.reporting import render_table
from repro.llm.simulated import SimulatedLLM
from repro.serving import (
    PreprocessingService,
    ServeConfig,
    TenantBudget,
    default_tenants,
    generate_trace,
)

OUT_PATH = Path("BENCH_serving.json")

MODEL = "gpt-3.5"
DATASET_SIZE = 200
N_TENANTS = 3
CONCURRENCY = 4
COALESCED = ServeConfig(max_batch=8, max_wait_s=2.0, coalesce="window")
UNCOALESCED = ServeConfig(
    max_batch=1, max_wait_s=0.0, coalesce="eager", cache_entries=0
)


def _tokens_per_request(summary: dict) -> float:
    if summary["n_served"] == 0:
        return 0.0
    return summary["total_tokens"] / summary["n_served"]


def _serve_bench(n_requests, seed, baseline_requests):
    dataset = load_dataset("adult", size=DATASET_SIZE, seed=seed)
    tenants = default_tenants(N_TENANTS, n_requests)
    trace = generate_trace(dataset, tenants, seed=seed)
    budgets = [
        TenantBudget(
            name=spec.name,
            requests_per_minute=max(60, int(spec.rate_rps * 60 * 2)),
            tokens_per_minute=max(60_000, int(spec.rate_rps * 60 * 2) * 300),
        )
        for spec in tenants
    ]
    pipeline_config = PipelineConfig(
        model=MODEL, seed=seed, concurrency=CONCURRENCY
    )

    def serve(serve_config, requests):
        service = PreprocessingService(
            SimulatedLLM(MODEL, seed=seed),
            dataset,
            budgets,
            serve_config=serve_config,
            pipeline_config=pipeline_config,
        )
        return service.serve(requests).summary()

    coalesced = serve(COALESCED, trace)
    uncoalesced = serve(UNCOALESCED, trace[:baseline_requests])
    payload = {
        "bench": "serving",
        "config": {
            "n_requests": n_requests,
            "dataset": "adult",
            "dataset_size": DATASET_SIZE,
            "n_tenants": N_TENANTS,
            "seed": seed,
            "concurrency": CONCURRENCY,
            "max_batch": COALESCED.max_batch,
            "max_wait_s": COALESCED.max_wait_s,
            "coalesce": COALESCED.coalesce,
            "model": MODEL,
            "baseline_requests": uncoalesced["n_requests"],
            "tenants": [dataclasses.asdict(spec) for spec in tenants],
        },
        "coalesced": coalesced,
        "uncoalesced": uncoalesced,
        "token_reduction": (
            _tokens_per_request(uncoalesced)
            / max(_tokens_per_request(coalesced), 1e-9)
        ),
    }
    # The headline numbers, flattened for dashboards that read one level.
    for name in (
        "p50_latency_s", "p99_latency_s", "throughput_rps",
        "coalesce_rate", "cache_hit_rate",
    ):
        payload[name] = coalesced[name]
    OUT_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return payload


def test_coalescing_halves_token_cost(benchmark, serve_requests, seed):
    payload = run_once(
        benchmark,
        _serve_bench,
        serve_requests,
        seed,
        baseline_requests=min(2000, serve_requests),
    )

    def _row(mode: str, summary: dict) -> list[str]:
        return [
            mode,
            f"{summary['p50_latency_s']:.3f}",
            f"{summary['p99_latency_s']:.3f}",
            f"{summary['throughput_rps']:.1f}",
            f"{summary['coalesce_rate']:.3f}",
            f"{summary['cache_hit_rate']:.3f}",
            f"{_tokens_per_request(summary):.0f}",
        ]

    print()
    print(render_table(
        f"Serving — {payload['config']['n_requests']} request(s), "
        f"{payload['config']['n_tenants']} tenant(s), Adult ED, GPT-3.5",
        ["mode", "p50 s", "p99 s", "req/s", "coalesce", "cache hit",
         "tok/req"],
        [
            _row("coalesced", payload["coalesced"]),
            _row("uncoalesced", payload["uncoalesced"]),
        ],
    ))
    print(f"token reduction: {payload['token_reduction']:.2f}x")

    coalesced = payload["coalesced"]
    assert coalesced["n_served"] + coalesced["n_rejected"] == serve_requests
    # Acceptance bar: >= 2x cheaper per served request than uncoalesced.
    assert payload["token_reduction"] >= 2.0
