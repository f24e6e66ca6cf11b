"""Resilience benchmark — what adaptivity buys under a scripted outage.

Replays the same Adult ED workload through ``evaluate_pipeline`` against
the same scripted degradation (latency brownout, 429 storm, then a long
blackout) in three arms, and writes ``BENCH_resilience.json``:

- ``unmitigated``: the degraded backend alone, default executor.  Retries
  exhaust inside the outage windows and the degradation ladder
  quarantines the affected instances.
- ``resilient``: the degraded primary in a failover pool with a healthy
  secondary, AIMD lane adaptation and hedged requests.
- ``unhedged``: the resilient pool with hedging disabled — isolates the
  tail-latency contribution of hedging (p95 of ``llm.call_latency_s``).

The acceptance bar: the resilient arm completes with >= 90% coverage
while the non-adaptive executor quarantines at least 3x more instances,
and hedging improves the p95 call-latency tail.

The dataset size is fixed (not ``REPRO_BENCH_SCALE``-scaled): the outage
windows sit at fixed virtual instants, so the workload must outlast them
or no arm ever meets the blackout.  Everything runs on the simulated
clock, making the assertions exact rather than flaky thresholds.
"""

from dataclasses import replace
from pathlib import Path

from benchmarks.conftest import run_once
from repro.core.config import PipelineConfig
from repro.core.executor import ExecutorConfig
from repro.datasets import load_dataset
from repro.eval.harness import evaluate_pipeline
from repro.eval.reporting import render_table
from repro.llm.backend import DegradedBackend, SimulatedBackend
from repro.obs.manifest import canonical_json
from repro.resilience import DegradationPlan, Episode, degraded_pool

OUT_PATH = Path("BENCH_resilience.json")

#: fixed workload: long enough that the t=33s blackout lands mid-run
SIZE = 360
CONCURRENCY = 4
MODEL = "gpt-3.5"

#: p-quantile reported for the hedged-vs-unhedged tail comparison
TAIL_QUANTILE = 0.95


def _outage_plan(seed: int) -> DegradationPlan:
    """The scripted outage every arm faces: brownout, then blackout.

    Ordering matters: the latency brownout comes *first*, while the
    primary's circuit is still closed, so the resilient arm actually
    routes slow calls through the primary and hedging has something to
    win.  The blackout then outlasts the non-adaptive executor's whole
    recovery apparatus — retries, breaker cooldowns, and the degradation
    ladder's bisection cascade — which is what turns the outage into
    quarantined instances on the unmitigated arm.
    """
    return DegradationPlan(seed=seed, episodes=(
        Episode(kind="latency_brownout", start_s=5.0, duration_s=20.0,
                intensity=1.0, latency_factor=6.0),
        Episode(kind="rate_limit_storm", start_s=25.0, duration_s=8.0,
                intensity=0.7, retry_after_s=3.0),
        Episode(kind="blackout", start_s=33.0, duration_s=600.0,
                intensity=1.0, retry_after_s=1.0),
    ))


def _arm(run) -> dict:
    """The comparable core of one arm: coverage, cost, clock, tail."""
    metrics = run.result.observation.metrics
    return {
        "score": run.score,
        "coverage": round(run.coverage, 6),
        "n_instances": run.n_instances,
        "n_quarantined": run.n_quarantined,
        "n_requests": run.n_requests,
        "total_tokens": run.total_tokens,
        "makespan_s": round(run.hours * 3600.0, 6),
        "p95_call_latency_s": round(
            metrics.histogram("llm.call_latency_s").quantile(TAIL_QUANTILE), 6
        ),
        "throughput_rph": round(
            run.n_requests / run.hours if run.hours > 0 else 0.0, 3
        ),
        "goodput_iph": round(
            (run.n_instances - run.n_quarantined) / run.hours
            if run.hours > 0 else 0.0,
            3,
        ),
    }


def _pool_arm(pool, config, dataset) -> dict:
    """One arm through the failover pool, executor adapting with it."""
    client = pool.build()
    run = evaluate_pipeline(
        client, config, dataset, keep_raw=True,
        executor_config=ExecutorConfig(resilience=pool.resilience),
    )
    health = client.health_payload()
    return {
        **_arm(run),
        "router": health["router"],
        "backend_health": health["backends"],
        "breaker_transitions": dict(run.execution.breaker_transitions),
    }


def _resilience_bench(seed):
    dataset = load_dataset("adult", size=SIZE, seed=seed)
    config = PipelineConfig(
        model=MODEL,
        seed=seed,
        concurrency=CONCURRENCY,
        observability=True,
        degradation="ladder",
    )
    plan = _outage_plan(seed)
    pool = degraded_pool(MODEL, seed, plan)
    unhedged_pool = replace(
        pool, resilience=replace(pool.resilience, hedge=False)
    )

    unmitigated = _arm(evaluate_pipeline(
        DegradedBackend(SimulatedBackend(MODEL, seed), plan).build(),
        config, dataset, keep_raw=True,
    ))
    resilient = _pool_arm(pool, config, dataset)
    unhedged = _pool_arm(unhedged_pool, config, dataset)
    payload = {
        "config": {
            "dataset": "adult",
            "size": SIZE,
            "seed": seed,
            "concurrency": CONCURRENCY,
            "model": MODEL,
            "plan": plan.payload(),
        },
        "unmitigated": unmitigated,
        "resilient": resilient,
        "unhedged": unhedged,
        "comparison": {
            "quarantine_ratio": (
                unmitigated["n_quarantined"]
                / max(1, resilient["n_quarantined"])
            ),
            "coverage_gain": round(
                resilient["coverage"] - unmitigated["coverage"], 6
            ),
            "hedge_wins": resilient["router"]["n_hedge_wins"],
            "hedge_tail_gain_s": round(
                unhedged["p95_call_latency_s"]
                - resilient["p95_call_latency_s"],
                6,
            ),
        },
    }
    OUT_PATH.write_text(canonical_json(payload) + "\n", encoding="utf-8")
    return payload


def test_resilient_stack_survives_the_outage(benchmark, seed):
    payload = run_once(benchmark, _resilience_bench, seed)

    def _row(arm: str, summary: dict) -> list[str]:
        return [
            arm,
            f"{summary['coverage'] * 100:.1f}%",
            str(summary["n_quarantined"]),
            f"{summary['p95_call_latency_s']:.1f}",
            f"{summary['makespan_s']:.0f}",
            str(summary["n_requests"]),
        ]

    unmitigated = payload["unmitigated"]
    resilient = payload["resilient"]
    unhedged = payload["unhedged"]
    print()
    print(render_table(
        f"Resilience — scripted brownout + blackout, Adult ED, "
        f"{payload['config']['size']} instance(s), "
        f"concurrency {payload['config']['concurrency']}",
        ["arm", "coverage", "quarantined", "p95 s", "makespan s", "calls"],
        [
            _row("unmitigated", unmitigated),
            _row("resilient", resilient),
            _row("unhedged", unhedged),
        ],
    ))
    comparison = payload["comparison"]
    print(
        f"quarantine ratio {comparison['quarantine_ratio']:.1f}x, "
        f"{comparison['hedge_wins']} hedge win(s), "
        f"hedged p95 gain {comparison['hedge_tail_gain_s']:.2f}s, "
        f"{resilient['router']['n_failovers']} failover(s)"
    )

    # The acceptance bar, asserted exactly.
    assert resilient["coverage"] >= 0.9
    assert unmitigated["n_quarantined"] >= 3 * max(
        1, resilient["n_quarantined"]
    )
    assert comparison["hedge_wins"] > 0
    assert resilient["p95_call_latency_s"] <= unhedged["p95_call_latency_s"]
    # the failover router actually routed around the outage
    assert resilient["router"]["n_failovers"] > 0
