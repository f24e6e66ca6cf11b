"""Flow benchmark — per-stage and end-to-end cost of the reference flow.

Runs the shipped detect → impute → align → match reference flow through
``run_reference_flow`` on the simulated clock and writes
``BENCH_flow.json`` with tokens, request counts, and latency for every
stage plus the end-to-end roll-up.  All quantities come from the
deterministic token meter, so the file is byte-reproducible and the
printed table doubles as a regression anchor: a prompt-assembly change
that bloats one stage's token bill shows up as a diff in this artifact.
"""

from pathlib import Path

from benchmarks.conftest import run_once
from repro.eval.reporting import render_table
from repro.obs.manifest import canonical_json
from tests.fixtures import run_reference_flow

OUT_PATH = Path("BENCH_flow.json")


def _cost(report) -> dict:
    return {
        "prompt_tokens": report.usage.prompt_tokens,
        "completion_tokens": report.usage.completion_tokens,
        "n_requests": report.n_requests,
        "estimated_seconds": report.estimated_seconds,
        "prep_cache_hits": report.prep_cache_hits,
        "prep_cache_misses": report.prep_cache_misses,
    }


def _flow_bench(concurrency=1):
    result = run_reference_flow(concurrency=concurrency)
    stages = {
        name: {
            "kind": result.stages[name].kind,
            "n_quarantined": len(result.stages[name].quarantine),
            **_cost(result.stages[name].report),
        }
        for name in result.order
    }
    outputs = {stage: result.stages[stage].output for stage in result.order}
    payload = {
        "benchmark": "flow_reference",
        "flow": "clean_match_beer",
        "concurrency": concurrency,
        "stages": stages,
        "end_to_end": _cost(result.report),
        "outputs": {
            "flagged": len(outputs["detect"]["flagged"]),
            "imputed": len(outputs["impute"]["imputed"]),
            "correspondences": len(outputs["align"]["correspondences"]),
            "matches": len(outputs["match"]["matches"]),
        },
    }
    OUT_PATH.write_text(canonical_json(payload))
    return payload


def test_reference_flow_cost_breakdown(benchmark):
    payload = run_once(benchmark, _flow_bench)

    rows = []
    for name, stage in payload["stages"].items():
        rows.append([
            name,
            stage["kind"],
            str(stage["n_requests"]),
            str(stage["prompt_tokens"] + stage["completion_tokens"]),
            f"{stage['estimated_seconds']:.2f}",
            str(stage["n_quarantined"]),
        ])
    totals = payload["end_to_end"]
    rows.append([
        "end-to-end", "-",
        str(totals["n_requests"]),
        str(totals["prompt_tokens"] + totals["completion_tokens"]),
        f"{totals['estimated_seconds']:.2f}",
        "-",
    ])
    print()
    print(render_table(
        f"Flow — {payload['flow']}, Beer 30+30 rows, GPT-3.5, "
        f"concurrency {payload['concurrency']}",
        ["stage", "kind", "requests", "tokens", "sim s", "quarantined"],
        rows,
    ))
    print(f"outputs: {payload['outputs']}")

    # the roll-up must equal the sum of its stages
    for key in ("prompt_tokens", "completion_tokens", "n_requests"):
        assert totals[key] == sum(s[key] for s in payload["stages"].values())
    # the flow did real work at every stage
    assert payload["outputs"]["flagged"] > 0
    assert payload["outputs"]["imputed"] > 0
    assert payload["outputs"]["correspondences"] > 0
    assert totals["n_requests"] > 0
