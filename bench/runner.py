"""Run one benchmark workload once, in this process, and print one JSON line.

    PYTHONPATH=src python bench/runner.py WORKLOAD --seed S --out DIR [--trace] [--smoke]

``bench/run.py`` starts a fresh process of this script per repetition and
derives every metric from the line it prints: ``time.monotonic()`` stamps
(system-wide on Linux, so comparable with the parent's spawn stamp), the
bench-owned input time to leave out, ``ru_maxrss`` of this process and of
its children, the counts read from the program's public results, and a
digest of the outputs.

Each workload function imports what it needs from ``repro``, calls
:meth:`Bench.setup_done` (that stamp ends set-up), does the work, and
returns a function that reads the outcome from the program's results;
``main`` calls it after the work stamp, so scoring and digesting the
outputs are not timed.  With ``--trace`` the layer wrappers
(``bench/layers.py``) go in when set-up ends, before any workload code
runs, and the trace is written to ``DIR/trace-WORKLOAD.json``.
A workload calls a layer's entry point through its module
(``datasets.load_dataset``), never through a name it imported, because a
name bound before the wrappers went in would bypass them.
``--smoke`` shrinks every workload for the self-test.

``main()`` must stay under the ``__main__`` guard: the sharded workload's
spawn-context pool imports this file in every worker.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import layers

#: printed to stderr when set-up ends, so a ``-X importtime`` log can be
#: cut there (spawned shard workers log their own imports after it)
SETUP_MARK = "bench: setup done"

MODEL = "gpt-3.5"
#: The datasets are fixed benchmarks, as in the paper; ``--seed`` is the
#: run seed (few-shot sample, batch order, model sampling, serving trace).
#: The generation seed stays fixed because it moves the solvers' host cost
#: by up to 45% between datasets: seed-to-seed spread as large as the
#: regressions the benchmark is meant to catch.
DATASET_SEED = 0
ADULT_SIZE = (10_000, 300)           # (full, smoke) instances
AMAZON_GOOGLE_SIZE = (None, 200)     # None: the dataset's own 2,293 pairs
SHARD_WORKERS = 2

SERVE_REQUESTS = (200_000, 2_000)
SERVE_POPULATION = (2_000, 200)      # distinct Adult instances asked about
SERVE_RATE_RPS = 50.0                # aggregate arrival rate, virtual clock
SERVE_TENANTS = {"tenant-a": 1.0, "tenant-b": 2.0, "tenant-c": 4.0}
SERVE_PARETO_ALPHA = 1.1
SERVE_CONCURRENCY = 4


def digest_of(value: object) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def serve_trace(seed: int, n_requests: int, population: int) -> list[tuple]:
    """Open-loop arrivals as ``(arrival_s, tenant, population index)``.

    One Poisson stream at :data:`SERVE_RATE_RPS`, each arrival given to a
    tenant in proportion to its rate share (the superposition of one
    Poisson stream per tenant), asking about the record at a
    Pareto-distributed popularity rank.  Standard library only, so no
    change to the program can change the workload.
    """
    rng = random.Random(f"serve:{seed}")
    by_rank = list(range(population))
    rng.shuffle(by_rank)
    tenants = list(SERVE_TENANTS)
    shares = list(SERVE_TENANTS.values())
    arrival = 0.0
    trace = []
    for __ in range(n_requests):
        arrival += rng.expovariate(SERVE_RATE_RPS)
        tenant = rng.choices(tenants, weights=shares)[0]
        rank = min(int(rng.paretovariate(SERVE_PARETO_ALPHA)) - 1, population - 1)
        trace.append((arrival, tenant, by_rank[rank]))
    return trace


class Bench:
    """Stamps, excluded input time and (with ``--trace``) the tracer."""

    def __init__(self, args: argparse.Namespace):
        self.workload = args.workload
        self.seed = args.seed
        self.out = Path(args.out)
        self.smoke = args.smoke
        self.trace = args.trace
        self.t_setup: float | None = None
        self.input_s = 0.0
        self.input_pre_s = 0.0
        self.tracer = None
        self._root = nullcontext()

    def size(self, sizes: tuple):
        return sizes[1] if self.smoke else sizes[0]

    def setup_done(self) -> None:
        """End of set-up: imports are done; the measured work starts."""
        self.t_setup = time.monotonic()
        if self.trace:
            print(SETUP_MARK, file=sys.stderr, flush=True)
            self.tracer = layers.Tracer()
            layers.install(self.tracer)
            self._root = self.tracer.span(layers.ROOT)
        self._root.__enter__()

    def work_done(self) -> float:
        self._root.__exit__(None, None, None)
        return time.monotonic()

    @contextmanager
    def input(self):
        """Bench-owned input generation, left out of every metric."""
        started = time.monotonic()
        with self.tracer.span(layers.INPUT) if self.tracer else nullcontext():
            yield
        elapsed = time.monotonic() - started
        self.input_s += elapsed
        if self.t_setup is None:
            self.input_pre_s += elapsed


def keep_pipeline_results(preprocessor_class) -> list:
    """Keep every ``PipelineResult`` that ``Preprocessor.run`` returns.

    ``evaluate_pipeline`` hands back only the scored summary; the output
    digest needs the predictions, quarantine and usage behind it.
    """
    results = []
    run = preprocessor_class.run

    def run_and_keep(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        results.append(result)
        return result

    preprocessor_class.run = run_and_keep
    return results


def prep_hit_ratio(counters: dict) -> float:
    """Prep-cache hits over lookups, from a metrics snapshot's counters."""
    def total(suffix: str) -> float:
        return sum(
            value for name, value in counters.items()
            if name.startswith("prep.") and name.endswith(suffix)
        )

    hits = total(".hits")
    return layers.ratio(hits, hits + total(".misses"))


def pipeline_outcome(run, result) -> dict:
    """Outcome of an ``evaluate_pipeline`` run and its ``PipelineResult``."""
    n_items = len(result.predictions)
    if run.n_instances != n_items:
        raise RuntimeError(f"{n_items} predictions for {run.n_instances} instances")
    prep = result.prep
    return {
        "items": n_items,
        "failed": result.n_quarantined,
        "answered": n_items - result.n_fallbacks - result.n_quarantined,
        "score": None if run.score is None else run.score * 100.0,
        "tokens": run.total_tokens,
        "sim_hours": run.hours,
        "digest": digest_of({
            "predictions": result.predictions,
            "quarantine": [
                [q.index, q.reason, q.detail] for q in result.quarantine
            ],
            "usage": [
                result.usage.prompt_tokens, result.usage.completion_tokens
            ],
        }),
        "program": {
            "core.prep.hit_ratio": layers.ratio(
                prep.total_hits, prep.total_hits + prep.total_misses
            ),
        },
    }


def ed_adult_10k(bench: Bench):
    """The paper's Table 3 run: Adult ED, gpt-3.5, default config, as
    ``python -m repro.eval run --dataset adult --size 10000`` does it."""
    import repro.datasets as datasets
    from repro.core.config import PipelineConfig
    from repro.core.pipeline import Preprocessor
    from repro.eval.harness import evaluate_pipeline
    from repro.llm.simulated import SimulatedLLM

    results = keep_pipeline_results(Preprocessor)
    bench.setup_done()
    dataset = datasets.load_dataset(
        "adult", size=bench.size(ADULT_SIZE), seed=DATASET_SEED
    )
    config = PipelineConfig(model=MODEL, seed=bench.seed, observability=True)
    run = evaluate_pipeline(
        SimulatedLLM(MODEL, seed=bench.seed), config, dataset,
        manifest_path=bench.out / f"manifest-{bench.workload}.json",
    )
    return lambda: pipeline_outcome(run, results[-1])


def em_amazon_google_journal(bench: Bench):
    """Section 4.2's cluster batching on Amazon-Google EM, journaled
    through ``RunCheckpoint``: one fsync'd record per batch."""
    import repro.datasets as datasets
    from repro.core.config import PipelineConfig
    from repro.core.pipeline import Preprocessor
    from repro.eval.harness import evaluate_pipeline
    from repro.llm.simulated import SimulatedLLM
    from repro.runtime.checkpoint import RunCheckpoint

    results = keep_pipeline_results(Preprocessor)
    journal = bench.out / f"{bench.workload}.journal"
    journal.unlink(missing_ok=True)  # a leftover journal would be resumed
    bench.setup_done()
    dataset = datasets.load_dataset(
        "amazon_google", size=bench.size(AMAZON_GOOGLE_SIZE), seed=DATASET_SEED
    )
    config = PipelineConfig(model=MODEL, seed=bench.seed, batching="cluster")
    run = evaluate_pipeline(
        SimulatedLLM(MODEL, seed=bench.seed), config, dataset,
        checkpoint=RunCheckpoint(journal),
    )

    def outcome() -> dict:
        result = pipeline_outcome(run, results[-1])
        result["program"]["runtime.journal.bytes"] = journal.stat().st_size
        journal.unlink()
        return result

    return outcome


def ed_adult_10k_sharded2(bench: Bench):
    """``ed_adult_10k`` through the shard layer, as ``run --workers 2``
    does it; the merged payload is written here because that command
    ignores ``--manifest``."""
    import repro.datasets as datasets
    import repro.shard.runner as shard_runner
    from repro.core.config import PipelineConfig
    from repro.data.instances import ground_truth_labels
    from repro.eval.metrics import score_answered
    from repro.llm.backend import SimulatedBackend
    from repro.obs.manifest import canonical_json

    bench.setup_done()
    dataset = datasets.load_dataset(
        "adult", size=bench.size(ADULT_SIZE), seed=DATASET_SEED
    )
    config = PipelineConfig(model=MODEL, seed=bench.seed, observability=True)
    run = shard_runner.run_sharded(
        SimulatedBackend(model=MODEL, seed=bench.seed), config, dataset,
        workers=SHARD_WORKERS,
    )
    payload = canonical_json(run.payload())
    (bench.out / f"payload-{bench.workload}.json").write_text(
        payload, encoding="utf-8"
    )

    def outcome() -> dict:
        merged = run.merged
        n_items = len(merged.predictions)
        score, __ = score_answered(
            dataset.task, merged.predictions,
            ground_truth_labels(dataset.instances),
        )
        sizes = [spec.n_instances for spec in run.plan.shards]
        return {
            "items": n_items,
            "failed": merged.n_quarantined,
            "answered": n_items - merged.n_fallbacks - merged.n_quarantined,
            "score": None if score is None else score * 100.0,
            "tokens": sum(merged.usage.values()),
            "sim_hours": merged.estimated_seconds / 3600.0,
            "digest": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
            "program": {
                "core.prep.hit_ratio": prep_hit_ratio(
                    (merged.metrics or {}).get("counters", {})
                ),
                "shard.imbalance": max(sizes) / (sum(sizes) / len(sizes)),
            },
        }

    return outcome


def serve_adult_200k(bench: Bench):
    """200k open-loop requests from three tenants into one service over a
    2,000-record Adult population; budgets are generous, so none is
    refused and admission, the answer cache and the coalescer do the work."""
    with bench.input():
        trace = serve_trace(
            bench.seed, bench.size(SERVE_REQUESTS), bench.size(SERVE_POPULATION)
        )
    import repro.datasets as datasets
    from repro.core.config import PipelineConfig
    from repro.data.instances import ground_truth_labels
    from repro.eval.metrics import score_answered
    from repro.llm.simulated import SimulatedLLM
    from repro.serving.request import ServeRequest
    from repro.serving.service import PreprocessingService, ServeConfig
    from repro.serving.tenants import TenantBudget

    bench.setup_done()
    dataset = datasets.load_dataset(
        "adult", size=bench.size(SERVE_POPULATION), seed=DATASET_SEED
    )
    with bench.input():
        requests = [
            ServeRequest(
                request_id=request_id, tenant=tenant, arrival_s=arrival,
                instance=dataset.instances[index],
            )
            for request_id, (arrival, tenant, index) in enumerate(trace)
        ]
    budgets = [
        TenantBudget(name, requests_per_minute=10**9, tokens_per_minute=10**12)
        for name in SERVE_TENANTS
    ]
    service = PreprocessingService(
        SimulatedLLM(MODEL, seed=bench.seed), dataset, budgets,
        serve_config=ServeConfig(),
        pipeline_config=PipelineConfig(
            model=MODEL, seed=bench.seed, concurrency=SERVE_CONCURRENCY
        ),
    )
    report = service.serve(requests)

    def outcome() -> dict:
        if report.n_served + report.n_rejected != len(trace):
            raise RuntimeError("served + rejected does not partition the trace")
        # The task metric over the distinct questions the service answered.
        answers = {
            trace[r.request_id][2]: r.prediction for r in report.responses
        }
        asked = sorted(answers)
        score, __ = score_answered(
            dataset.task, [answers[i] for i in asked],
            ground_truth_labels([dataset.instances[i] for i in asked]),
        )
        n_failed = report.n_rejected + sum(
            1 for r in report.responses if r.quarantine_reason
        )
        return {
            "items": len(trace),
            "failed": n_failed,
            "answered": len(trace) - n_failed,
            "score": None if score is None else score * 100.0,
            "tokens": report.usage.total_tokens,
            "sim_hours": report.makespan_s / 3600.0,
            "digest": digest_of(sorted(
                [r.request_id, r.source, r.prediction]
                for r in report.responses
            )),
            "program": {
                "core.prep.hit_ratio": prep_hit_ratio(
                    report.metrics.get("counters", {})
                ),
                "serving.cache.hit_ratio": report.cache_hit_rate,
                "serving.coalesce_rate": report.coalesce_rate,
            },
        }

    return outcome


WORKLOADS = {
    "ed_adult_10k": ed_adult_10k,
    "em_amazon_google_journal": em_amazon_google_journal,
    "ed_adult_10k_sharded2": ed_adult_10k_sharded2,
    "serve_adult_200k": serve_adult_200k,
}

#: per-layer metrics read from the program's results; 0 where a workload
#: has no such result
PROGRAM_METRICS = (
    "core.prep.hit_ratio",
    "runtime.journal.bytes",
    "shard.imbalance",
    "serving.cache.hit_ratio",
    "serving.coalesce_rate",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="bench/out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    bench = Bench(args)
    bench.out.mkdir(parents=True, exist_ok=True)

    outcome_of = WORKLOADS[args.workload](bench)
    t_done = bench.work_done()
    outcome = outcome_of()

    line = {
        "t_setup": bench.t_setup,
        "t_done": t_done,
        "input_s": bench.input_s,
        "input_pre_s": bench.input_pre_s,
        "work_s": t_done - bench.t_setup - (bench.input_s - bench.input_pre_s),
        "items": outcome["items"],
        "failed": outcome["failed"],
        "answered": outcome["answered"],
        "score": outcome["score"],
        "tokens": outcome["tokens"],
        "sim_hours": outcome["sim_hours"],
        "digest": outcome["digest"],
        "maxrss_self_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "maxrss_children_kib": resource.getrusage(
            resource.RUSAGE_CHILDREN
        ).ru_maxrss,
        "numpy": sys.modules["numpy"].__version__,
    }
    if bench.tracer is not None:
        per_layer = layers.span_metrics(bench.tracer)
        for name in PROGRAM_METRICS:
            per_layer[name] = outcome["program"].get(name, 0.0)
        per_layer["import.repro_modules"] = sum(
            1 for name in sys.modules
            if name == "repro" or name.startswith("repro.")
        )
        line["per_layer"] = per_layer
        bench.tracer.write(bench.out / f"trace-{args.workload}.json")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
