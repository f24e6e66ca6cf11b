"""Command-line entry point: regenerate the paper's tables.

Usage::

    python -m repro.eval table1 [--scale 0.2] [--seed 0]
    python -m repro.eval table2 [--scale 0.2]
    python -m repro.eval table3 [--scale 0.1]
    python -m repro.eval feature-selection
    python -m repro.eval cluster-batching
    python -m repro.eval all [--scale 0.1]
    python -m repro.eval run --dataset beer [--model gpt-3.5]
                             [--manifest out.json] [--chrome out.trace.json]
                             [--journal run.journal | --resume run.journal]
                             [--degradation off|ladder]
                             [--workers N] [--shards S] [--resilience]
    python -m repro.eval trace manifest.json [--chrome out.trace.json]
    python -m repro.eval golden [--update] [--cell NAME] [--store DIR]
    python -m repro.eval fuzz [--cases 200] [--seed 0]
    python -m repro.eval gen SCHEMA [--table T] [--rows N] [--seed 0]
                             [--group-size 4096] [--out rows.jsonl]
    python -m repro.eval chaos [--cell NAME] [--site SITE] [--workdir DIR]
    python -m repro.eval flow SPEC.yaml [--describe] [--workdir DIR]
                             [--resume] [--manifest OUT] [--concurrency N]
    python -m repro.eval flow --reference

Every cell prints as ``measured (paper)`` so the reproduction gap is
visible inline.  ``--scale 1.0`` runs the published dataset sizes.
``run`` performs one observed evaluation and writes its manifest;
``--journal`` makes the run crash-safe (one fsync'd record per batch)
and ``--resume`` continues an interrupted run from its journal,
bit-identically.  ``trace`` renders a previously written manifest (and
can convert its span trace to the Chrome ``chrome://tracing`` format).
``golden`` verifies (or, with ``--update``, re-records) the golden
conformance snapshots; ``fuzz`` runs the deterministic reply fuzzer;
``chaos`` runs the crash→resume determinism matrix over healthy and
degraded backends.  All three exit non-zero on drift/violations.
``flow`` runs (or ``--describe``s) a
declarative prep flow — a YAML stage DAG, or the shipped reference flow
with ``--reference`` — with per-stage checkpointing under ``--workdir``
and bit-identical ``--resume``.  ``gen`` streams rows from a factory
schema (file or preset) without materializing the table and prints their
content digest; ``run --dataset schema:<path>`` evaluates the pipeline
over such a schema directly.  ``run --resilience`` routes the run through
a scripted backend brownout behind the failover/hedging/AIMD stack and
prints the adaptive accounting.  The subsystem benchmarks (shards,
serving, resilience, flows) run as ``pytest benchmarks/test_*.py -s``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.eval import experiments
from repro.eval.reporting import render_table


def _print_grid(
    title: str,
    grid: dict[str, dict[str, experiments.Cell]],
    datasets: tuple[str, ...],
) -> None:
    rows = []
    for method, cells in grid.items():
        rows.append([method] + [str(cells[name]) for name in datasets])
    print(render_table(title, ["method"] + list(datasets), rows))
    print()


def _cmd_table1(args: argparse.Namespace) -> None:
    grid = experiments.run_table1(scale=args.scale, seed=args.seed)
    _print_grid(
        "Table 1 — comparison with baselines, measured (paper)",
        grid,
        experiments.TABLE1_DATASETS,
    )


def _cmd_table2(args: argparse.Namespace) -> None:
    grid = experiments.run_table2(scale=args.scale, seed=args.seed)
    _print_grid(
        "Table 2 — prompt-component ablation with GPT-3.5, measured (paper)",
        grid,
        experiments.TABLE2_DATASETS,
    )


def _cmd_table3(args: argparse.Namespace) -> None:
    results = experiments.run_table3(scale=args.scale, seed=args.seed)
    rows = []
    for result in results:
        paper = result.paper or (None, None, None, None)
        f1 = "N/A" if result.f1 is None else f"{result.f1 * 100:.1f}"
        rows.append([
            str(result.batch_size),
            f"{f1} ({paper[0]})",
            f"{result.tokens_m:.3f} ({paper[1]})",
            f"{result.cost_usd:.2f} ({paper[2]})",
            f"{result.hours:.2f} ({paper[3]})",
        ])
    print(render_table(
        f"Table 3 — batch size on Adult ED, GPT-3.5, no few-shot "
        f"(scale={args.scale}; paper numbers are for scale=1.0)",
        ["batch", "F1 % (paper)", "tokens M (paper)", "cost $ (paper)",
         "time h (paper)"],
        rows,
    ))
    print()


def _cmd_feature_selection(args: argparse.Namespace) -> None:
    result = experiments.run_feature_selection(seed=args.seed)
    paper = result.paper or (None, None)
    print("Feature selection — Beer EM, GPT-4, zero-shot (Section 4.2)")
    score_a = "N/A" if result.score_a is None else f"{result.score_a * 100:.1f}"
    score_b = "N/A" if result.score_b is None else f"{result.score_b * 100:.1f}"
    print(f"  {result.label_a}: {score_a} (paper {paper[0]})")
    print(f"  {result.label_b}: {score_b} (paper {paper[1]})")
    print()


def _cmd_cluster_batching(args: argparse.Namespace) -> None:
    result = experiments.run_cluster_batching(scale=args.scale, seed=args.seed)
    paper = result.paper or (None, None)
    print("Cluster batching — Amazon-Google EM, GPT-3.5, zero-shot (Section 4.2)")
    score_a = "N/A" if result.score_a is None else f"{result.score_a * 100:.1f}"
    score_b = "N/A" if result.score_b is None else f"{result.score_b * 100:.1f}"
    print(f"  {result.label_a}: {score_a} (paper {paper[0]})")
    print(f"  {result.label_b}: {score_b} (paper {paper[1]})")
    print()


def _cmd_run_sharded(args: argparse.Namespace) -> int:
    """The scale-out path of ``run``: shard the dataset, fan out workers.

    ``--journal`` names a *directory* here (one ``shard-NNNN.journal``
    per shard); re-running with the same directory resumes.  The merged
    result is bit-identical at any ``--workers`` count.
    """
    from repro import PipelineConfig, load_dataset
    from repro.data.instances import ground_truth_labels
    from repro.errors import ShardError
    from repro.eval.metrics import score_answered
    from repro.eval.reporting import format_score_with_coverage
    from repro.llm.backend import SimulatedBackend
    from repro.llm.profiles import get_profile
    from repro.runtime import JournalError
    from repro.shard import run_sharded

    dataset = load_dataset(args.dataset, size=args.size, seed=args.seed)
    config = PipelineConfig(
        model=args.model,
        seed=args.seed,
        concurrency=args.concurrency,
        observability=True,
        degradation=args.degradation,
    )
    backend = SimulatedBackend(model=args.model, seed=args.seed)
    workdir = args.resume or args.journal
    try:
        run = run_sharded(
            backend, config, dataset,
            n_shards=args.shards,
            workers=args.workers,
            workdir=workdir,
        )
    except (ShardError, JournalError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    merged = run.merged
    labels = ground_truth_labels(dataset.instances)
    score, n_scored = score_answered(
        dataset.task, merged.predictions, labels
    )
    cost = get_profile(args.model).cost_usd(
        merged.usage["prompt_tokens"], merged.usage["completion_tokens"]
    )
    score_text = format_score_with_coverage(score, merged.coverage)
    total_tokens = (
        merged.usage["prompt_tokens"] + merged.usage["completion_tokens"]
    )
    print(
        f"{args.dataset} / {args.model}: {dataset.task.metric_name} "
        f"{score_text}, {total_tokens} tokens, ${cost:.2f}, "
        f"{merged.estimated_seconds / 3600.0:.3f}h"
    )
    print(
        f"sharded: {run.plan.n_shards} shard(s) over {run.workers} "
        f"worker(s); parallel makespan {merged.estimated_seconds:.1f}s vs "
        f"{merged.sequential_seconds:.1f}s sequential"
    )
    if merged.n_quarantined:
        print(
            f"quarantined: {merged.n_quarantined}/{merged.n_instances} "
            f"instance(s) left unanswered"
        )
    if workdir:
        print(f"shard journals under {workdir}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """One observed evaluation run; optionally writes its manifest."""
    from pathlib import Path

    if args.resume and not Path(args.resume).exists():
        print(f"error: no journal to resume at {args.resume}", file=sys.stderr)
        return 2
    if args.workers > 1 or args.shards is not None:
        if args.resilience:
            print(
                "error: --resilience drives the single-process path; "
                "drop --workers/--shards",
                file=sys.stderr,
            )
            return 2
        return _cmd_run_sharded(args)

    from repro import PipelineConfig, SimulatedLLM, load_dataset
    from repro.eval.harness import evaluate_pipeline
    from repro.eval.reporting import (
        format_score_with_coverage,
        render_execution_report,
    )
    from repro.obs import (
        render_metrics_summary,
        render_trace_summary,
        spans_from_json,
        trace_to_chrome,
    )

    checkpoint = None
    journal_path = args.resume or args.journal
    from repro.runtime import JournalError

    if journal_path:
        from repro.runtime import RunCheckpoint

        checkpoint = RunCheckpoint(journal_path)
    dataset = load_dataset(args.dataset, size=args.size, seed=args.seed)
    config = PipelineConfig(
        model=args.model,
        seed=args.seed,
        concurrency=args.concurrency,
        observability=True,
        degradation=args.degradation,
    )
    client = SimulatedLLM(args.model, seed=args.seed)
    executor_config = None
    if args.resilience:
        # Demo stack: the primary suffers a scripted brownout while a
        # healthy secondary stands by behind the failover router; the
        # executor runs with the pool's adaptive (AIMD + hedging) config.
        from repro.core.executor import ExecutorConfig
        from repro.resilience import brownout_plan, degraded_pool

        pool = degraded_pool(
            args.model, args.seed, brownout_plan(seed=args.seed)
        )
        client = pool.build()
        executor_config = ExecutorConfig(resilience=pool.resilience)
    try:
        run = evaluate_pipeline(
            client, config, dataset,
            manifest_path=args.manifest,
            checkpoint=checkpoint,
            executor_config=executor_config,
        )
    except JournalError as error:  # mismatched or damaged journal
        print(f"error: {error}", file=sys.stderr)
        return 2
    score_text = format_score_with_coverage(run.score, run.coverage)
    print(
        f"{args.dataset} / {args.model}: {run.metric_name} {score_text}, "
        f"{run.total_tokens} tokens, ${run.cost_usd:.2f}, {run.hours:.3f}h"
    )
    if run.n_quarantined:
        print(
            f"quarantined: {run.n_quarantined}/{run.n_instances} "
            f"instance(s) left unanswered (coverage "
            f"{run.coverage * 100:.1f}%)"
        )
    if journal_path:
        print(f"journal at {journal_path}")
    if args.resilience:
        router = client.health_payload()["router"]
        breakers = (
            dict(run.execution.breaker_transitions)
            if run.execution is not None else {}
        )
        print(
            f"resilience: {router['n_failovers']} failover(s), "
            f"{router['n_hedge_wins']}/{router['n_hedges']} hedge win(s), "
            f"{router['n_exhausted']} exhausted call(s); breaker "
            f"transitions {breakers}"
        )
        for backend in client.health_payload()["backends"]:
            print(
                f"  backend {backend['name']}: circuit {backend['state']}, "
                f"error rate {backend['error_rate']:.3f}"
            )
    if run.execution is not None:
        print(render_execution_report(run.execution))
    print(render_trace_summary(spans_from_json(run.manifest.trace)))
    print(render_metrics_summary(run.manifest.metrics))
    if args.manifest:
        print(f"manifest written to {args.manifest}")
    if args.chrome:
        spans = spans_from_json(run.manifest.trace)
        with open(args.chrome, "w", encoding="utf-8") as handle:
            json.dump(trace_to_chrome(spans), handle)
        print(f"chrome trace written to {args.chrome}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run the crash→resume determinism matrix (the CI chaos job)."""
    from repro.runtime import CRASH_SITES, default_chaos_cells, run_crash_matrix

    cells = default_chaos_cells()
    if args.cell:
        wanted = set(args.cell)
        known = {cell.name for cell in cells}
        unknown = wanted - known
        if unknown:
            print(
                f"error: unknown chaos cell(s) {sorted(unknown)}; "
                f"known: {sorted(known)}",
                file=sys.stderr,
            )
            return 2
        cells = tuple(cell for cell in cells if cell.name in wanted)
    sites = tuple(args.site) if args.site else CRASH_SITES
    unknown_sites = set(sites) - set(CRASH_SITES)
    if unknown_sites:
        print(
            f"error: unknown crash site(s) {sorted(unknown_sites)}; "
            f"known: {list(CRASH_SITES)}",
            file=sys.stderr,
        )
        return 2
    trials = run_crash_matrix(
        cells=cells, sites=sites, workdir=args.workdir,
        artifact=args.artifact,
    )
    for trial in trials:
        print(trial.render())
    failed = [trial for trial in trials if not trial.ok]
    print(
        f"chaos: {len(trials) - len(failed)}/{len(trials)} trial(s) "
        f"resumed bit-identically"
    )
    return 1 if failed else 0


def _cmd_trace(args: argparse.Namespace) -> None:
    """Render a previously written run manifest."""
    from repro.obs import (
        RunManifest,
        render_metrics_summary,
        render_trace_summary,
        spans_from_json,
        trace_to_chrome,
    )

    manifest = RunManifest.load(args.manifest)
    evaluation = manifest.evaluation
    score = evaluation.get("score")
    score_text = "N/A" if score is None else f"{score * 100:.1f}"
    print(
        f"Manifest v{manifest.version} — "
        f"{manifest.dataset.get('name')} / {evaluation.get('model')}: "
        f"{evaluation.get('metric_name')} {score_text}, "
        f"{evaluation.get('total_tokens')} tokens, "
        f"{evaluation.get('hours', 0.0):.3f}h "
        f"(speedup {evaluation.get('speedup', 1.0):.2f}x)"
    )
    spans = spans_from_json(manifest.trace)
    print(render_trace_summary(spans))
    print(render_metrics_summary(manifest.metrics))
    if args.chrome:
        with open(args.chrome, "w", encoding="utf-8") as handle:
            json.dump(trace_to_chrome(spans), handle)
        print(f"chrome trace written to {args.chrome}")


def _cmd_golden(args: argparse.Namespace) -> int:
    """Verify or re-record the golden conformance snapshots."""
    from repro.testing import (
        ALL_GOLDEN_CELLS,
        GoldenStore,
        capture_snapshot,
        cell_by_name,
        render_diffs,
        write_diff_artifact,
    )

    store = GoldenStore(args.store)
    cells = (
        [cell_by_name(name) for name in args.cell]
        if args.cell else list(ALL_GOLDEN_CELLS)
    )
    drifted = 0
    for cell in cells:
        payload = capture_snapshot(cell)
        if args.update:
            path = store.save(cell.name, payload)
            print(f"golden {cell.name}: recorded -> {path}")
            continue
        diffs = store.verify(cell.name, payload)
        report = render_diffs(cell.name, diffs)
        print(report)
        if diffs:
            drifted += 1
            write_diff_artifact(report, args.diff_artifact)
    if drifted:
        print(f"{drifted}/{len(cells)} snapshot(s) drifted")
        return 1
    return 0


def _cmd_flow(args: argparse.Namespace) -> int:
    """Run, resume, or describe a declarative prep flow."""
    from pathlib import Path

    from repro.core.config import PipelineConfig
    from repro.errors import ConfigError
    from repro.flow import FlowEngine, load_flow_spec, reference_spec
    from repro.llm.simulated import SimulatedLLM
    from repro.obs.manifest import canonical_json
    from repro.runtime import JournalError

    try:
        if args.reference:
            spec = reference_spec()
        elif args.spec is not None:
            spec = load_flow_spec(
                Path(args.spec).read_text(encoding="utf-8")
            )
        else:
            print(
                "error: provide a flow spec path or --reference",
                file=sys.stderr,
            )
            return 2
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: cannot read {args.spec}: {error}", file=sys.stderr)
        return 2
    if args.describe:
        print(spec.describe())
        return 0
    if args.resume:
        if args.workdir is None:
            print(
                "error: --resume needs --workdir (the ledger lives there)",
                file=sys.stderr,
            )
            return 2
        ledger_path = Path(args.workdir) / "flow.journal"
        if not ledger_path.exists():
            print(
                f"error: no flow ledger to resume at {ledger_path}",
                file=sys.stderr,
            )
            return 2
    try:
        overrides = dict(spec.config)
        overrides["concurrency"] = args.concurrency
        config = PipelineConfig(**overrides)
        if args.workers > 1:
            # Parallel stages require hermetic per-stage clients; the
            # backend builds one in each worker process.
            from repro.llm.backend import SimulatedBackend

            engine = FlowEngine(
                None, config, workdir=args.workdir,
                backend=SimulatedBackend(model=config.model, seed=args.seed),
                workers=args.workers,
            )
        else:
            client = SimulatedLLM(config.model, seed=args.seed)
            engine = FlowEngine(client, config, workdir=args.workdir)
        tables, __ = spec.build_inputs()
        result = engine.run(spec.graph, tables)
    except (ConfigError, JournalError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"flow {spec.name}: {len(result.order)} stage(s)")
    for name in result.order:
        stage = result.stages[name]
        usage = stage.report.usage
        origin = "resumed from ledger" if stage.resumed else "ran"
        note = (
            f", {len(stage.quarantine)} quarantined"
            if stage.quarantine else ""
        )
        print(
            f"  {name} ({stage.kind}): {origin}, "
            f"{stage.report.n_requests} request(s), "
            f"{usage.prompt_tokens + usage.completion_tokens} tokens{note}"
        )
    totals = result.report
    print(
        f"end to end: {totals.n_requests} request(s), "
        f"{totals.usage.prompt_tokens + totals.usage.completion_tokens} "
        f"tokens, {totals.estimated_seconds:.2f}s simulated"
    )
    if args.workdir is not None:
        print(f"ledger at {Path(args.workdir) / 'flow.journal'}")
    if args.manifest:
        Path(args.manifest).write_text(
            canonical_json(result.manifest_payload()), encoding="utf-8"
        )
        print(f"manifest written to {args.manifest}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    """Stream rows from a factory schema, row-group by row-group.

    ``SCHEMA`` is a schema file path or a shipped preset name.  The rows
    are generated and (optionally) written without ever materializing
    the table; the printed digest is :meth:`TableStream.digest`, so two
    runs — or a streamed and a materialized run — can be compared by one
    hex string.
    """
    import hashlib

    from repro.errors import ConfigError, DatasetError
    from repro.factory import DatasetFactory, preset, load_schema_file
    from repro.factory.presets import PRESET_NAMES
    from repro.obs.manifest import canonical_json

    try:
        if args.schema in PRESET_NAMES:
            schema = preset(args.schema)
        else:
            schema = load_schema_file(args.schema)
        factory = DatasetFactory(schema, seed=args.seed)
        stream = factory.stream(args.table)
        n_rows = args.rows if args.rows is not None else stream.rows
        if n_rows < 0:
            raise ConfigError(f"--rows must be >= 0, got {n_rows}")
        hasher = hashlib.blake2b(digest_size=16)
        out = open(args.out, "w", encoding="utf-8") if args.out else None
        try:
            for group in stream.iter_groups(
                n_rows=n_rows, group_size=args.group_size
            ):
                for row in group:
                    # digest over the same canonical framing as
                    # TableStream.digest; output as compact JSON lines
                    hasher.update(canonical_json(row).encode("utf-8"))
                    hasher.update(b"\x00")
                    if out is not None:
                        out.write(
                            json.dumps(row, sort_keys=True,
                                       ensure_ascii=False) + "\n"
                        )
        finally:
            if out is not None:
                out.close()
    except (ConfigError, DatasetError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        f"{schema.name} [{schema.fingerprint}] table {stream.spec.name}: "
        f"{n_rows} row(s), seed {args.seed}, digest {hasher.hexdigest()}"
    )
    if args.out:
        print(f"rows written to {args.out}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Run the deterministic reply fuzzer and report invariant violations."""
    from repro.testing import run_fuzz

    report = run_fuzz(n_cases=args.cases, seed=args.seed)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_all(args: argparse.Namespace) -> None:
    _cmd_table1(args)
    _cmd_table2(args)
    _cmd_table3(args)
    _cmd_feature_selection(args)
    _cmd_cluster_batching(args)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-eval",
        description="Regenerate the tables of 'LLMs as Data Preprocessors'.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scale", type=float, default=0.2,
                        help="dataset size scale (1.0 = published sizes)")
    common.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (
        ("table1", _cmd_table1),
        ("table2", _cmd_table2),
        ("table3", _cmd_table3),
        ("feature-selection", _cmd_feature_selection),
        ("cluster-batching", _cmd_cluster_batching),
        ("all", _cmd_all),
    ):
        command = sub.add_parser(name, parents=[common])
        command.set_defaults(handler=handler)
    run_cmd = sub.add_parser(
        "run", help="one observed evaluation run (writes a manifest)"
    )
    run_cmd.add_argument("--dataset", required=True,
                         help="a registered dataset name, or "
                              "schema:<path> for a factory schema file")
    run_cmd.add_argument("--model", default="gpt-3.5")
    run_cmd.add_argument("--size", type=int, default=None,
                         help="instance count (default: the dataset's)")
    run_cmd.add_argument("--seed", type=int, default=0)
    run_cmd.add_argument("--concurrency", type=int, default=1)
    run_cmd.add_argument("--manifest", default=None,
                         help="write the run manifest JSON here")
    run_cmd.add_argument("--chrome", default=None,
                         help="write a chrome://tracing JSON here")
    run_cmd.add_argument("--journal", default=None, metavar="PATH",
                         help="journal the run to PATH (crash-safe; one "
                              "fsync'd record per completed batch)")
    run_cmd.add_argument("--resume", default=None, metavar="PATH",
                         help="resume an interrupted run from its journal "
                              "(must exist; refuses a journal from a "
                              "different configuration)")
    run_cmd.add_argument("--degradation", default="off",
                         choices=("off", "ladder"),
                         help="failure handling: 'off' fills safe fallback "
                              "answers (historical), 'ladder' bisects and "
                              "quarantines instead of guessing")
    run_cmd.add_argument("--workers", type=int, default=1,
                         help="worker processes for the sharded path "
                              "(default 1: single-process, bit-identical "
                              "to the historical behaviour)")
    run_cmd.add_argument("--shards", type=int, default=None,
                         help="shard count for the sharded path (default: "
                              "auto-sized from the dataset; setting this "
                              "opts into sharding even at --workers 1)")
    run_cmd.add_argument("--resilience", action="store_true",
                         help="route the run through a scripted backend "
                              "brownout behind the failover/hedging/AIMD "
                              "stack and print the adaptive accounting")
    run_cmd.set_defaults(handler=_cmd_run)
    trace_cmd = sub.add_parser(
        "trace", help="render a run manifest written by `run`"
    )
    trace_cmd.add_argument("manifest", help="path to a manifest JSON")
    trace_cmd.add_argument("--chrome", default=None,
                           help="write a chrome://tracing JSON here")
    trace_cmd.set_defaults(handler=_cmd_trace)
    golden_cmd = sub.add_parser(
        "golden", help="verify (or --update) the golden conformance snapshots"
    )
    golden_cmd.add_argument("--update", action="store_true",
                            help="re-record instead of verifying")
    golden_cmd.add_argument("--cell", action="append", default=None,
                            metavar="NAME",
                            help="limit to one cell (repeatable)")
    golden_cmd.add_argument("--store", default=None,
                            help="snapshot directory "
                                 "(default: tests/golden/snapshots)")
    golden_cmd.add_argument("--diff-artifact", default=None,
                            help="where to write the drift report "
                                 "(default: $REPRO_GOLDEN_DIFF_PATH or "
                                 "GOLDEN_DIFF.txt)")
    golden_cmd.set_defaults(handler=_cmd_golden)
    fuzz_cmd = sub.add_parser(
        "fuzz", help="run the deterministic reply fuzzer"
    )
    fuzz_cmd.add_argument("--cases", type=int, default=200)
    fuzz_cmd.add_argument("--seed", type=int, default=0)
    fuzz_cmd.set_defaults(handler=_cmd_fuzz)
    gen_cmd = sub.add_parser(
        "gen",
        help="stream rows from a factory schema (file or preset name) "
             "and print the content digest",
    )
    gen_cmd.add_argument("schema",
                         help="schema file path, or a preset name "
                              "(adult_replica, beer_replica, ocr_invoices, "
                              "orders)")
    gen_cmd.add_argument("--table", default=None,
                         help="table to stream (default: the task's table)")
    gen_cmd.add_argument("--rows", type=int, default=None,
                         help="row count (default: the table's declared "
                              "universe)")
    gen_cmd.add_argument("--seed", type=int, default=0)
    gen_cmd.add_argument("--group-size", type=int, default=4096,
                         help="rows held in memory at a time")
    gen_cmd.add_argument("--out", default=None, metavar="PATH",
                         help="write rows as JSON lines to PATH "
                              "(default: digest only, nothing written)")
    gen_cmd.set_defaults(handler=_cmd_gen)
    chaos_cmd = sub.add_parser(
        "chaos",
        help="crash the pipeline at every injection site and verify "
             "resume is bit-identical",
    )
    chaos_cmd.add_argument("--cell", action="append", default=None,
                           metavar="NAME",
                           help="limit to one matrix cell (repeatable)")
    chaos_cmd.add_argument("--site", action="append", default=None,
                           metavar="SITE",
                           help="limit to one crash site (repeatable): "
                                "mid_batch, pre_journal, mid_journal")
    chaos_cmd.add_argument("--workdir", default=".chaos",
                           help="where journals are written (default .chaos)")
    chaos_cmd.add_argument("--artifact", default=None,
                           help="where to write the drift report "
                                "(default: $REPRO_CHAOS_DIFF_PATH or "
                                "CHAOS_DIFF.txt)")
    chaos_cmd.set_defaults(handler=_cmd_chaos)
    flow_cmd = sub.add_parser(
        "flow",
        help="run, resume, or describe a declarative prep flow "
             "(a YAML stage DAG composing the four tasks)",
    )
    flow_cmd.add_argument("spec", nargs="?", default=None,
                          help="path to a flow spec YAML")
    flow_cmd.add_argument("--reference", action="store_true",
                          help="use the shipped reference flow "
                               "(detect → impute → align → match on Beer)")
    flow_cmd.add_argument("--describe", action="store_true",
                          help="print the parsed stage plan and exit")
    flow_cmd.add_argument("--workdir", default=None, metavar="DIR",
                          help="enable durability: flow ledger plus "
                               "per-stage journals under DIR")
    flow_cmd.add_argument("--resume", action="store_true",
                          help="continue an interrupted run from the "
                               "ledger in --workdir (must exist; refuses "
                               "a ledger from a different flow)")
    flow_cmd.add_argument("--manifest", default=None, metavar="OUT",
                          help="write the provenance manifest JSON here")
    flow_cmd.add_argument("--concurrency", type=int, default=1)
    flow_cmd.add_argument("--seed", type=int, default=0)
    flow_cmd.add_argument("--workers", type=int, default=1,
                          help="worker processes for independent stages "
                               "(default 1; >1 runs each stage with a "
                               "hermetic per-stage client)")
    flow_cmd.set_defaults(handler=_cmd_flow)
    args = parser.parse_args(argv)
    return args.handler(args) or 0


if __name__ == "__main__":
    sys.exit(main())
