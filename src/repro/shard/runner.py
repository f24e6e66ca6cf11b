"""Sharded execution: true multi-process runs with a deterministic merge.

:func:`run_sharded` is the tentpole entry point.  The flow:

1. :func:`~repro.shard.plan.plan_shards` fixes the partition (a pure
   function of dataset digest + config — see that module);
2. each non-empty shard becomes a picklable :class:`ShardTask` — its
   sub-dataset, the :class:`~repro.llm.backend.Backend` to build a client
   from, the pipeline config, and (when ``workdir`` is set) its own
   write-ahead journal path;
3. :func:`run_shard` executes one task — in this process at ``workers=1``,
   in a **spawn**-context :class:`~concurrent.futures.ProcessPoolExecutor`
   otherwise — and returns a plain-data payload;
4. :func:`~repro.shard.merge.merge_shards` merges the payloads, keyed by
   shard id.

Why the result cannot depend on the worker count: every shard runs a
*hermetic* pipeline — a fresh client built from the backend, its own
executor clock, its own metrics registry — so nothing a shard computes can
observe when (or where) its siblings ran.  The pool hands the payloads
back in task order, and the merge reads them by shard id in plan order
anyway.  The bit-identity tests in ``tests/shard/test_runner.py`` pin
this at workers 1, 2, and 4.

Crash safety: an :class:`~repro.errors.InjectedCrashError` inside a worker
(a chaos drill's simulated process kill) is caught *in the worker* and
shipped back as a ``crashed`` sentinel payload — exceptions with custom
constructors do not survive pickling reliably, sentinels do.  The parent
lets every other shard finish (their journals complete), then re-raises.
Re-running :func:`run_sharded` with the same ``workdir`` resumes:
completed shards replay entirely from their journals, the crashed shard
resumes from its journaled prefix, and the merged payload is bit-identical
to an uninterrupted run (``tests/runtime/test_shard_chaos.py``).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.data.instances import PreprocessingDataset
from repro.errors import InjectedCrashError, ShardError
from repro.llm.backend import Backend
from repro.shard.merge import MergedRun, merge_shards
from repro.shard.plan import ShardPlan, ShardSpec, plan_shards

#: the crash sites a ShardChaos can target (superset of the single-run
#: sites: the same three points, but inside one chosen worker)
SHARD_CRASH_SITES: tuple[str, ...] = ("mid_batch", "pre_journal", "mid_journal")


@dataclass(frozen=True)
class ShardChaos:
    """A scripted kill inside one worker of a sharded run.

    ``site`` is ``mid_batch`` (the shard's client dies on completion call
    ``at``), or ``pre_journal``/``mid_journal`` (the shard's journal
    machinery dies around batch sequence ``at`` — requires ``workdir``).
    """

    shard_id: int
    site: str
    at: int

    def __post_init__(self) -> None:
        if self.site not in SHARD_CRASH_SITES:
            raise ShardError(
                f"unknown shard chaos site {self.site!r}; expected one of "
                f"{SHARD_CRASH_SITES}"
            )


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker needs, as a picklable value object."""

    shard_id: int
    indices: tuple[int, ...]
    backend: Backend
    config: object  # PipelineConfig; typed loosely to keep pickling lazy
    dataset: PreprocessingDataset
    keep_raw: bool = False
    journal_path: str | None = None
    journal_site: str | None = None
    journal_at: int | None = None
    #: optional ExecutorConfig override (carries resilience mode into the
    #: worker — frozen dataclass, pickles like everything else here)
    executor_config: object | None = None


def shard_dataset(
    dataset: PreprocessingDataset, spec: ShardSpec
) -> PreprocessingDataset:
    """The sub-dataset one shard runs: its instances, the *full* pool.

    Instances keep dataset order (``spec.indices`` is sorted by
    construction).  The few-shot pool is passed through whole, so every
    shard — at every shard count, including the single-shard plan —
    samples exactly the examples a single-process run samples.
    """
    return PreprocessingDataset(
        name=dataset.name,
        task=dataset.task,
        instances=[dataset.instances[index] for index in spec.indices],
        fewshot_pool=list(dataset.fewshot_pool),
        description=dataset.description,
    )


def shard_payload(task: ShardTask, result) -> dict:
    """One shard's :class:`~repro.core.pipeline.PipelineResult` as plain
    data — the unit the merge folds and the pool pickles home."""
    observation = result.observation
    return {
        "shard_id": task.shard_id,
        "indices": list(task.indices),
        "predictions": list(result.predictions),
        "quarantine": [asdict(q) for q in result.quarantine],
        "usage": {
            "prompt_tokens": result.usage.prompt_tokens,
            "completion_tokens": result.usage.completion_tokens,
        },
        "n_requests": result.n_requests,
        "n_format_retries": result.n_format_retries,
        "n_fallbacks": result.n_fallbacks,
        "estimated_seconds": result.estimated_seconds,
        "raw_replies": list(result.raw_replies),
        "exchanges": [ex.payload() for ex in result.exchanges],
        "metrics": (
            observation.metrics.snapshot() if observation is not None else None
        ),
        "spans": (
            [span.to_dict() for span in observation.tracer.spans]
            if observation is not None
            else None
        ),
    }


def run_shard(task: ShardTask) -> dict:
    """Execute one shard to a payload (module-level: spawn needs to
    import it by name).  Chaos crashes return a sentinel, not a raise —
    see the module docstring."""
    from repro.core.pipeline import Preprocessor
    from repro.runtime.checkpoint import JournalChaos, RunCheckpoint

    client = task.backend.build()
    preprocessor = Preprocessor(client, task.config, task.executor_config)
    checkpoint = None
    if task.journal_path is not None:
        chaos = None
        if task.journal_site is not None:
            chaos = JournalChaos(site=task.journal_site, at_seq=task.journal_at)
        checkpoint = RunCheckpoint(task.journal_path, chaos=chaos)
    try:
        result = preprocessor.run(
            task.dataset, keep_raw=task.keep_raw, checkpoint=checkpoint
        )
    except InjectedCrashError as crash:
        return {
            "shard_id": task.shard_id,
            "crashed": {"site": crash.site, "detail": crash.detail},
        }
    return shard_payload(task, result)


@dataclass
class ShardedRun:
    """What :func:`run_sharded` hands back."""

    plan: ShardPlan
    merged: MergedRun
    workers: int
    shard_payloads: list[dict]

    def payload(self) -> dict:
        return self.merged.payload()


def _build_tasks(
    plan: ShardPlan,
    backend: Backend,
    config,
    dataset: PreprocessingDataset,
    keep_raw: bool,
    workdir: str | Path | None,
    chaos: ShardChaos | None,
    executor_config=None,
) -> list[ShardTask]:
    from repro.llm.backend import FaultBackend
    from repro.llm.faults import Fault

    if chaos is not None and chaos.site != "mid_batch" and workdir is None:
        raise ShardError(
            f"shard chaos site {chaos.site!r} targets the journal; pass "
            f"workdir= so shards journal"
        )
    tasks = []
    for spec in plan.nonempty_shards:
        shard_backend = backend
        journal_site = None
        journal_at = None
        if chaos is not None and chaos.shard_id == spec.shard_id:
            if chaos.site == "mid_batch":
                crash = Fault(
                    kind="crash", message=f"shard chaos at call {chaos.at}"
                )
                if isinstance(backend, FaultBackend):
                    # Arm the existing injector rather than stacking a new
                    # one: the journal captures client state shaped by the
                    # stack, so the crashed run and its resume (which sees
                    # no chaos) must build identical stacks.
                    plan = {
                        key: (schedule[0] if isinstance(key, int) else schedule)
                        for key, schedule in backend.plan
                    }
                    plan[chaos.at] = crash
                    shard_backend = FaultBackend(backend.inner, plan)
                else:
                    shard_backend = FaultBackend(backend, {chaos.at: crash})
            else:
                journal_site = chaos.site
                journal_at = chaos.at
        journal_path = None
        if workdir is not None:
            journal_path = str(
                Path(workdir) / f"shard-{spec.shard_id:04d}.journal"
            )
        tasks.append(ShardTask(
            shard_id=spec.shard_id,
            indices=spec.indices,
            backend=shard_backend,
            config=config,
            dataset=shard_dataset(dataset, spec),
            keep_raw=keep_raw,
            journal_path=journal_path,
            journal_site=journal_site,
            journal_at=journal_at,
            executor_config=executor_config,
        ))
    return tasks


def run_sharded(
    backend: Backend,
    config,
    dataset: PreprocessingDataset,
    *,
    n_shards: int | None = None,
    workers: int = 1,
    workdir: str | Path | None = None,
    keep_raw: bool = False,
    chaos: ShardChaos | None = None,
    executor_config=None,
) -> ShardedRun:
    """Run ``dataset`` through the pipeline in shards (module docstring).

    ``workers=1`` executes the shards inline, in shard order — no
    subprocess anywhere, which keeps the default path debuggable and
    makes it the reference the pool path is diffed against.  ``workers>1``
    fans the same tasks out to a spawn-context process pool; results are
    collected per task, so scheduling cannot reorder the merge inputs.
    ``workdir`` turns on per-shard write-ahead journals
    (``shard-NNNN.journal``) and thereby crash-safe resume.
    """
    if not isinstance(backend, Backend):
        raise ShardError(
            f"run_sharded needs a Backend (picklable client factory), got "
            f"{type(backend).__name__}"
        )
    if workers < 1:
        raise ShardError(f"workers must be >= 1, got {workers}")
    if workdir is not None:
        Path(workdir).mkdir(parents=True, exist_ok=True)
    plan = plan_shards(dataset, config, n_shards)
    tasks = _build_tasks(
        plan, backend, config, dataset, keep_raw, workdir, chaos,
        executor_config,
    )
    workers = max(1, min(workers, len(tasks)))

    if workers == 1:
        payloads = [run_shard(task) for task in tasks]
    else:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=context
        ) as pool:
            payloads = list(pool.map(run_shard, tasks))

    # Every shard either produced a payload or a crash sentinel; surface
    # the (first) crash only after all results landed, so sibling shards'
    # journals are complete when the caller resumes.
    for payload in payloads:
        crashed = payload.get("crashed")
        if crashed is not None:
            raise InjectedCrashError(crashed["site"], crashed["detail"])

    merged = merge_shards(plan, payloads)
    return ShardedRun(
        plan=plan, merged=merged, workers=workers, shard_payloads=payloads
    )
