"""Chaos drills: kill a run at every interesting point, resume, compare.

The run-durability contract is a *property*: for every crash site —
mid-batch (the completion call dies), pre-journal (the process dies after
a batch completed but before its record was written), mid-journal-append
(the process dies halfway through the fsync'd write, leaving a torn tail
line) — resuming from the journal must produce a final result
**bit-identical** to an uninterrupted run: same predictions, same
quarantine, same token accounting, same virtual-clock makespan, same
metrics snapshot, same span trace, same manifest.

:func:`run_crash_trial` drives one (cell, site) experiment end to end:
baseline run → crashed run → resumed run → canonical-payload diff.  A
cell's ``backend`` is the client stack under the crash injector, so the
same trial drills a healthy model and a degraded failover pool alike.
:func:`run_crash_matrix` sweeps the default cell grid (all four tasks at
concurrency 1 and 2, plus brownout and blackout pools at concurrency 1
and 2) across every site — the CI chaos job — and writes a
``CHAOS_DIFF.txt`` artifact plus the offending journal when a trial
diverges.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.obs.manifest import canonical_json, diff_payloads
from repro.runtime.checkpoint import JournalChaos, RunCheckpoint

if TYPE_CHECKING:
    from repro.llm.backend import Backend

#: every point the chaos suite kills a run at
CRASH_SITES: tuple[str, ...] = ("mid_batch", "pre_journal", "mid_journal")

#: where the CI chaos job's drift report is written
CHAOS_DIFF_ENV = "REPRO_CHAOS_DIFF_PATH"


@dataclass(frozen=True)
class ChaosCell:
    """One (task, config, backend) point the crash matrix drills.

    ``backend`` builds the client stack under the crash injector; the
    default is ``SimulatedBackend(model, seed)``.  A
    :class:`~repro.resilience.pool.PoolBackend` also hands the executor
    its :class:`~repro.resilience.config.ResilienceConfig`.
    """

    name: str
    dataset: str
    size: int
    model: str = "gpt-3.5"
    seed: int = 0
    batching: str = "random"
    concurrency: int = 1
    degradation: str = "off"
    backend: Backend | None = None

    def __post_init__(self) -> None:
        if self.backend is None:
            from repro.llm.backend import SimulatedBackend

            object.__setattr__(
                self, "backend", SimulatedBackend(self.model, self.seed)
            )

    def config(self):
        from repro.core.config import PipelineConfig

        return PipelineConfig(
            model=self.model,
            seed=self.seed,
            batching=self.batching,
            concurrency=self.concurrency,
            observability=True,
            degradation=self.degradation,
        )


def default_chaos_cells() -> tuple[ChaosCell, ...]:
    """The CI matrix, sequential and concurrent: all four tasks on a
    healthy model, then Adult ED through a brownout and a blackout pool."""
    from repro.resilience.degradation import blackout_plan, brownout_plan
    from repro.resilience.pool import degraded_pool

    bases = (
        ("ed_adult", "adult", 24),
        ("di_restaurant", "restaurant", 18),
        ("sm_synthea", "synthea", 24),
        ("em_beer", "beer", 24),
    )
    healthy = tuple(
        ChaosCell(
            f"{name}_c{concurrency}",
            dataset=dataset,
            size=size,
            concurrency=concurrency,
        )
        for name, dataset, size in bases
        for concurrency in (1, 2)
    )
    plans = (
        ("brownout", brownout_plan(seed=0)),
        ("blackout", blackout_plan(seed=0, start_s=5.0, duration_s=20.0)),
    )
    degraded = tuple(
        ChaosCell(
            f"ed_adult_{scenario}_c{concurrency}",
            dataset="adult",
            size=24,
            concurrency=concurrency,
            degradation="ladder",
            backend=degraded_pool("gpt-3.5", 0, plan),
        )
        for scenario, plan in plans
        for concurrency in (1, 2)
    )
    return healthy + degraded


@dataclass(frozen=True)
class ChaosTrial:
    """The outcome of one crash→resume experiment."""

    cell: str
    site: str
    crashed: bool
    identical: bool
    n_batches_journaled: int
    diffs: list[str] = field(default_factory=list)
    journal: str = ""

    @property
    def ok(self) -> bool:
        return self.crashed and self.identical

    def render(self) -> str:
        if self.ok:
            return (
                f"chaos {self.cell} @ {self.site}: OK "
                f"({self.n_batches_journaled} batch(es) survived the crash)"
            )
        shown = "\n  ".join(self.diffs[:10])
        more = "" if len(self.diffs) <= 10 else f"\n  … {len(self.diffs) - 10} more"
        return (
            f"chaos {self.cell} @ {self.site}: FAIL "
            f"(crashed={self.crashed}, {len(self.diffs)} divergent path(s))\n"
            f"  {shown}{more}\n"
            f"  journal: {self.journal}"
        )


def result_payload(run) -> dict:
    """Everything a resumed run must reproduce, as canonical plain data.

    Covers predictions, quarantine, coverage, token/request accounting,
    the virtual-clock estimate, the kept raw replies, and the full run
    manifest (config, evaluation scores, metrics snapshot, execution
    report, span trace).  Deliberately excludes ``PipelineResult.prep`` —
    its wall-clock kernel timings differ between any two runs, crashed or
    not.
    """
    result = run.result
    payload = {
        "predictions": result.predictions,
        "quarantine": [asdict(q) for q in result.quarantine],
        "coverage": result.coverage,
        "usage": {
            "prompt_tokens": result.usage.prompt_tokens,
            "completion_tokens": result.usage.completion_tokens,
        },
        "n_requests": result.n_requests,
        "n_format_retries": result.n_format_retries,
        "n_fallbacks": result.n_fallbacks,
        "estimated_seconds": result.estimated_seconds,
        "raw_replies": result.raw_replies,
        "manifest": run.manifest.to_dict() if run.manifest is not None else None,
    }
    return json.loads(canonical_json(payload))


def run_crash_trial(cell: ChaosCell, site: str, workdir: str | Path) -> ChaosTrial:
    """Crash one cell at ``site``, resume it, and compare bit for bit."""
    # Imported lazily so the runtime package stays importable without the
    # dataset/LLM/eval stack (mirrors repro.testing.golden).
    from repro.core.executor import ExecutorConfig
    from repro.datasets import load_dataset
    from repro.errors import InjectedCrashError, LLMError
    from repro.eval.harness import evaluate_pipeline
    from repro.llm.backend import FaultBackend
    from repro.llm.faults import Fault
    from repro.resilience.pool import PoolBackend
    from repro.runtime.journal import RunJournal

    if site not in CRASH_SITES:
        raise LLMError(
            f"unknown crash site {site!r}; expected one of {CRASH_SITES}"
        )
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    dataset = load_dataset(cell.dataset, size=cell.size, seed=cell.seed)
    config = cell.config()
    executor_config = (
        ExecutorConfig(resilience=cell.backend.resilience)
        if isinstance(cell.backend, PoolBackend) else None
    )

    def fresh_client(plan=None):
        return FaultBackend(cell.backend, plan or {}).build()

    # 1. Baseline: the uninterrupted run every crash must reproduce.  It
    # journals too, which tells us how many batches the run has.
    baseline_journal = workdir / f"{cell.name}.baseline.journal"
    baseline_journal.unlink(missing_ok=True)
    baseline = evaluate_pipeline(
        fresh_client(), config, dataset, keep_raw=True,
        checkpoint=RunCheckpoint(baseline_journal),
        executor_config=executor_config,
    )
    __, baseline_records = RunJournal.load(baseline_journal)
    n_batches = len(baseline_records)
    n_calls = baseline.result.n_requests

    # 2. Crash roughly mid-run at the requested site.
    crash_journal = workdir / f"{cell.name}.{site}.journal"
    crash_journal.unlink(missing_ok=True)
    if site == "mid_batch":
        at_call = max(1, n_calls // 2)
        crash_client = fresh_client(
            {at_call: Fault(kind="crash", message=f"chaos at call {at_call}")}
        )
        checkpoint = RunCheckpoint(crash_journal)
    else:
        crash_client = fresh_client()
        checkpoint = RunCheckpoint(
            crash_journal,
            chaos=JournalChaos(site=site, at_seq=n_batches // 2),
        )
    crashed = False
    try:
        evaluate_pipeline(
            crash_client, config, dataset, keep_raw=True,
            checkpoint=checkpoint, executor_config=executor_config,
        )
    except InjectedCrashError:
        crashed = True

    __, crash_records, __ = RunJournal.recover(crash_journal)

    # 3. Resume from whatever the crash left on disk, then compare.
    resumed = evaluate_pipeline(
        fresh_client(), config, dataset, keep_raw=True,
        checkpoint=RunCheckpoint(crash_journal),
        executor_config=executor_config,
    )
    diffs = diff_payloads(result_payload(baseline), result_payload(resumed))
    rendered = [diff.render() for diff in diffs]
    if not crashed:
        rendered.insert(0, "the injected crash never fired")
    return ChaosTrial(
        cell=cell.name,
        site=site,
        crashed=crashed,
        identical=not diffs,
        n_batches_journaled=len(crash_records),
        diffs=rendered,
        journal=str(crash_journal),
    )


def run_crash_matrix(
    cells: tuple[ChaosCell, ...] | None = None,
    sites: tuple[str, ...] | None = None,
    workdir: str | Path = ".chaos",
    artifact: str | Path | None = None,
) -> list[ChaosTrial]:
    """The full crash-site sweep (the CI chaos job).

    Runs every (cell, site) pair and, on any failure, appends the drift
    report to the ``CHAOS_DIFF.txt`` artifact (path overridable via
    ``REPRO_CHAOS_DIFF_PATH``); the offending journal stays in
    ``workdir`` for upload.
    """
    from repro.testing.golden import write_diff_artifact

    trials: list[ChaosTrial] = []
    artifact_path = (
        artifact
        if artifact is not None
        else os.environ.get(CHAOS_DIFF_ENV, "CHAOS_DIFF.txt")
    )
    for cell in cells or default_chaos_cells():
        for site in sites or CRASH_SITES:
            trial = run_crash_trial(cell, site, workdir)
            trials.append(trial)
            if not trial.ok:
                write_diff_artifact(trial.render(), path=artifact_path)
    return trials
