"""Chaos drills for sharded runs: kill one worker, resume, diff the merge.

Extends the single-process crash matrix (:mod:`repro.runtime.chaos`) to
the multi-process world.  The contract is the same property, one level
up: for every shard crash site — ``mid_batch`` (the worker's client dies
mid-completion-call), ``pre_journal`` / ``mid_journal`` (the worker's
journal machinery dies around an append) — re-running
:func:`~repro.shard.runner.run_sharded` against the same ``workdir`` must
produce a **merged payload bit-identical** to an uninterrupted run.
Surviving shards replay entirely from their own journals; the killed
shard resumes from its journaled prefix.

One subtlety the single-run harness also has: the journal header seals the
client *class*, so the crashed run and the resumed run must build the same
client stack.  :func:`run_shard_crash_trial` therefore wraps the given
backend in a no-op :class:`~repro.llm.backend.FaultBackend` for every run;
the crash run's target shard just stacks a second, armed injector inside
it (outer class unchanged → journal fingerprints match).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import InjectedCrashError, ShardError
from repro.llm.backend import Backend, FaultBackend
from repro.obs.manifest import diff_payloads
from repro.shard.runner import SHARD_CRASH_SITES, ShardChaos, run_sharded


@dataclass(frozen=True)
class ShardChaosTrial:
    """The outcome of one worker-kill → resume → merge-diff experiment."""

    site: str
    shard_id: int
    at: int
    crashed: bool
    identical: bool
    n_shards: int
    diffs: list[str] = field(default_factory=list)
    journal: str = ""

    @property
    def ok(self) -> bool:
        return self.crashed and self.identical

    def render(self) -> str:
        if self.ok:
            return (
                f"shard chaos @ {self.site} (shard {self.shard_id}, "
                f"at={self.at}): OK"
            )
        shown = "\n  ".join(self.diffs[:10])
        more = "" if len(self.diffs) <= 10 else (
            f"\n  … {len(self.diffs) - 10} more"
        )
        return (
            f"shard chaos @ {self.site} (shard {self.shard_id}): FAIL "
            f"(crashed={self.crashed}, {len(self.diffs)} divergent path(s))\n"
            f"  {shown}{more}\n"
            f"  journal: {self.journal}"
        )


def _target_shard(payloads: list[dict]) -> dict:
    """The busiest shard — the one with the most completion calls, so a
    mid-run kill leaves real journaled work on both sides."""
    return max(payloads, key=lambda p: (p["n_requests"], p["shard_id"]))


def run_shard_crash_trial(
    backend: Backend,
    config,
    dataset,
    site: str,
    workdir: str | Path,
    n_shards: int | None = None,
    workers: int = 2,
) -> ShardChaosTrial:
    """Crash the busiest worker at ``site``, resume, compare bit for bit."""
    from repro.runtime.journal import RunJournal

    if site not in SHARD_CRASH_SITES:
        raise ShardError(
            f"unknown shard crash site {site!r}; expected one of "
            f"{SHARD_CRASH_SITES}"
        )
    workdir = Path(workdir)
    # All three runs build FaultInjectingClient stacks (see module
    # docstring); the baseline and resume plans are empty, i.e. pass-through.
    base = FaultBackend(backend, {})

    # 1. Baseline: the uninterrupted sharded run every crash must reproduce.
    baseline = run_sharded(
        base, config, dataset,
        n_shards=n_shards, workers=workers,
        workdir=workdir / "baseline", keep_raw=True,
    )
    target = _target_shard(baseline.shard_payloads)
    shard_id = target["shard_id"]
    if site == "mid_batch":
        at = max(1, target["n_requests"] // 2)
    else:
        __, records = RunJournal.load(
            workdir / "baseline" / f"shard-{shard_id:04d}.journal"
        )
        at = len(records) // 2

    # 2. Crash that worker mid-run.
    crash_dir = workdir / "crash"
    crashed = False
    try:
        run_sharded(
            base, config, dataset,
            n_shards=n_shards, workers=workers,
            workdir=crash_dir, keep_raw=True,
            chaos=ShardChaos(shard_id=shard_id, site=site, at=at),
        )
    except InjectedCrashError:
        crashed = True

    # 3. Resume from whatever the crash left behind, then compare.
    resumed = run_sharded(
        base, config, dataset,
        n_shards=n_shards, workers=workers,
        workdir=crash_dir, keep_raw=True,
    )
    diffs = diff_payloads(baseline.payload(), resumed.payload())
    rendered = [diff.render() for diff in diffs]
    if not crashed:
        rendered.insert(0, "the injected worker kill never fired")
    return ShardChaosTrial(
        site=site,
        shard_id=shard_id,
        at=at,
        crashed=crashed,
        identical=not diffs,
        n_shards=baseline.plan.n_shards,
        diffs=rendered,
        journal=str(crash_dir / f"shard-{shard_id:04d}.journal"),
    )
