"""The chaos harness: crash-site trials and the crash matrix.

Healthy cells crash a bare simulated model; degraded cells crash a run
that is throttling, hedging and failing over behind a failover pool, so
the degradation script, router health and AIMD state must all resume
mid-sentence.
"""

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import Preprocessor
from repro.datasets import load_dataset
from repro.llm.backend import CachingBackend, SimulatedBackend
from repro.llm.cache import CachingClient
from repro.llm.faults import DegradedClient
from repro.llm.simulated import SimulatedLLM
from repro.resilience import blackout_plan, brownout_plan, degraded_pool
from repro.runtime.chaos import (
    CRASH_SITES,
    ChaosCell,
    default_chaos_cells,
    run_crash_matrix,
    run_crash_trial,
)
from repro.runtime.journal import RunJournal

BROWNOUT = brownout_plan(seed=0)
BLACKOUT = blackout_plan(seed=0, start_s=5.0, duration_s=20.0)


@pytest.fixture(scope="module")
def cell():
    return ChaosCell("ed_adult_fast", dataset="adult", size=20)


def _degraded_cell(name, plan, **fields):
    return ChaosCell(
        name,
        degradation="ladder",
        backend=degraded_pool("gpt-3.5", 0, plan),
        **fields,
    )


class TestDefaultCells:
    def test_matrix_covers_all_four_tasks_at_both_concurrencies(self):
        cells = default_chaos_cells()
        assert len(cells) == 12
        assert len({cell.name for cell in cells}) == 12
        healthy = [cell for cell in cells if cell.degradation == "off"]
        assert len(healthy) == 8
        datasets = {cell.dataset for cell in healthy}
        assert datasets == {"adult", "restaurant", "synthea", "beer"}
        assert {cell.concurrency for cell in healthy} == {1, 2}
        assert {cell.backend for cell in healthy} == {SimulatedBackend()}

    def test_matrix_covers_both_scenarios_at_both_concurrencies(self):
        degraded = [
            cell for cell in default_chaos_cells()
            if cell.degradation == "ladder"
        ]
        assert len(degraded) == 4
        assert {cell.concurrency for cell in degraded} == {1, 2}
        primaries = {cell.backend.members[0].backend for cell in degraded}
        assert {primary.plan for primary in primaries} == {BROWNOUT, BLACKOUT}

    def test_sites_cover_batch_and_journal_crashes(self):
        assert CRASH_SITES == ("mid_batch", "pre_journal", "mid_journal")


class TestCrashTrials:
    @pytest.mark.parametrize("site", CRASH_SITES)
    def test_every_site_resumes_bit_identical(self, cell, site, tmp_path):
        trial = run_crash_trial(cell, site, tmp_path)
        assert trial.crashed, f"{site}: the injected crash never fired"
        assert trial.identical, trial.render()
        assert trial.ok

    def test_concurrent_cell_also_survives(self, tmp_path):
        concurrent = ChaosCell(
            "ed_adult_fast_c2", dataset="adult", size=20, concurrency=2
        )
        trial = run_crash_trial(concurrent, "mid_batch", tmp_path)
        assert trial.ok, trial.render()

    def test_ladder_cell_survives_with_quarantine(self, tmp_path):
        # vicuna's replies are rich in format violations, so the ladder
        # actually engages; the quarantine must replay too.
        ladder = ChaosCell(
            "ed_hospital_ladder", dataset="hospital", size=16,
            model="vicuna-13b", degradation="ladder",
        )
        trial = run_crash_trial(ladder, "pre_journal", tmp_path)
        assert trial.ok, trial.render()

    def test_brownout_survives_a_mid_batch_crash(self, tmp_path):
        brownout = _degraded_cell(
            "ed_adult_brownout_fast", BROWNOUT,
            dataset="adult", size=16, concurrency=2,
        )
        trial = run_crash_trial(brownout, "mid_batch", tmp_path)
        assert trial.crashed, "the injected crash never fired"
        assert trial.identical, trial.render()
        assert trial.ok

    def test_concurrent_blackout_survives_a_journal_crash(self, tmp_path):
        blackout = _degraded_cell(
            "ed_adult_blackout_fast_c2", BLACKOUT,
            dataset="adult", size=16, concurrency=2,
        )
        trial = run_crash_trial(blackout, "mid_journal", tmp_path)
        assert trial.ok, trial.render()

    @pytest.mark.parametrize("site", ["pre_journal", "mid_journal"])
    def test_one_batch_pool_run_crashes_at_its_only_batch(self, site, tmp_path):
        one_batch = _degraded_cell(
            "em_beer_brownout_one_batch", BROWNOUT, dataset="beer", size=2,
        )
        trial = run_crash_trial(one_batch, site, tmp_path)
        __, baseline_records = RunJournal.load(
            tmp_path / "em_beer_brownout_one_batch.baseline.journal"
        )
        assert len(baseline_records) == 1
        assert trial.crashed, "the injected crash never fired"
        assert trial.n_batches_journaled == 0
        assert trial.identical, trial.render()

    def test_unknown_site_is_rejected(self, cell, tmp_path):
        from repro.errors import LLMError

        with pytest.raises(LLMError):
            run_crash_trial(cell, "mid_universe", tmp_path)

    def test_failed_trial_renders_diff_paths(self, cell, tmp_path):
        trial = run_crash_trial(cell, "mid_batch", tmp_path)
        ok_text = trial.render()
        assert "OK" in ok_text


class TestCacheInTheStack:
    """A response cache must not hide the wrapped client's resume state or
    its simulated clock."""

    @pytest.mark.parametrize("site", CRASH_SITES)
    def test_cached_cell_resumes_bit_identical(self, site, tmp_path):
        cell = ChaosCell(
            "em_beer_cache", dataset="beer", size=24,
            backend=CachingBackend(SimulatedBackend()),
        )
        trial = run_crash_trial(cell, site, tmp_path)
        assert trial.ok, trial.render()

    def test_cache_forwards_the_clock_to_a_degraded_client(self):
        dataset = load_dataset("adult", size=60)
        config = PipelineConfig(degradation="ladder")

        def blackouts(wrap) -> int:
            degraded = DegradedClient(SimulatedLLM(), BLACKOUT)
            Preprocessor(wrap(degraded), config).run(dataset)
            return degraded.n_blackouts

        assert blackouts(lambda client: client) == 5
        assert blackouts(CachingClient) == 5


class TestMatrixDriver:
    def test_matrix_writes_no_artifact_when_clean(self, cell, tmp_path):
        artifact = tmp_path / "CHAOS_DIFF.txt"
        trials = run_crash_matrix(
            cells=(cell,), sites=("pre_journal",),
            workdir=tmp_path / "chaos", artifact=artifact,
        )
        assert len(trials) == 1
        assert trials[0].ok
        assert not artifact.exists()
