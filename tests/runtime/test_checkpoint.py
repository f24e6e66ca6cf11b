"""Checkpoint sessions and pipeline resume.

The contract under test: a journaled run that dies anywhere and resumes
produces a result — predictions, accounting, execution report, metrics,
spans, manifest — bit-identical to an uninterrupted run; and journaling
itself never changes a run's behavior.
"""

from types import SimpleNamespace

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import Preprocessor
from repro.datasets import load_dataset
from repro.errors import InjectedCrashError
from repro.eval.harness import evaluate_pipeline
from repro.llm.base import Usage
from repro.llm.cache import CachingClient
from repro.llm.faults import Fault, FaultInjectingClient
from repro.llm.simulated import SimulatedLLM
from repro.runtime.chaos import result_payload
from repro.runtime.checkpoint import CheckpointSession, JournalChaos, RunCheckpoint
from repro.runtime.journal import JournalError, ResumeMismatchError, RunJournal
from repro.testing.golden import diff_payloads


@pytest.fixture(scope="module")
def small_adult():
    return load_dataset("adult", size=24)


def _config(**overrides):
    settings = {"model": "gpt-3.5", "seed": 0, "observability": True}
    settings.update(overrides)
    return PipelineConfig(**settings)


def _client(seed=0):
    return SimulatedLLM("gpt-3.5", seed=seed)


def _append_batch(session, seq):
    """Journal one batch through ``session`` from minimal run state."""
    stats = SimpleNamespace(
        usage=Usage(prompt_tokens=10 * seq, completion_tokens=seq),
        n_requests=seq, n_retries=0, n_fallbacks=0,
        keep_raw=False, exchanges=[],
    )
    executor = SimpleNamespace(
        clock=SimpleNamespace(makespan=float(seq)),
        checkpoint_state=lambda: {},
    )
    return session.append_batch(
        seq=seq, key=f"batch-{seq}", predictions=[True], quarantine=[],
        watermark=session.mark(stats, None), stats=stats,
        executor=executor, client=object(), obs=None,
    )


class TestSessionLifecycle:
    def test_fresh_journal_gets_sealed_header(self, tmp_path):
        path = tmp_path / "run.journal"
        session = CheckpointSession.open(
            RunCheckpoint(path), {"model": "gpt-3.5"}
        )
        session.close()
        header, records = RunJournal.load(path)
        assert header.context == {"model": "gpt-3.5"}
        assert records == []

    def test_reopen_same_context_resumes(self, tmp_path):
        path = tmp_path / "run.journal"
        CheckpointSession.open(RunCheckpoint(path), {"k": 1}).close()
        session = CheckpointSession.open(RunCheckpoint(path), {"k": 1})
        assert session.records == []
        session.close()

    def test_fresh_session_keeps_no_record_it_appends(self, tmp_path):
        path = tmp_path / "run.journal"
        session = CheckpointSession.open(RunCheckpoint(path), {"k": 1})
        for seq in range(5):
            _append_batch(session, seq)
        assert session.records == []
        session.close()
        __, records = RunJournal.load(path)
        assert [r.seq for r in records] == [0, 1, 2, 3, 4]

    def test_resumed_session_keeps_only_the_replayed_prefix(self, tmp_path):
        path = tmp_path / "run.journal"
        session = CheckpointSession.open(RunCheckpoint(path), {"k": 1})
        for seq in range(3):
            _append_batch(session, seq)
        session.close()
        resumed = CheckpointSession.open(RunCheckpoint(path), {"k": 1})
        prefix = list(resumed.records)
        for seq in range(3, 6):
            _append_batch(resumed, seq)
        assert [r.seq for r in resumed.records] == [0, 1, 2]
        assert resumed.records == prefix
        resumed.close()
        __, records = RunJournal.load(path)
        assert [r.seq for r in records] == [0, 1, 2, 3, 4, 5]

    def test_mismatched_context_refused_with_diff(self, tmp_path):
        path = tmp_path / "run.journal"
        CheckpointSession.open(
            RunCheckpoint(path), {"model": "gpt-3.5", "seed": 0}
        ).close()
        with pytest.raises(ResumeMismatchError) as excinfo:
            CheckpointSession.open(
                RunCheckpoint(path), {"model": "gpt-4", "seed": 0}
            )
        assert any("$.model" in line for line in excinfo.value.diff)
        assert "gpt-4" in str(excinfo.value)

    def test_journal_chaos_rejects_unknown_site(self):
        with pytest.raises(ValueError):
            JournalChaos(site="mid_everything", at_seq=0)


class TestJournaledRunsAreTransparent:
    def test_journaling_does_not_change_the_result(self, small_adult, tmp_path):
        plain = evaluate_pipeline(
            _client(), _config(), small_adult, keep_raw=True
        )
        journaled = evaluate_pipeline(
            _client(), _config(), small_adult, keep_raw=True,
            checkpoint=RunCheckpoint(tmp_path / "run.journal"),
        )
        assert not diff_payloads(
            result_payload(plain), result_payload(journaled)
        )

    def test_journal_holds_one_record_per_batch(self, small_adult, tmp_path):
        path = tmp_path / "run.journal"
        run = evaluate_pipeline(
            _client(), _config(), small_adult,
            checkpoint=RunCheckpoint(path),
        )
        __, records = RunJournal.load(path)
        assert records, "a run over a non-empty dataset journals batches"
        assert [r.seq for r in records] == list(range(len(records)))
        journaled = [p for r in records for p in r.predictions]
        assert len(journaled) == run.n_instances

    def test_completed_journal_resumes_to_identical_result(
        self, small_adult, tmp_path
    ):
        path = tmp_path / "run.journal"
        first = evaluate_pipeline(
            _client(), _config(), small_adult, keep_raw=True,
            checkpoint=RunCheckpoint(path),
        )
        # Every batch is journaled: the "resume" replays the whole run
        # from disk without one completion call.
        replayed = evaluate_pipeline(
            _client(), _config(), small_adult, keep_raw=True,
            checkpoint=RunCheckpoint(path),
        )
        assert not diff_payloads(
            result_payload(first), result_payload(replayed)
        )


class TestCrashResume:
    def _crash_then_resume(self, dataset, tmp_path, chaos=None, crash_call=None):
        path = tmp_path / "run.journal"
        baseline = evaluate_pipeline(
            FaultInjectingClient(_client(), plan={}),
            _config(), dataset, keep_raw=True,
            checkpoint=RunCheckpoint(tmp_path / "baseline.journal"),
        )
        plan = {}
        if crash_call is not None:
            plan = {crash_call: Fault(kind="crash")}
        with pytest.raises(InjectedCrashError):
            evaluate_pipeline(
                FaultInjectingClient(_client(), plan=plan),
                _config(), dataset, keep_raw=True,
                checkpoint=RunCheckpoint(path, chaos=chaos),
            )
        resumed = evaluate_pipeline(
            FaultInjectingClient(_client(), plan={}),
            _config(), dataset, keep_raw=True,
            checkpoint=RunCheckpoint(path),
        )
        return baseline, resumed

    def test_mid_batch_crash_resumes_bit_identical(self, small_adult, tmp_path):
        baseline, resumed = self._crash_then_resume(
            small_adult, tmp_path, crash_call=3
        )
        diffs = diff_payloads(result_payload(baseline), result_payload(resumed))
        assert not diffs, "\n".join(d.render() for d in diffs)

    def test_pre_journal_crash_resumes_bit_identical(self, small_adult, tmp_path):
        baseline, resumed = self._crash_then_resume(
            small_adult, tmp_path, chaos=JournalChaos("pre_journal", at_seq=1)
        )
        diffs = diff_payloads(result_payload(baseline), result_payload(resumed))
        assert not diffs, "\n".join(d.render() for d in diffs)

    def test_mid_journal_crash_leaves_torn_tail_and_resumes(
        self, small_adult, tmp_path
    ):
        path = tmp_path / "run.journal"
        with pytest.raises(InjectedCrashError):
            evaluate_pipeline(
                _client(), _config(), small_adult, keep_raw=True,
                checkpoint=RunCheckpoint(
                    path, chaos=JournalChaos("mid_journal", at_seq=1)
                ),
            )
        # The torn half-line really is on disk.
        assert not path.read_bytes().endswith(b"\n")
        __, records, error = RunJournal.recover(path)
        assert error is not None
        assert [r.seq for r in records] == [0]
        baseline = evaluate_pipeline(
            _client(), _config(), small_adult, keep_raw=True,
        )
        resumed = evaluate_pipeline(
            _client(), _config(), small_adult, keep_raw=True,
            checkpoint=RunCheckpoint(path),
        )
        diffs = diff_payloads(result_payload(baseline), result_payload(resumed))
        assert not diffs, "\n".join(d.render() for d in diffs)

    def test_resume_skips_journaled_completion_calls(self, small_adult, tmp_path):
        path = tmp_path / "run.journal"
        crashed_client = FaultInjectingClient(
            _client(), plan={5: Fault(kind="crash")}
        )
        with pytest.raises(InjectedCrashError):
            evaluate_pipeline(
                crashed_client, _config(), small_adult,
                checkpoint=RunCheckpoint(path),
            )

        # n_calls is itself checkpointed state (it is restored on resume),
        # so count the calls this process actually serves separately.
        resuming_client = FaultInjectingClient(_client(), plan={})
        live_calls = 0
        inner_complete = resuming_client.complete

        def counting_complete(request):
            nonlocal live_calls
            live_calls += 1
            return inner_complete(request)

        resuming_client.complete = counting_complete
        run = evaluate_pipeline(
            resuming_client, _config(), small_adult,
            checkpoint=RunCheckpoint(path),
        )
        # The resumed client made only the remaining calls, yet the run
        # reports the full call count — and n_calls lands exactly on it.
        assert 0 < live_calls < run.n_requests
        assert resuming_client.n_calls == run.n_requests

    def test_resume_refuses_a_different_config(self, small_adult, tmp_path):
        path = tmp_path / "run.journal"
        evaluate_pipeline(
            _client(), _config(), small_adult,
            checkpoint=RunCheckpoint(path),
        )
        with pytest.raises(ResumeMismatchError) as excinfo:
            evaluate_pipeline(
                _client(), _config(seed=7), small_adult,
                checkpoint=RunCheckpoint(path),
            )
        assert any("seed" in line for line in excinfo.value.diff)

    @pytest.mark.parametrize("site", ["pre_journal", "mid_journal"])
    def test_resume_refuses_a_different_client_seed(self, tmp_path, site):
        dataset = load_dataset("adult", size=60)
        path = tmp_path / "run.journal"
        baseline = evaluate_pipeline(
            _client(seed=0), _config(), dataset, keep_raw=True,
        )
        with pytest.raises(InjectedCrashError):
            evaluate_pipeline(
                _client(seed=0), _config(), dataset, keep_raw=True,
                checkpoint=RunCheckpoint(
                    path, chaos=JournalChaos(site, at_seq=2)
                ),
            )
        # A refused resume leaves the file as the crash left it, torn
        # tail included.
        journaled = path.read_bytes()
        with pytest.raises(JournalError) as excinfo:
            evaluate_pipeline(
                _client(seed=1), _config(), dataset, keep_raw=True,
                checkpoint=RunCheckpoint(path),
            )
        message = str(excinfo.value)
        assert str(path) in message
        assert "seed 0" in message and "seed 1" in message
        assert path.read_bytes() == journaled
        resumed = evaluate_pipeline(
            _client(seed=0), _config(), dataset, keep_raw=True,
            checkpoint=RunCheckpoint(path),
        )
        diffs = diff_payloads(result_payload(baseline), result_payload(resumed))
        assert not diffs, "\n".join(d.render() for d in diffs)

    @pytest.mark.parametrize(
        "name, size", [("beer", 24), ("adult", 60), ("restaurant", 40)]
    )
    def test_resume_keeps_cache_traffic_from_before_the_crash(
        self, tmp_path, name, size
    ):
        dataset = load_dataset(name, size=size)
        path = tmp_path / "run.journal"

        def caching_client():
            return CachingClient(_client())

        baseline = evaluate_pipeline(
            caching_client(), _config(), dataset, keep_raw=True,
        )
        assert baseline.execution.n_cache_misses > 0
        try:
            evaluate_pipeline(
                caching_client(), _config(), dataset, keep_raw=True,
                checkpoint=RunCheckpoint(
                    path, chaos=JournalChaos("pre_journal", at_seq=2)
                ),
            )
        except InjectedCrashError:
            pass  # beer plans two batches: its journal completes
        resumed = evaluate_pipeline(
            caching_client(), _config(), dataset, keep_raw=True,
            checkpoint=RunCheckpoint(path),
        )
        diffs = diff_payloads(result_payload(baseline), result_payload(resumed))
        assert not diffs, "\n".join(d.render() for d in diffs)

    def test_resume_refuses_different_data(self, tmp_path):
        config = _config()
        path = tmp_path / "run.journal"
        evaluate_pipeline(
            _client(), config, load_dataset("adult", size=24),
            checkpoint=RunCheckpoint(path),
        )
        with pytest.raises(ResumeMismatchError):
            evaluate_pipeline(
                _client(), config, load_dataset("adult", size=30),
                checkpoint=RunCheckpoint(path),
            )

    def test_resume_without_observability_also_round_trips(
        self, small_adult, tmp_path
    ):
        config = _config(observability=False)
        path = tmp_path / "run.journal"
        client = FaultInjectingClient(_client(), plan={4: Fault(kind="crash")})
        preprocessor = Preprocessor(client, config)
        with pytest.raises(InjectedCrashError):
            preprocessor.run(small_adult, checkpoint=RunCheckpoint(path))
        baseline = Preprocessor(
            FaultInjectingClient(_client(), plan={}), config
        ).run(small_adult)
        resumed = Preprocessor(
            FaultInjectingClient(_client(), plan={}), config
        ).run(small_adult, checkpoint=RunCheckpoint(path))
        assert resumed.predictions == baseline.predictions
        assert resumed.usage == baseline.usage
        assert resumed.n_requests == baseline.n_requests
        assert resumed.estimated_seconds == baseline.estimated_seconds
