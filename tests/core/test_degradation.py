"""The failure-degradation ladder and quarantine accounting.

``degradation="off"`` must reproduce the historical salvage-and-fallback
semantics exactly; ``"ladder"`` walks strict parse → re-ask → lenient
salvage → bisection → per-instance prompt → quarantine, so runs complete
with honest partial results instead of guessed answers.
"""

import pytest

from repro.core.config import PipelineConfig
from repro.core.executor import ExecutorConfig
from repro.core.pipeline import Preprocessor, QuarantinedInstance
from repro.errors import ConfigError
from repro.eval.harness import evaluate_pipeline
from repro.eval.metrics import score_answered
from repro.eval.reporting import format_score_with_coverage
from repro.data.instances import Task
from repro.llm.accounting import meter_response
from repro.llm.base import CompletionRequest, CompletionResponse
from repro.llm.faults import Fault, FaultInjectingClient
from repro.llm.profiles import get_profile
from repro.llm.simulated import SimulatedLLM
from tests.fixtures import fail_first


class _GarbageClient:
    """Never returns a parseable answer, no matter how often it is asked."""

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        return meter_response(
            get_profile(request.model), request, "I cannot help with that."
        )


class _OddAnswersClient:
    """Answers only odd-numbered questions; a singleton batch always works."""

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        count = request.messages[-1].content.count("Question ")
        blocks = [
            f"Answer {i}: yes" for i in range(1, count + 1) if i % 2 == 1
        ]
        return meter_response(
            get_profile(request.model), request, "\n".join(blocks)
        )


def _config(**overrides):
    settings = {"model": "gpt-3.5", "seed": 0}
    settings.update(overrides)
    return PipelineConfig(**settings)


class TestConfigKnob:
    def test_off_is_the_default(self):
        assert PipelineConfig().degradation == "off"

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(degradation="pray")


class TestOffModePreservesSeedSemantics:
    def test_off_mode_never_quarantines(self, restaurant_dataset):
        result = Preprocessor(_GarbageClient(), _config()).run(
            restaurant_dataset
        )
        assert result.quarantine == []
        assert result.coverage == 1.0
        # every instance got DI's safe fallback answer
        assert all(p == "" for p in result.predictions)
        assert result.n_fallbacks == len(restaurant_dataset.instances)

    def test_off_and_ladder_agree_when_nothing_fails(self, restaurant_dataset):
        off = Preprocessor(
            SimulatedLLM("gpt-3.5", seed=0), _config()
        ).run(restaurant_dataset)
        ladder = Preprocessor(
            SimulatedLLM("gpt-3.5", seed=0), _config(degradation="ladder")
        ).run(restaurant_dataset)
        assert off.predictions == ladder.predictions
        assert off.usage == ladder.usage
        assert ladder.quarantine == []


class TestLadder:
    # These use the ED dataset: binary answers reject free text, so a
    # garbage reply stays unparseable even per-instance.  (DI accepts a
    # bare string as the single-instance answer — the paper's leniency —
    # so DI garbage degrades to a wrong *answer*, not a quarantine.)
    def test_hopeless_replies_quarantine_every_instance(self, adult_dataset):
        result = Preprocessor(
            _GarbageClient(), _config(degradation="ladder")
        ).run(adult_dataset)
        n = len(adult_dataset.instances)
        assert len(result.quarantine) == n
        assert result.coverage == 0.0
        assert all(p is None for p in result.predictions)
        assert {q.reason for q in result.quarantine} == {"malformed_reply"}
        # quarantine is sorted by instance index and aligned to None slots
        indices = [q.index for q in result.quarantine]
        assert indices == sorted(indices) == list(range(n))
        # honest accounting: quarantined instances are not "fallbacks"
        assert result.n_fallbacks == 0

    def test_bisection_recovers_partially_answered_batches(
        self, restaurant_dataset
    ):
        # Odd-numbered answers parse leniently; the even remainder is
        # bisected down to per-instance prompts, which always succeed —
        # so the ladder answers everything without a single guess.
        result = Preprocessor(
            _OddAnswersClient(), _config(degradation="ladder")
        ).run(restaurant_dataset)
        assert result.quarantine == []
        assert result.coverage == 1.0
        assert result.n_fallbacks == 0
        assert all(p is not None for p in result.predictions)

    def test_off_mode_guesses_where_ladder_recovers(self, restaurant_dataset):
        off = Preprocessor(_OddAnswersClient(), _config()).run(
            restaurant_dataset
        )
        assert off.n_fallbacks > 0  # the historical guessed answers

    def test_retry_exhaustion_quarantines_single_instances(
        self, restaurant_dataset
    ):
        # Every call fails transiently and the retry budget is tiny: the
        # batch splits down to single instances, which then quarantine
        # with the typed retry_exhausted reason instead of guessing.
        client = FaultInjectingClient(
            SimulatedLLM("gpt-3.5", seed=0),
            fail_first(10_000, Fault("transient")),
        )
        result = Preprocessor(
            client,
            _config(degradation="ladder"),
            executor_config=ExecutorConfig(
                max_attempts=2, breaker_threshold=0
            ),
        ).run(restaurant_dataset)
        assert len(result.quarantine) == len(restaurant_dataset.instances)
        assert {q.reason for q in result.quarantine} == {"retry_exhausted"}

    def test_quarantine_entries_are_typed(self, adult_dataset):
        result = Preprocessor(
            _GarbageClient(), _config(degradation="ladder")
        ).run(adult_dataset)
        entry = result.quarantine[0]
        assert isinstance(entry, QuarantinedInstance)
        assert entry.detail


class TestCoverageScoring:
    def test_score_answered_excludes_quarantined(self):
        score, n = score_answered(
            Task.ENTITY_MATCHING,
            [True, None, False, True],
            [True, True, False, False],
        )
        assert n == 3
        # over the answered three: tp=1, fp=1, fn=0, tn=1 -> F1 = 2/3
        assert score == pytest.approx(2 / 3)

    def test_score_answered_with_nothing_answered(self):
        score, n = score_answered(
            Task.DATA_IMPUTATION, [None, None], ["a", "b"]
        )
        assert score is None
        assert n == 0

    def test_full_coverage_matches_score_predictions(self):
        from repro.eval.metrics import score_predictions

        predictions = [True, False, True]
        labels = [True, True, True]
        full, n = score_answered(Task.ERROR_DETECTION, predictions, labels)
        assert n == 3
        assert full == score_predictions(
            Task.ERROR_DETECTION, predictions, labels
        )

    def test_evaluation_run_reports_coverage(self, adult_dataset):
        run = evaluate_pipeline(
            _GarbageClient(),
            _config(degradation="ladder", observability=True),
            adult_dataset,
        )
        assert run.coverage == 0.0
        assert run.n_quarantined == run.n_instances
        assert run.score is None
        assert run.manifest.evaluation["coverage"] == 0.0
        assert run.manifest.evaluation["n_quarantined"] == run.n_instances

    def test_reporting_shows_coverage_next_to_score(self):
        assert format_score_with_coverage(0.875, 1.0) == "87.5"
        assert (
            format_score_with_coverage(0.875, 0.95)
            == "87.5 @ 95.0% coverage"
        )
        assert format_score_with_coverage(None, 0.0) == "N/A @ 0.0% coverage"
