"""The run's prep memo is scoped by its batch plan.

``Preprocessor.run`` plans every unit before the first completion call,
so it knows every serialization it will look up.  Once a unit completes,
with its context-window splits and degradation-ladder re-asks, the
instances no later unit lists leave the memo
(:meth:`~repro.core.prep.PrepArtifacts.release`).  The cluster path's
embedding matrices, labels and fingerprints serve only the plan and
leave once it is drawn
(:meth:`~repro.core.prep.PrepArtifacts.release_vectors`).  Nothing
released is looked up again, so every count equals that of a run whose
releases do nothing.
"""

import dataclasses

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import Preprocessor
from repro.core.prep import PrepArtifacts
from repro.data.instances import PreprocessingDataset
from repro.errors import ContextWindowExceededError, InjectedCrashError
from repro.eval.harness import evaluate_pipeline
from repro.llm.accounting import meter_response, request_prompt_tokens
from repro.llm.base import CompletionRequest, CompletionResponse
from repro.llm.faults import Fault, FaultInjectingClient
from repro.llm.profiles import get_profile
from repro.llm.simulated import SimulatedLLM
from repro.runtime.chaos import result_payload
from repro.runtime.checkpoint import RunCheckpoint


class _TinyWindowClient:
    """Overflows the context window above a small prompt budget."""

    def __init__(self, budget=700):
        self._budget = budget
        self._inner = SimulatedLLM("gpt-3.5", seed=0)

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        if request_prompt_tokens(request) > self._budget:
            raise ContextWindowExceededError("gpt-3.5", 9999, self._budget)
        return self._inner.complete(request)


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
    settings = {"model": "gpt-3.5", "seed": 0, "observability": True}
    settings.update(overrides)
    return PipelineConfig(**settings)


def _twice_listed(dataset, n=12):
    """``dataset``'s first ``n`` instances listed twice, and its first
    instance five more times: one object in several units."""
    head = list(dataset.instances)[:n]
    return PreprocessingDataset(
        name=f"{dataset.name}-twice",
        task=dataset.task,
        instances=head + head + [head[0]] * 5,
        fewshot_pool=list(dataset.fewshot_pool),
    )


def _counts(result) -> dict:
    """Everything the memo could move: prep stats (less wall clock), the
    ``prep.*`` counters, and the run's answers and accounting."""
    stats = {
        name: value
        for name, value in dataclasses.asdict(result.prep).items()
        if not name.endswith("_wall_s")
    }
    counters = result.observation.metrics.snapshot()["counters"]
    return {
        "stats": stats,
        "prep": {k: v for k, v in counters.items() if k.startswith("prep.")},
        "counters": counters,
        "predictions": result.predictions,
        "usage": result.usage,
    }


def _keep_everything(patch) -> None:
    patch.setattr(PrepArtifacts, "release", lambda self, instances: None)
    patch.setattr(PrepArtifacts, "release_vectors", lambda self: None)


def _released_and_kept(monkeypatch, client_factory, config, dataset):
    released = Preprocessor(client_factory(), config).run(dataset)
    with monkeypatch.context() as patch:
        _keep_everything(patch)
        kept = Preprocessor(client_factory(), config).run(dataset)
    return _counts(released), _counts(kept)


def _simulated():
    return SimulatedLLM("gpt-3.5", seed=0)


class TestReleaseChangesNoCount:
    def test_random_batching(self, monkeypatch, adult_dataset):
        released, kept = _released_and_kept(
            monkeypatch, _simulated, _config(), adult_dataset
        )
        assert released == kept
        assert released["prep"]["prep.serialize.misses"] == len(adult_dataset)

    def test_cluster_batching(self, monkeypatch, amazon_google_dataset):
        released, kept = _released_and_kept(
            monkeypatch, _simulated, _config(batching="cluster"),
            amazon_google_dataset,
        )
        assert released == kept
        assert released["prep"]["prep.serialize.hits"] > 0
        assert released["stats"]["embed_misses"] == 1

    def test_context_window_splits(self, monkeypatch, adult_dataset):
        released, kept = _released_and_kept(
            monkeypatch, _TinyWindowClient, _config(), adult_dataset
        )
        assert released == kept
        assert released["counters"]["pipeline.batch_splits"] > 0
        assert released["prep"]["prep.serialize.hits"] > 0

    def test_degradation_ladder(self, monkeypatch, beer_dataset):
        released, kept = _released_and_kept(
            monkeypatch, _OddAnswersClient,
            _config(degradation="ladder", max_format_retries=0),
            beer_dataset,
        )
        assert released == kept
        assert released["counters"]["pipeline.batch_bisections"] > 0
        assert released["prep"]["prep.serialize.hits"] > 0

    @pytest.mark.parametrize("batching", ["random", "cluster"])
    def test_one_instance_object_in_several_units(
        self, monkeypatch, adult_dataset, batching
    ):
        dataset = _twice_listed(adult_dataset)
        config = _config(batching=batching, batch_size=2)
        released, kept = _released_and_kept(
            monkeypatch, _simulated, config, dataset
        )
        assert released == kept
        distinct = {id(instance) for instance in dataset.instances}
        assert released["stats"]["serialize_misses"] == len(distinct)

    def test_resumed_run(self, monkeypatch, adult_dataset, tmp_path):
        dataset = _twice_listed(adult_dataset)
        config = _config(batch_size=2)

        def crash_then_resume(name):
            path = tmp_path / f"{name}.journal"
            with pytest.raises(InjectedCrashError):
                evaluate_pipeline(
                    FaultInjectingClient(
                        _simulated(), plan={6: Fault(kind="crash")}
                    ),
                    config, dataset, keep_raw=True,
                    checkpoint=RunCheckpoint(path),
                )
            return evaluate_pipeline(
                FaultInjectingClient(_simulated(), plan={}),
                config, dataset, keep_raw=True,
                checkpoint=RunCheckpoint(path),
            )

        released = crash_then_resume("released")
        with monkeypatch.context() as patch:
            _keep_everything(patch)
            kept = crash_then_resume("kept")
        assert result_payload(released) == result_payload(kept)
        assert _counts(released.result) == _counts(kept.result)


class TestMemoScope:
    def test_random_mode_holds_at_most_the_running_unit(
        self, monkeypatch, adult_dataset
    ):
        config = _config(batch_size=4)
        held: list[int] = []
        original_counted_of = PrepArtifacts.counted_of
        original_release = PrepArtifacts.release

        def counted_of(self, instance):
            counted = original_counted_of(self, instance)
            held.append(len(self._texts))
            return counted

        def release(self, instances):
            original_release(self, instances)
            assert not self._texts  # nothing outlives its unit

        monkeypatch.setattr(PrepArtifacts, "counted_of", counted_of)
        monkeypatch.setattr(PrepArtifacts, "release", release)
        Preprocessor(_simulated(), config).run(adult_dataset)
        assert held and max(held) <= config.batch_size

    @pytest.mark.parametrize(
        "dataset_name", ["amazon_google_dataset", "adult_dataset"]
    )
    def test_no_vector_outlives_the_plan(
        self, monkeypatch, request, dataset_name
    ):
        dataset = request.getfixturevalue(dataset_name)
        memos: list[PrepArtifacts] = []
        held: list[int] = []
        original_release_vectors = PrepArtifacts.release_vectors
        original_run_batch = Preprocessor._run_batch

        def release_vectors(self):
            assert self._matrices and self._labels and self._fingerprints
            memos.append(self)
            original_release_vectors(self)

        def run_batch(self, *args, **kwargs):
            [prep] = memos
            held.append(
                len(prep._matrices) + len(prep._labels)
                + len(prep._fingerprints)
            )
            return original_run_batch(self, *args, **kwargs)

        monkeypatch.setattr(PrepArtifacts, "release_vectors", release_vectors)
        monkeypatch.setattr(Preprocessor, "_run_batch", run_batch)
        result = Preprocessor(
            _simulated(), _config(batching="cluster", batch_size=4)
        ).run(dataset)
        assert result.prep.embed_misses >= 1
        assert held and max(held) == 0
