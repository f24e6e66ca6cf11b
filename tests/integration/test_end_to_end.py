"""End-to-end integration: every task through the full stack."""

import pytest

from repro import PipelineConfig, Preprocessor, SimulatedLLM, load_dataset
from repro.core.executor import ExecutorConfig
from repro.eval import evaluate_pipeline
from repro.llm.cache import CachingClient
from repro.llm.ratelimit import RateLimit


class TestEveryTaskEndToEnd:
    @pytest.mark.parametrize(
        "name, minimum",
        [("restaurant", 0.85), ("adult", 0.7), ("synthea", 0.4),
         ("beer", 0.75)],
    )
    def test_gpt4_best_setting(self, name, minimum):
        dataset = load_dataset(name, size=100)
        run = evaluate_pipeline(
            SimulatedLLM("gpt-4"), PipelineConfig(model="gpt-4"), dataset
        )
        assert run.is_applicable
        assert run.score >= minimum

    def test_deterministic_runs(self, restaurant_dataset):
        config = PipelineConfig(model="gpt-3.5", seed=4)
        a = Preprocessor(SimulatedLLM("gpt-3.5", seed=4), config).run(
            restaurant_dataset
        )
        b = Preprocessor(SimulatedLLM("gpt-3.5", seed=4), config).run(
            restaurant_dataset
        )
        assert a.predictions == b.predictions
        assert a.usage == b.usage


class TestClientStack:
    def test_pipeline_through_cache_and_ratelimit(self, restaurant_dataset):
        """The full production stack: the executor's rate limit and
        retries in front of cache(simulated)."""
        client = CachingClient(SimulatedLLM("gpt-4"))
        config = PipelineConfig(model="gpt-4")
        executor_config = ExecutorConfig(rate_limit=RateLimit(10_000, 10**8))
        first = Preprocessor(client, config, executor_config).run(
            restaurant_dataset
        )
        second = Preprocessor(client, config, executor_config).run(
            restaurant_dataset
        )
        assert first.predictions == second.predictions
        assert client.hits > 0  # the second run was served from cache

    def test_cached_rerun_costs_no_time(self, restaurant_dataset):
        inner = CachingClient(SimulatedLLM("gpt-4"))
        config = PipelineConfig(model="gpt-4")
        Preprocessor(inner, config).run(restaurant_dataset)
        second = Preprocessor(inner, config).run(restaurant_dataset)
        assert second.estimated_seconds == 0.0


class TestFeatureSelectionEndToEnd:
    def test_beer_selection_improves_zero_shot(self):
        from repro.core.feature_selection import FeatureSelection
        from repro.datasets.beer import BEER_SELECTED_FEATURES

        dataset = load_dataset("beer")
        base = PipelineConfig(model="gpt-4", fewshot=0)
        selected = PipelineConfig(
            model="gpt-4", fewshot=0,
            feature_selection=FeatureSelection(keep=BEER_SELECTED_FEATURES),
        )
        run_base = evaluate_pipeline(SimulatedLLM("gpt-4"), base, dataset)
        run_sel = evaluate_pipeline(SimulatedLLM("gpt-4"), selected, dataset)
        assert run_sel.score > run_base.score
