"""Regression tests: cache hits are never double-metered.

A cache hit returns the stored response with ``latency_s`` zeroed, so the
pipeline's hours column must charge nothing for it — the token usage
stays visible (callers may want "tokens that would have been spent") but
wall-clock is what a metered deployment actually waits for, and a hit
waits for nothing.
"""

from repro import PipelineConfig, Preprocessor, SimulatedLLM
from repro.eval.harness import evaluate_pipeline
from repro.llm.cache import CachingClient


class TestEvaluationHoursExcludeCacheHits:
    def test_second_run_costs_zero_hours(self, beer_dataset):
        """A fully cached evaluation reports hours == 0, not a re-charge."""
        cache = CachingClient(SimulatedLLM("gpt-3.5"))
        config = PipelineConfig(model="gpt-3.5", concurrency=2)
        first = evaluate_pipeline(cache, config, beer_dataset)
        second = evaluate_pipeline(cache, config, beer_dataset)
        assert first.hours > 0
        assert second.hours == 0.0
        assert second.hours_sequential == 0.0
        assert second.score == first.score
        # The tokens column still reports what would have been spent.
        assert second.total_tokens == first.total_tokens

    def test_report_surfaces_hits_and_misses(self, beer_dataset):
        cache = CachingClient(SimulatedLLM("gpt-3.5"))
        config = PipelineConfig(model="gpt-3.5")
        preprocessor = Preprocessor(cache, config)
        first = preprocessor.run(beer_dataset)
        second = preprocessor.run(beer_dataset)
        # Run 1 misses on every fresh prompt (format retries re-send an
        # identical request, so they may already hit); run 2 replays the
        # same request sequence entirely from cache.
        assert first.execution.n_cache_misses > 0
        assert second.execution.n_cache_misses == 0
        assert second.execution.n_cache_hits == (
            first.execution.n_cache_hits + first.execution.n_cache_misses
        )
        assert second.execution.cache_hit_rate == 1.0

    def test_report_renders_cache_line(self, beer_dataset):
        from repro.eval.reporting import render_execution_report

        cache = CachingClient(SimulatedLLM("gpt-3.5"))
        preprocessor = Preprocessor(cache, PipelineConfig(model="gpt-3.5"))
        preprocessor.run(beer_dataset)
        result = preprocessor.run(beer_dataset)
        text = render_execution_report(result.execution)
        assert "cache:" in text
        assert "hit rate 100%" in text

    def test_no_cache_no_cache_line(self, beer_dataset):
        from repro.eval.reporting import render_execution_report

        preprocessor = Preprocessor(
            SimulatedLLM("gpt-3.5"), PipelineConfig(model="gpt-3.5")
        )
        result = preprocessor.run(beer_dataset)
        assert "cache:" not in render_execution_report(result.execution)
