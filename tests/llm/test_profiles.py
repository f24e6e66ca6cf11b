"""Tests for repro.llm.profiles."""

import pytest

from repro.data.instances import Task
from repro.errors import UnknownModelError
from repro.llm.profiles import _PROFILES, LatencyModel, ModelProfile, get_profile


class TestRegistry:
    def test_four_models(self):
        assert set(_PROFILES) == {"gpt-3.5", "gpt-4", "gpt-3", "vicuna-13b"}

    def test_unknown_model(self):
        with pytest.raises(UnknownModelError):
            get_profile("gpt-5")


class TestPaperSettings:
    def test_temperatures(self):
        # Section 4.1: 0.75 / 0.65 / 0.2
        assert get_profile("gpt-3.5").default_temperature == 0.75
        assert get_profile("gpt-4").default_temperature == 0.65
        assert get_profile("vicuna-13b").default_temperature == 0.2

    def test_gpt35_pricing_matches_table3(self):
        # 4.07M tokens -> $8.14 requires a flat $0.002/1K.
        profile = get_profile("gpt-3.5")
        assert profile.cost_usd(4_070_000, 0) == pytest.approx(8.14)

    def test_capability_ordering(self):
        gpt4 = get_profile("gpt-4")
        gpt35 = get_profile("gpt-3.5")
        vicuna = get_profile("vicuna-13b")
        assert gpt4.knowledge_coverage > gpt35.knowledge_coverage > vicuna.knowledge_coverage
        assert gpt4.decision_noise < gpt35.decision_noise < vicuna.decision_noise

    def test_vicuna_weak_format_fidelity_outside_em(self):
        vicuna = get_profile("vicuna-13b")
        assert vicuna.format_fidelity[Task.ERROR_DETECTION] < 0.5
        assert vicuna.format_fidelity[Task.ENTITY_MATCHING] > 0.5


class TestFidelityDecay:
    def test_long_questions_decay(self):
        vicuna = get_profile("vicuna-13b")
        short = vicuna.fidelity_for(Task.ENTITY_MATCHING, 30)
        long = vicuna.fidelity_for(Task.ENTITY_MATCHING, 400)
        assert long < short

    def test_within_tolerance_no_decay(self):
        gpt4 = get_profile("gpt-4")
        assert gpt4.fidelity_for(Task.ENTITY_MATCHING, 100) == pytest.approx(
            gpt4.format_fidelity[Task.ENTITY_MATCHING]
        )


class TestValidation:
    def test_bad_knob(self):
        with pytest.raises(ValueError):
            ModelProfile(
                name="x", context_window=10,
                price_prompt_per_1k=0, price_completion_per_1k=0,
                latency=LatencyModel(1, 0, 0),
                knowledge_coverage=1.5, concept_coverage=0.5,
                reasoning_strength=0.5, zero_shot_calibration=0.5,
                decision_noise=0.1, interference_rate=0.1,
            )

    def test_latency_model(self):
        latency = LatencyModel(base_s=1.0, per_prompt_token_s=0.001,
                               per_completion_token_s=0.01)
        assert latency.latency(1000, 100) == pytest.approx(3.0)
