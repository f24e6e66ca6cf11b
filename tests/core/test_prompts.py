"""Tests for repro.core.prompts."""

import pytest

from repro.core.config import PipelineConfig
from repro.core.prompts import PromptBuilder
from repro.data.instances import Task
from repro.errors import PromptError


class TestPromptBuilder:
    def test_system_message_structure(self, restaurant_dataset):
        builder = PromptBuilder(
            Task.DATA_IMPUTATION, PipelineConfig(), target_attribute="city"
        )
        assert builder.system_text.startswith("You are a database engineer.")
        assert '"city"' in builder.system_text
        assert "two lines" in builder.system_text

    def test_reasoning_off_changes_format(self):
        builder = PromptBuilder(
            Task.DATA_IMPUTATION, PipelineConfig(reasoning=False),
            target_attribute="city",
        )
        assert "one line" in builder.system_text

    def test_ed_confirm_target_only_with_reasoning(self):
        with_reasoning = PromptBuilder(
            Task.ERROR_DETECTION, PipelineConfig(reasoning=True),
            target_attribute="age",
        )
        without = PromptBuilder(
            Task.ERROR_DETECTION, PipelineConfig(reasoning=False),
            target_attribute="age",
        )
        assert "confirm the target attribute" in with_reasoning.system_text
        assert "confirm the target attribute" not in without.system_text

    def test_di_type_hint_included(self):
        hint = 'The "hoursperweek" attribute can be a range of integers.'
        builder = PromptBuilder(
            Task.DATA_IMPUTATION, PipelineConfig(type_hint=hint),
            target_attribute="hoursperweek",
        )
        assert hint in builder.system_text

    def test_fewshot_block_roles(self, restaurant_dataset):
        builder = PromptBuilder(
            Task.DATA_IMPUTATION, PipelineConfig(), target_attribute="city"
        )
        examples = restaurant_dataset.sample_fewshot(3)
        prompt = builder.build(
            list(restaurant_dataset.instances[:2]), fewshot_examples=examples
        )
        roles = [m.role for m in prompt.messages]
        assert roles == ["system", "user", "assistant", "user"]
        assert prompt.expected_answers == 2

    def test_fewshot_block_rendered_once_per_example_list(
        self, restaurant_dataset
    ):
        builder = PromptBuilder(
            Task.DATA_IMPUTATION, PipelineConfig(), target_attribute="city"
        )
        examples = restaurant_dataset.sample_fewshot(3)
        batch = list(restaurant_dataset.instances[:2])
        first = builder.build(batch, fewshot_examples=examples)
        again = builder.build(batch[1:], fewshot_examples=list(examples))
        assert first.messages[1] is again.messages[1]
        assert first.messages[2] is again.messages[2]
        fresh = PromptBuilder(
            Task.DATA_IMPUTATION, PipelineConfig(), target_attribute="city"
        ).build(batch, fewshot_examples=examples)
        assert fresh.messages == first.messages
        other = builder.build(batch, fewshot_examples=examples[:2])
        assert other.messages[1] != first.messages[1]
        back = builder.build(batch, fewshot_examples=examples)
        assert back.messages == first.messages

    def test_no_fewshot_three_messages(self, restaurant_dataset):
        builder = PromptBuilder(
            Task.DATA_IMPUTATION, PipelineConfig(), target_attribute="city"
        )
        prompt = builder.build(list(restaurant_dataset.instances[:1]))
        assert [m.role for m in prompt.messages] == ["system", "user"]

    def test_question_numbering_sequential(self, restaurant_dataset):
        builder = PromptBuilder(
            Task.DATA_IMPUTATION, PipelineConfig(), target_attribute="city"
        )
        prompt = builder.build(list(restaurant_dataset.instances[:3]))
        final = prompt.messages[-1].content
        assert "Question 1:" in final
        assert "Question 3:" in final

    def test_empty_batch_rejected(self):
        builder = PromptBuilder(
            Task.DATA_IMPUTATION, PipelineConfig(), target_attribute="city"
        )
        with pytest.raises(PromptError):
            builder.build([])

    def test_task_mismatch_rejected(self, restaurant_dataset, beer_dataset):
        builder = PromptBuilder(
            Task.DATA_IMPUTATION, PipelineConfig(), target_attribute="city"
        )
        with pytest.raises(PromptError):
            builder.build(list(beer_dataset.instances[:1]))

    def test_target_mismatch_rejected(self, restaurant_dataset, buy_dataset):
        builder = PromptBuilder(
            Task.DATA_IMPUTATION, PipelineConfig(), target_attribute="city"
        )
        with pytest.raises(PromptError):
            builder.build(list(buy_dataset.instances[:1]))
