"""Tests for repro.llm.promptparse: the simulated model reading prompts.

Built prompts come from the real PromptBuilder, so these tests pin the
contract between the framework's template and the simulator's parser.
"""

import pytest

from repro.core.config import PipelineConfig
from repro.core.prompts import PromptBuilder
from repro.data.instances import Task
from repro.errors import LLMError
from repro.llm.base import ChatMessage, CompletionRequest
from repro.llm.promptparse import parse_prompt


def _request(prompt):
    return CompletionRequest(messages=prompt.messages, model="gpt-3.5")


class TestTaskDetection:
    def test_di(self, restaurant_dataset):
        builder = PromptBuilder(Task.DATA_IMPUTATION, PipelineConfig(),
                                target_attribute="city")
        prompt = builder.build(list(restaurant_dataset.instances[:2]))
        parsed = parse_prompt(_request(prompt))
        assert parsed.task is Task.DATA_IMPUTATION
        assert parsed.target_attribute == "city"
        assert parsed.reasoning

    def test_ed_confirm_flag(self, adult_dataset):
        instances = [i for i in adult_dataset.instances
                     if i.target_attribute == "age"][:2] or \
                    list(adult_dataset.instances[:1])
        target = instances[0].target_attribute
        builder = PromptBuilder(Task.ERROR_DETECTION, PipelineConfig(),
                                target_attribute=target)
        parsed = parse_prompt(_request(builder.build(instances)))
        assert parsed.task is Task.ERROR_DETECTION
        assert parsed.confirm_target

    def test_em_and_sm(self, beer_dataset, synthea_dataset):
        em = PromptBuilder(Task.ENTITY_MATCHING, PipelineConfig())
        sm = PromptBuilder(Task.SCHEMA_MATCHING, PipelineConfig())
        assert parse_prompt(
            _request(em.build(list(beer_dataset.instances[:1])))
        ).task is Task.ENTITY_MATCHING
        assert parse_prompt(
            _request(sm.build(list(synthea_dataset.instances[:1])))
        ).task is Task.SCHEMA_MATCHING

    def test_reasoning_off_detected(self, restaurant_dataset):
        builder = PromptBuilder(Task.DATA_IMPUTATION,
                                PipelineConfig(reasoning=False),
                                target_attribute="city")
        parsed = parse_prompt(
            _request(builder.build(list(restaurant_dataset.instances[:1])))
        )
        assert not parsed.reasoning


class TestQuestions:
    def test_all_questions_parsed_with_fields(self, restaurant_dataset):
        builder = PromptBuilder(Task.DATA_IMPUTATION, PipelineConfig(),
                                target_attribute="city")
        prompt = builder.build(list(restaurant_dataset.instances[:5]))
        parsed = parse_prompt(_request(prompt))
        assert len(parsed.questions) == 5
        for number, question in enumerate(parsed.questions, start=1):
            assert question.number == number
            assert question.fields is not None
            assert question.fields["city"] is None  # the ??? cell
            assert question.target == "city"

    def test_em_pairs_parsed(self, beer_dataset):
        builder = PromptBuilder(Task.ENTITY_MATCHING, PipelineConfig())
        prompt = builder.build(list(beer_dataset.instances[:3]))
        parsed = parse_prompt(_request(prompt))
        for question in parsed.questions:
            assert question.left is not None
            assert question.right is not None
            assert "beer_name" in question.left


class TestExamples:
    def test_fewshot_examples_recovered(self, restaurant_dataset):
        builder = PromptBuilder(Task.DATA_IMPUTATION, PipelineConfig(),
                                target_attribute="city")
        examples = restaurant_dataset.sample_fewshot(4)
        prompt = builder.build(list(restaurant_dataset.instances[:2]),
                               fewshot_examples=examples)
        parsed = parse_prompt(_request(prompt))
        assert len(parsed.examples) == 4
        for example, instance in zip(parsed.examples, examples):
            # The parsed answer is the example's gold answer line.
            assert example.answer == instance.true_value

    def test_binary_examples_answers(self, beer_dataset):
        builder = PromptBuilder(Task.ENTITY_MATCHING, PipelineConfig())
        examples = beer_dataset.sample_fewshot(4)
        prompt = builder.build(list(beer_dataset.instances[:2]),
                               fewshot_examples=examples)
        parsed = parse_prompt(_request(prompt))
        answers = [e.answer for e in parsed.examples]
        expected = ["yes" if e.label else "no" for e in examples]
        assert answers == expected


class TestMalformedPrompts:
    def test_no_system(self):
        request = CompletionRequest(
            messages=(ChatMessage(role="user", content="hi"),), model="m"
        )
        with pytest.raises(LLMError):
            parse_prompt(request)

    def test_unknown_task(self):
        request = CompletionRequest(
            messages=(ChatMessage(role="system", content="Do something."),
                      ChatMessage(role="user", content="Question 1: what?")),
            model="m",
        )
        with pytest.raises(LLMError):
            parse_prompt(request)

    def test_no_questions(self):
        request = CompletionRequest(
            messages=(
                ChatMessage(
                    role="system",
                    content="You are requested to decide whether two records "
                            "refer to the same entity.",
                ),
                ChatMessage(role="user", content="no questions here"),
            ),
            model="m",
        )
        with pytest.raises(LLMError):
            parse_prompt(request)


class TestCarriedLineCounts:
    def test_builder_questions_carry_their_line_counts(self, adult_dataset):
        instances = adult_dataset.instances[:4]
        target = instances[0].target_attribute
        batch = [i for i in adult_dataset.instances if i.target_attribute == target][:4]
        prompt = PromptBuilder(
            Task.ERROR_DETECTION, PipelineConfig(), target_attribute=target
        ).build(batch)
        message = prompt.messages[-1]
        assert "line_tokens" in vars(message)  # carried, not recounted
        parsed = parse_prompt(_request(prompt))
        assert len(parsed.questions) == len(batch)

    def test_counts_one_short_raise_naming_the_message(self, adult_dataset):
        target = adult_dataset.instances[0].target_attribute
        batch = [i for i in adult_dataset.instances if i.target_attribute == target][:3]
        prompt = PromptBuilder(
            Task.ERROR_DETECTION, PipelineConfig(), target_attribute=target
        ).build(batch)
        *shared, questions = prompt.messages
        short = ChatMessage.with_line_tokens(
            "user", questions.content, questions.line_tokens[:-1]
        )
        request = CompletionRequest(messages=(*shared, short), model="gpt-3.5")
        with pytest.raises(LLMError, match=r"user message carries 2 line token "
                                           r"counts for 3 lines: 'Question 1"):
            parse_prompt(request)
