"""Prompt assembly (paper Section 3, Figure 1).

Builds the chat transcript::

    system:    You are a database engineer.
               [zero-shot task specification]
               [DI type hint / ED target confirmation]
               [answer-format instruction]
    user:      Question 1..k        (few-shot questions)
    assistant: Answer 1..k          (few-shot answers, with reasons)
    user:      Question 1..b        (the batch to answer)

Few-shot turns are omitted when ``fewshot == 0``; the batch is a single
question when batch prompting is off.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from repro.core.config import PipelineConfig
from repro.core.contextualize import serialize_counted
from repro.core.fewshot import render_examples
from repro.core.prep import PrepArtifacts
from repro.core.tasks import (
    ED_CONFIRM_TARGET,
    ROLE_INSTRUCTION,
    answer_format_instruction,
    question_line,
    target_attribute_of,
    task_text,
)
from repro.data.instances import Instance, Task
from repro.errors import PromptError
from repro.llm.base import ChatMessage


@dataclass(frozen=True)
class BuiltPrompt:
    """A ready-to-send prompt plus what the parser needs to read the reply."""

    messages: tuple[ChatMessage, ...]
    expected_answers: int
    reasoning: bool


class PromptBuilder:
    """Assembles prompts for one (task, target attribute) combination.

    One builder serves a whole dataset run: the zero-shot components are
    fixed; only the batch block varies per call.  With ``artifacts`` the
    question block reuses the run's memoized instance serializations —
    context-window splits re-ask the same instances, which would otherwise
    re-serialize them per attempt.

    Each question line's token count is summed from parts already counted
    (:func:`~repro.core.tasks.question_line`, over the serialized
    instance's count kept in ``artifacts`` beside its text), and the
    question message carries the line counts
    (:meth:`ChatMessage.with_line_tokens`), so the block is never
    re-tokenized.  A block whose serialized text holds a line break leaves
    its lines to be counted as a whole.  The few-shot (user, assistant)
    turns of the last example list are kept rendered; every caller hands a
    builder one list, so they are rendered once.
    """

    def __init__(self, task: Task, config: PipelineConfig,
                 target_attribute: str | None = None,
                 artifacts: PrepArtifacts | None = None):
        self._task = task
        self._config = config
        self._target_attribute = target_attribute
        self._artifacts = artifacts
        self._system_text = self._build_system_text()
        self._system = ChatMessage(role="system", content=self._system_text)
        # the last (examples, user turn, assistant turn) rendered; holding
        # the examples pins their ids
        self._fewshot: tuple[
            tuple[Instance, ...], ChatMessage, ChatMessage
        ] | None = None

    def _build_system_text(self) -> str:
        text = task_text(self._task, self._target_attribute)
        lines = [ROLE_INSTRUCTION, text.instruction]
        if self._task is Task.ERROR_DETECTION and self._config.reasoning:
            # Section 3.1: stop the model flagging errors in *other* attributes.
            lines.append(ED_CONFIRM_TARGET)
        if self._task is Task.DATA_IMPUTATION and self._config.type_hint:
            lines.append(self._config.type_hint)
        lines.append(
            answer_format_instruction(
                self._task, self._config.reasoning, self._target_attribute
            )
        )
        return "\n".join(lines)

    @property
    def system_text(self) -> str:
        return self._system_text

    def _fewshot_turns(
        self, examples: list[Instance]
    ) -> tuple[ChatMessage, ChatMessage]:
        cached = self._fewshot
        if (
            cached is None
            or len(cached[0]) != len(examples)
            or not all(map(operator.is_, cached[0], examples))
        ):
            user_text, assistant_text = render_examples(
                examples, reasoning=self._config.reasoning
            )
            cached = self._fewshot = (
                tuple(examples),
                ChatMessage(role="user", content=user_text),
                ChatMessage(role="assistant", content=assistant_text),
            )
        return cached[1], cached[2]

    def build(
        self,
        batch: list[Instance],
        fewshot_examples: list[Instance] | None = None,
    ) -> BuiltPrompt:
        """Build the prompt for one batch of instances."""
        if not batch:
            raise PromptError("cannot build a prompt for an empty batch")
        for instance in batch:
            if instance.task is not self._task:
                raise PromptError(
                    f"instance task {instance.task} does not match builder "
                    f"task {self._task}"
                )
            if (
                self._target_attribute is not None
                and target_attribute_of(instance) != self._target_attribute
            ):
                raise PromptError(
                    f"instance targets {target_attribute_of(instance)!r} but "
                    f"builder targets {self._target_attribute!r}"
                )
        messages = [self._system]
        if fewshot_examples:
            messages.extend(self._fewshot_turns(fewshot_examples))
        counted_of = (
            self._artifacts.counted_of if self._artifacts else serialize_counted
        )
        lines: list[str] = []
        counts: list[int] = []
        for number, instance in enumerate(batch, start=1):
            line, tokens = question_line(instance, number, *counted_of(instance))
            lines.append(line)
            counts.append(tokens)
        questions = "\n".join(lines)
        if len(questions.splitlines()) == len(lines):
            messages.append(ChatMessage.with_line_tokens(
                "user", questions, tuple(counts)
            ))
        else:  # a line break inside a question: count the lines as they are
            messages.append(ChatMessage(role="user", content=questions))
        return BuiltPrompt(
            messages=tuple(messages),
            expected_answers=len(batch),
            reasoning=self._config.reasoning,
        )
