"""Per-task prompt text: zero-shot instructions, questions, answer formats.

All canonical prompt strings live here so the prompt builder and the
simulated LLM's prompt parser agree on one vocabulary.  The wording follows
the paper's examples (Section 3.1-3.2) as closely as the text allows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.instances import (
    DIInstance,
    EDInstance,
    EMInstance,
    Instance,
    SMInstance,
    Task,
)
from repro.core.contextualize import serialize_instance
from repro.errors import PromptError
from repro.text.tokenize import count_part

#: the paper's role instruction, always the first line of the system prompt
ROLE_INSTRUCTION = "You are a database engineer."

#: ED's target-attribute confirmation (Section 3.1), active with reasoning
ED_CONFIRM_TARGET = (
    "Please confirm the target attribute in your reason for inference."
)


@dataclass(frozen=True)
class TaskText:
    """The task-dependent strings a prompt needs."""

    instruction: str       # zero-shot task specification (ZS-T)
    answer_noun: str       # what the answer line contains
    question_suffix: str   # trailing question after the instance text


#: detailed task guidance, appended to the one-line instruction.  Real
#: deployments spell out the criteria in the prompt; this block is also
#: what makes the instruction overhead realistic for the batch-prompting
#: cost analysis (Table 3's amortization).
_GUIDANCE = {
    Task.ERROR_DETECTION: (
        "Each record is given as a list of attribute-value pairs in the "
        "form [attribute: \"value\", ...]. An error can be a misspelled "
        "word or category, a value that belongs to a different attribute, "
        "a number that is impossible or implausible for the attribute, a "
        "malformed code or phone number, or a value that contradicts "
        "another attribute of the same record. A value that is merely "
        "rare, abbreviated, or unusually formatted is NOT an error if it "
        "is plausible for the attribute. Judge only the target attribute "
        "named above; other attributes are context and may themselves "
        "contain errors that you should ignore. Do not skip any question "
        "and do not merge answers of different questions."
    ),
    Task.DATA_IMPUTATION: (
        "Each record is given as a list of attribute-value pairs in the "
        "form [attribute: \"value\", ...], and the missing cell is marked "
        "with ???. Use every clue the other attributes provide, such as "
        "identifying codes, names, addresses, or phone numbers, and your "
        "own knowledge of the world to infer the missing value. Answer "
        "with the bare value only, without the attribute name, without "
        "quotation marks, and without any extra words. If several values "
        "seem possible, answer with the most likely one rather than "
        "refusing to answer. Do not skip any question and do not merge "
        "answers of different questions."
    ),
    Task.SCHEMA_MATCHING: (
        "Each attribute is given with its name and a natural-language "
        "description. Two attributes refer to the same attribute when "
        "they denote the same real-world concept, even if their names "
        "and descriptions use entirely different words; conversely, two "
        "attributes with very similar names can still denote different "
        "concepts. Base your decision on the meaning of the name and the "
        "description together. Do not skip any question and do not merge "
        "answers of different questions."
    ),
    Task.ENTITY_MATCHING: (
        "Each record is given as a list of attribute-value pairs in the "
        "form [attribute: \"value\", ...]. Two records refer to the same "
        "entity when they describe the same real-world object, even if "
        "the records format, abbreviate, truncate, or omit some values; "
        "conversely, records that look similar may still describe two "
        "different entities, for example two versions or models of the "
        "same product line. Missing values are not evidence either way. "
        "Do not skip any question and do not merge answers of different "
        "questions."
    ),
}


def task_text(task: Task, target_attribute: str | None = None) -> TaskText:
    """Canonical task strings; ED/DI require the target attribute name."""
    if task in (Task.ERROR_DETECTION, Task.DATA_IMPUTATION) and not target_attribute:
        raise PromptError(f"{task.short_name} prompts need a target attribute")
    guidance = _GUIDANCE[task]
    if task is Task.DATA_IMPUTATION:
        return TaskText(
            instruction=(
                f'You are requested to infer the value of the '
                f'"{target_attribute}" attribute based on the values of '
                f"other attributes.\n{guidance}"
            ),
            answer_noun=f'the value of the "{target_attribute}" attribute',
            question_suffix=f"What is the {target_attribute}?",
        )
    if task is Task.ERROR_DETECTION:
        return TaskText(
            instruction=(
                f'You are requested to detect whether there is an error in '
                f'the value of the "{target_attribute}" attribute of each '
                f"record.\n{guidance}"
            ),
            answer_noun='"yes" if there is an error or "no" otherwise',
            question_suffix=(
                f'Is there an error in the "{target_attribute}" attribute?'
            ),
        )
    if task is Task.SCHEMA_MATCHING:
        return TaskText(
            instruction=(
                "You are requested to decide whether two attributes, each "
                "given as (name, description), refer to the same attribute."
                f"\n{guidance}"
            ),
            answer_noun='"yes" if they refer to the same attribute or "no" otherwise',
            question_suffix="Are they the same attribute?",
        )
    if task is Task.ENTITY_MATCHING:
        return TaskText(
            instruction=(
                "You are requested to decide whether two records refer to "
                f"the same entity.\n{guidance}"
            ),
            answer_noun='"yes" if they refer to the same entity or "no" otherwise',
            question_suffix="Are they the same entity?",
        )
    raise PromptError(f"unknown task {task}")


def answer_format_instruction(
    task: Task, reasoning: bool, target_attribute: str | None = None
) -> str:
    """The MUST-answer-format instruction (two lines with reasoning, one
    without) — the paper's chain-of-thought answer contract."""
    text = task_text(task, target_attribute)
    if reasoning:
        return (
            "MUST answer each question in two lines. In the first line, "
            "you give the reason for the inference. In the second line, "
            f"you ONLY give {text.answer_noun}."
        )
    return (
        "MUST answer each question in one line. You ONLY give "
        f"{text.answer_noun}."
    )


def _question_frame(instance: Instance, number: int) -> tuple[str, str]:
    """The text before and after the serialized instance in question
    ``number``."""
    if isinstance(instance, (EDInstance, DIInstance)):
        head = f"Question {number}: Record is "
    elif isinstance(instance, (EMInstance, SMInstance)):
        head = f"Question {number}: "
    else:
        raise PromptError(f"unknown instance type {type(instance).__name__}")
    suffix = task_text(
        instance.task, getattr(instance, "target_attribute", None)
    ).question_suffix
    return head, f". {suffix}"


def question_text(instance: Instance, number: int) -> str:
    """One numbered question, e.g. ``Question 3: Record is [...]. What is
    the city?``"""
    head, tail = _question_frame(instance, number)
    return head + serialize_instance(instance) + tail


def question_line(
    instance: Instance, number: int, text: str, tokens: int
) -> tuple[str, int]:
    """:func:`question_text` over ``text``, the instance already serialized
    (``tokens`` is its token count), and the line's token count.

    The head before ``text`` ends in a space and the tail after it starts
    with ``.``, so the line's count is the sum of the three parts' counts
    (:func:`~repro.text.tokenize.count_part`); no part is tokenized again.
    """
    head, tail = _question_frame(instance, number)
    return head + text + tail, count_part(head) + tokens + count_part(tail)


def target_attribute_of(instance: Instance) -> str | None:
    """The ED/DI target attribute, or ``None`` for pair tasks."""
    return getattr(instance, "target_attribute", None)
