"""Few-shot prompting (paper Section 3.2).

Few-shot examples condition the LLM on the task's criteria — the error
definition, the means of imputation, the degree of matching.  The paper
renders them as a Users/Assistant conversation in which every answer
carries a plausible hand-written reason; here the reasons are produced by
task-specific templates playing the role of the human labeler.
"""

from __future__ import annotations

from repro.data.instances import (
    DIInstance,
    EDInstance,
    EMInstance,
    Instance,
    SMInstance,
)
from repro.core.tasks import question_text
from repro.errors import PromptError


def example_answer(instance: Instance) -> str:
    """The gold answer text for a few-shot example."""
    if isinstance(instance, DIInstance):
        return instance.true_value
    if isinstance(instance, (EDInstance, SMInstance, EMInstance)):
        return "yes" if instance.label else "no"
    raise PromptError(f"unknown instance type {type(instance).__name__}")


def example_reason(instance: Instance) -> str:
    """A plausible human-style reason for a few-shot example.

    These mirror what the paper's users write by hand (e.g. 'The phone
    number "770" suggests ... Marietta').  The templates reference the
    instance's actual content so the conversation reads naturally.
    """
    if isinstance(instance, DIInstance):
        evidence = [
            f'{name} "{value}"'
            for name, value in instance.record
            if value is not None and name != instance.target_attribute
        ][:2]
        clues = " and ".join(evidence) if evidence else "the other attributes"
        return (
            f"The {clues} suggest that the {instance.target_attribute} "
            f'should be "{instance.true_value}".'
        )
    if isinstance(instance, EDInstance):
        value = instance.record[instance.target_attribute]
        if instance.label:
            return (
                f'The target attribute is "{instance.target_attribute}". '
                f'Its value "{value}" does not look like a valid '
                f"{instance.target_attribute}."
            )
        return (
            f'The target attribute is "{instance.target_attribute}". '
            f'Its value "{value}" is a plausible {instance.target_attribute}.'
        )
    if isinstance(instance, SMInstance):
        left, right = instance.pair.left, instance.pair.right
        if instance.label:
            return (
                f'"{left.name}" and "{right.name}" both describe the same '
                f"underlying concept according to their descriptions."
            )
        return (
            f'"{left.name}" and "{right.name}" describe different concepts '
            f"according to their descriptions."
        )
    if isinstance(instance, EMInstance):
        key = instance.pair.left.schema.attribute_names[0]
        if instance.label:
            return (
                f"The records agree on the identifying fields such as "
                f'"{key}" despite formatting differences.'
            )
        return (
            f'The records disagree on identifying fields such as "{key}".'
        )
    raise PromptError(f"unknown instance type {type(instance).__name__}")


def render_examples(
    examples: list[Instance], reasoning: bool
) -> tuple[str, str]:
    """Render the few-shot block as (user_text, assistant_text).

    With reasoning, each answer takes the paper's two-line form::

        Answer 1: <reason>
        <answer>

    Without reasoning the answer is a single line ``Answer 1: <answer>``.
    """
    if not examples:
        raise PromptError("render_examples called with zero examples")
    questions: list[str] = []
    answers: list[str] = []
    for number, instance in enumerate(examples, start=1):
        questions.append(question_text(instance, number))
        answer = example_answer(instance)
        if reasoning:
            answers.append(f"Answer {number}: {example_reason(instance)}\n{answer}")
        else:
            answers.append(f"Answer {number}: {answer}")
    return "\n".join(questions), "\n".join(answers)
