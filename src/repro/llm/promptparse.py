"""Prompt parsing: the simulated LLM reading its input.

A real LLM reads the prompt text; so does the simulator.  This module
recovers the task, the target attribute, the reasoning contract, the
few-shot examples, and the batch questions from *nothing but the chat
transcript*.  If the framework's prompt wording drifts from what this
parser understands, tests fail loudly — which is exactly the contract a
prompt template has with a real model.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from repro.core.contextualize import parse_record_pair, parse_serialized_record
from repro.data.instances import Task
from repro.errors import LLMError
from repro.llm.base import ChatMessage, CompletionRequest
from repro.text.tokenize import count_tokens

_TARGET_RE = re.compile(r'the "([^"]+)" attribute')
_QUESTION_RE = re.compile(r"^\s*Question\s+(\d+)\s*:\s*(.*)$")
_ANSWER_RE = re.compile(r"^\s*Answer\s+(\d+)\s*:\s*(.*)$")
_QUESTION_ED_TARGET_RE = re.compile(r'error in the "([^"]+)" attribute')
_QUESTION_DI_TARGET_RE = re.compile(r"What is the ([\w\-. ]+?)\?")

_TASK_MARKERS: tuple[tuple[str, Task], ...] = (
    ("infer the value of", Task.DATA_IMPUTATION),
    ("detect whether there is an error", Task.ERROR_DETECTION),
    ("refer to the same attribute", Task.SCHEMA_MATCHING),
    ("refer to the same entity", Task.ENTITY_MATCHING),
)


@dataclass(frozen=True)
class ParsedQuestion:
    """One question of the batch, in structured form.

    ``fields`` holds the record for ED/DI; ``left``/``right`` hold the two
    sides for SM/EM.
    """

    number: int
    raw: str
    fields: dict[str, str | None] | None = None
    left: dict[str, str | None] | None = None
    right: dict[str, str | None] | None = None
    #: ED/DI: the attribute this particular question asks about (few-shot
    #: examples may target a different attribute than the batch does)
    target: str | None = None
    #: token count of ``raw``; set on the questions to answer (the model's
    #: format fidelity decays with question length), ``None`` on examples
    tokens: int | None = None


@dataclass(frozen=True)
class ParsedExample:
    """One few-shot demonstration: a question and its gold answer line."""

    question: ParsedQuestion
    answer: str


@dataclass
class ParsedPrompt:
    """Everything the solver needs, recovered from the transcript."""

    task: Task
    reasoning: bool
    target_attribute: str | None
    confirm_target: bool
    type_hint: str | None
    examples: list[ParsedExample] = field(default_factory=list)
    questions: list[ParsedQuestion] = field(default_factory=list)


@dataclass(frozen=True)
class _ParsedSystem:
    """The (immutable) facts recovered from one system-message block."""

    task: Task
    reasoning: bool
    confirm_target: bool
    target: str | None
    type_hint: str | None


#: entries a :class:`PromptParseMemo` keeps per cache; past it the oldest
#: entry goes, so a long-lived client stays bounded however many distinct
#: prompt templates it serves
MEMO_MAX_ENTRIES = 256


class PromptParseMemo:
    """A client's cache of the prompt blocks its requests share.

    Batched runs send hundreds of requests that share almost their entire
    transcript: the same system instruction and the same few-shot
    demonstration block, with only the final question block changing.
    The memo parses each distinct shared block **once** and replays the
    result, and keeps each solver's few-shot fit the same way.

    It caches only blocks that repeat across requests — system texts,
    few-shot (user, assistant) pairs and solver fits — never a request's
    final question block, which is unique to that request.  Each cache
    holds at most :data:`MEMO_MAX_ENTRIES` entries (oldest evicted first).

    Losslessness is structural: every cached function —
    :func:`_detect_task` and friends over the system text, the example
    parse of one (user, assistant) pair, a solver's fit over the example
    content — is a pure, RNG-free function of the cache key given the
    client's fixed profile and knowledge.  The memo-free reference
    decoder in :mod:`repro.testing.reference` is the oracle it is tested
    against.

    All cached values are frozen dataclasses (or tuples of them), shared
    safely across the :class:`ParsedPrompt` results, which keep their own
    mutable list containers.
    """

    def __init__(self) -> None:
        self._systems: dict[str, _ParsedSystem] = {}
        self._examples: dict[tuple, tuple[ParsedExample, ...]] = {}
        self._fits: dict[tuple, object] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        """Entries held, over all caches."""
        return len(self._systems) + len(self._examples) + len(self._fits)

    def _cached(self, cache: dict, key, compute):
        cached = cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        cached = compute()
        if len(cache) >= MEMO_MAX_ENTRIES:
            del cache[next(iter(cache))]
        cache[key] = cached
        return cached

    def system(self, system: str) -> _ParsedSystem:
        return self._cached(self._systems, system, lambda: _parse_system(system))

    def example_pair(
        self, user: str, assistant: str, task: Task
    ) -> tuple[ParsedExample, ...]:
        return self._cached(
            self._examples, (task, user, assistant),
            lambda: tuple(_examples_in(user, assistant, task)),
        )

    def fit(self, key: tuple, compute):
        """Memoize a solver's few-shot fit (thresholds, attribute weights).

        A batch's requests all carry the same few-shot block, and every
        solver re-derives its decision criteria from that block before
        answering — deterministically (no RNG touches the fit), from the
        example *content* plus the client's fixed profile and knowledge
        base.  The memo lives inside one client, so profile and knowledge
        are constant across its entries and ``key`` only needs to carry
        the solver tag and the example content.
        """
        return self._cached(self._fits, key, compute)


def parse_prompt(
    request: CompletionRequest, memo: PromptParseMemo | None = None
) -> ParsedPrompt:
    """Parse a framework-built chat transcript.

    Raises :class:`LLMError` for prompts the simulated model cannot make
    sense of (no task instruction, no questions) — the moral equivalent of
    a model answering garbage to a garbage prompt, made loud.

    Shared system and few-shot blocks come through ``memo`` (a client
    passes its own; without one a throwaway memo is used).  The questions
    to answer — the last user message — are parsed fresh, each carrying
    its token count from the message's line counts.
    """
    if memo is None:
        memo = PromptParseMemo()
    system_texts = [m.content for m in request.messages if m.role == "system"]
    if not system_texts:
        raise LLMError("prompt has no system message")
    parsed_system = memo.system("\n".join(system_texts))
    task = parsed_system.task
    messages = request.messages
    examples: list[ParsedExample] = []
    for i, message in enumerate(messages[:-1]):
        if message.role == "user" and messages[i + 1].role == "assistant":
            examples.extend(
                memo.example_pair(message.content, messages[i + 1].content, task)
            )
    questions: list[ParsedQuestion] = []
    for message in reversed(messages):
        if message.role == "user":
            questions = _counted_questions(message, task)
            break
    if not questions:
        raise LLMError("prompt contains no questions to answer")
    return ParsedPrompt(
        task=task,
        reasoning=parsed_system.reasoning,
        target_attribute=parsed_system.target,
        confirm_target=parsed_system.confirm_target,
        type_hint=parsed_system.type_hint,
        examples=examples,
        questions=questions,
    )


def _parse_system(system: str) -> _ParsedSystem:
    task = _detect_task(system)
    target = _detect_target(system, task)
    return _ParsedSystem(
        task=task,
        reasoning="in two lines" in system,
        confirm_target="confirm the target attribute" in system,
        target=target,
        type_hint=_detect_type_hint(system, target),
    )


def _detect_task(system: str) -> Task:
    for marker, task in _TASK_MARKERS:
        if marker in system:
            return task
    raise LLMError(f"cannot identify the task from: {system[:160]!r}")


def _detect_target(system: str, task: Task) -> str | None:
    if task not in (Task.ERROR_DETECTION, Task.DATA_IMPUTATION):
        return None
    match = _TARGET_RE.search(system)
    if match is None:
        raise LLMError("ED/DI prompt does not name a target attribute")
    return match.group(1)


def _detect_type_hint(system: str, target: str | None) -> str | None:
    if target is None:
        return None
    for line in system.splitlines():
        if line.startswith(f'The "{target}" attribute can be'):
            return line.strip()
    return None


def _parse_question_line(raw: str, number: int, task: Task,
                         tokens: int | None = None) -> ParsedQuestion:
    if task in (Task.ERROR_DETECTION, Task.DATA_IMPUTATION):
        pattern = (
            _QUESTION_ED_TARGET_RE
            if task is Task.ERROR_DETECTION
            else _QUESTION_DI_TARGET_RE
        )
        match = pattern.search(raw)
        return ParsedQuestion(
            number=number,
            raw=raw,
            fields=parse_serialized_record(raw),
            target=match.group(1).strip() if match else None,
            tokens=tokens,
        )
    left, right = parse_record_pair(raw)
    return ParsedQuestion(
        number=number, raw=raw, left=left, right=right, tokens=tokens
    )


def _questions_in(text: str, task: Task) -> list[ParsedQuestion]:
    questions = []
    for line in text.splitlines():
        match = _QUESTION_RE.match(line)
        if match:
            questions.append(
                _parse_question_line(
                    match.group(2), int(match.group(1)), task
                )
            )
    return questions


@lru_cache(maxsize=256)
def _prefix_tokens(prefix: str) -> int:
    # "Question 3: " and its like: a few distinct strings per run
    return count_tokens(prefix)


def _counted_questions(message: ChatMessage, task: Task) -> list[ParsedQuestion]:
    """The questions of ``message``, each with the token count of its text.

    A question's count is its line's count (:attr:`ChatMessage.line_tokens`,
    the pass that counted the request) minus its ``Question N:`` prefix:
    no token spans the colon that ends the prefix.  Raises
    :class:`LLMError` when the message carries a count for more or fewer
    lines than it has.
    """
    lines = message.content.splitlines()
    counts = message.line_tokens
    if len(counts) != len(lines):
        raise LLMError(
            f"{message.role} message carries {len(counts)} line token "
            f"counts for {len(lines)} lines: {message.content[:80]!r}"
        )
    questions = []
    for line, tokens in zip(lines, counts):
        match = _QUESTION_RE.match(line)
        if match:
            start = match.start(2)
            questions.append(
                _parse_question_line(
                    match.group(2), int(match.group(1)), task,
                    tokens=tokens - _prefix_tokens(line[:start]),
                )
            )
    return questions


def _answers_in(text: str) -> dict[int, str]:
    """Map answer number -> final answer line (two-line blocks collapse to
    their last line, matching the contract)."""
    answers: dict[int, str] = {}
    lines = text.splitlines()
    current: int | None = None
    buffer: list[str] = []
    for line in lines:
        match = _ANSWER_RE.match(line)
        if match:
            if current is not None and buffer:
                answers[current] = buffer[-1]
            current = int(match.group(1))
            buffer = [match.group(2).strip()] if match.group(2).strip() else []
        elif line.strip():
            buffer.append(line.strip())
    if current is not None and buffer:
        answers[current] = buffer[-1]
    return answers


def _examples_in(user: str, assistant: str, task: Task) -> list[ParsedExample]:
    """Pair a few-shot turn's questions with the answers that follow."""
    questions = {q.number: q for q in _questions_in(user, task)}
    answers = _answers_in(assistant)
    return [
        ParsedExample(question=question, answer=answers[number])
        for number, question in sorted(questions.items())
        if number in answers
    ]
