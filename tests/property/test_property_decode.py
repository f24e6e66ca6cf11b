"""Property tests for the decode path's counts and cached kernels.

Every cache on the decode path is sound only because what it caches is a
pure function of its key.  These properties state that directly: each
cached kernel equals its uncached computation, a request's carried token
count equals a full recount of its transcript, and line-by-line counting
adds up to counting the whole block.
"""

import dataclasses
import os
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PipelineConfig
from repro.core.prep import PrepArtifacts
from repro.core.prompts import PromptBuilder
from repro.data.instances import (
    DIInstance,
    EDInstance,
    EMInstance,
    SMInstance,
    Task,
)
from repro.data.records import AttributePair, Record, RecordPair
from repro.data.schema import Attribute, Schema
from repro.llm.base import ChatMessage, CompletionRequest
from repro.llm.knowledge import KnowledgeBase
from repro.llm.promptparse import parse_prompt
from repro.llm.solvers.ed import _nearest_distance
from repro.text.similarity import _jaro, jaro_winkler
from repro.text.tokenize import (
    count_lines,
    count_message_tokens,
    count_tokens,
)

words = st.text(alphabet=string.ascii_lowercase + "-'", min_size=0, max_size=10)
texts = st.text(min_size=0, max_size=80)
#: lines without line boundaries, so joining on "\n" round-trips
lines = st.text(
    alphabet=st.characters(
        blacklist_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
    ),
    max_size=40,
)
#: record values and free text around them: no quotes, brackets or breaks
values = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",),
        blacklist_characters='"[]\\\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029',
    ),
    max_size=30,
)
messages = st.lists(
    st.tuples(st.sampled_from(["system", "user", "assistant"]), texts),
    min_size=1,
    max_size=6,
)


class TestCachedKernels:
    @given(words, words)
    def test_jaro_equals_the_uncached_computation(self, a, b):
        expected = jaro_winkler.__wrapped__(a, b)
        assert jaro_winkler(a, b) == expected
        assert jaro_winkler(a, b) == expected  # warm

    @given(words, words)
    def test_jaro_winkler_equals_the_uncached_computation(self, a, b):
        jaro = _jaro(a, b)
        prefix = len(os.path.commonprefix([a[:4], b[:4]]))
        assert jaro_winkler(a, b) == jaro + prefix * 0.1 * (1.0 - jaro)

    @given(words, st.frozensets(words, max_size=8))
    def test_nearest_distance_equals_the_uncached_computation(self, value, domain):
        expected = _nearest_distance.__wrapped__(value, domain)
        assert _nearest_distance(value, domain) == expected
        assert _nearest_distance(value, domain) == expected  # warm

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from(
            ["workclass", "occupation", "country", "state", "sex", "city",
             "measurecode", "income", "not-an-attribute"]
        ),
        st.sampled_from(["gpt-3.5", "gpt-4", "vicuna-13b"]),
    )
    @settings(max_examples=60)
    def test_domain_of_is_computed_once_and_never_changes(
        self, coverage, attribute, model
    ):
        warm = KnowledgeBase(model, coverage=coverage, concept_coverage=0.5)
        first = warm.domain_of(attribute)
        again = warm.domain_of(attribute)
        fresh = KnowledgeBase(model, coverage=coverage, concept_coverage=0.5)
        assert first == again == fresh.domain_of(attribute)


class TestCarriedCounts:
    @given(messages)
    @settings(max_examples=80, deadline=None)
    def test_carried_count_equals_a_full_recount(self, pairs):
        request = CompletionRequest(
            messages=tuple(ChatMessage(role=r, content=c) for r, c in pairs),
            model="gpt-3.5",
        )
        assert request.prompt_tokens == count_message_tokens(request.transcript)

    @given(texts)
    def test_line_counts_add_up_to_the_block(self, text):
        assert sum(count_lines(text)) == count_tokens(text)

    @given(st.lists(lines, max_size=8))
    def test_count_tokens_is_additive_over_newline_joined_lines(self, parts):
        joined = "\n".join(parts)
        assert count_tokens(joined) == sum(count_tokens(p) for p in parts)

    @given(
        st.lists(st.tuples(st.integers(1, 10**7), values, values), min_size=1,
                 max_size=5),
        st.sampled_from([" ", "", "  "]),
    )
    @settings(max_examples=80, deadline=None)
    def test_question_counts_equal_counting_each_question(self, questions, gap):
        block = "\n".join(
            f'Question {number}:{gap}{lead} Record is [name: "{value}"]. '
            f'Is there an error in the "name" attribute?'
            for number, lead, value in questions
        )
        request = CompletionRequest(
            messages=(
                ChatMessage(role="system", content=(
                    "You are requested to detect whether there is an error "
                    'in the "name" attribute.'
                )),
                ChatMessage(role="user", content=block),
            ),
            model="gpt-3.5",
        )
        parsed = parse_prompt(request)
        assert len(parsed.questions) == len(questions)
        for question in parsed.questions:
            assert question.tokens == count_tokens(question.raw)


#: cell values that stress the token-safe splits: apostrophes at word
#: edges, quotes, the missing marker, non-ASCII text and line breaks
tricky_cells = st.one_of(
    st.none(),
    st.sampled_from([
        "", "???", "don't", "'", "o'", "'s", "it's 5", '"', 'say "hi"',
        "é'x", "naïve café", "a\nb", "x\r\ny", "p\u2028q", "r\x85s", "12'", "''",
    ]),
    st.text(max_size=12),
)
field_names = st.text(
    alphabet=string.ascii_lowercase + "'é ", min_size=1, max_size=6
).filter(str.strip)


@st.composite
def batches(draw):
    """A task and a batch of its instances, ED/DI sharing one target."""
    task = draw(st.sampled_from(list(Task)))
    names = draw(st.lists(field_names, min_size=1, max_size=4, unique=True))
    schema = Schema.from_names("t", names)
    target = draw(st.sampled_from(names))

    def record():
        return Record(schema, {name: draw(tricky_cells) for name in names})

    def attribute():
        return Attribute(draw(field_names), description=draw(st.text(max_size=10)))

    def instance():
        if task is Task.ERROR_DETECTION:
            return EDInstance(record(), target, label=draw(st.booleans()))
        if task is Task.DATA_IMPUTATION:
            return DIInstance(record().with_missing(target), target, "v")
        if task is Task.ENTITY_MATCHING:
            return EMInstance(RecordPair(record(), record()), draw(st.booleans()))
        return SMInstance(AttributePair(attribute(), attribute()), draw(st.booleans()))

    batch = [instance() for __ in range(draw(st.integers(1, 4)))]
    fewshot = [instance() for __ in range(draw(st.integers(0, 2)))]
    has_target = task in (Task.ERROR_DETECTION, Task.DATA_IMPUTATION)
    return task, (target if has_target else None), batch, fewshot


class TestBuilderCarriedCounts:
    @given(batches())
    @settings(max_examples=150, deadline=None)
    def test_carried_question_counts_equal_count_lines(self, drawn):
        task, target, batch, fewshot = drawn
        for artifacts in (None, PrepArtifacts(), PrepArtifacts(max_texts=1)):
            builder = PromptBuilder(
                task, PipelineConfig(), target_attribute=target,
                artifacts=artifacts,
            )
            prompt = builder.build(batch, fewshot_examples=fewshot or None)
            message = prompt.messages[-1]
            one_line_each = len(message.content.splitlines()) == len(batch)
            # carried unless a line break splits a question (the fallback)
            assert ("line_tokens" in vars(message)) == one_line_each
            assert message.line_tokens == count_lines(message.content)
            request = CompletionRequest(messages=prompt.messages, model="gpt-3.5")
            assert request.prompt_tokens == count_message_tokens(
                request.transcript
            )

    @given(batches(), st.text(max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_replace_recounts_the_new_content(self, drawn, extra):
        task, target, batch, __ = drawn
        prompt = PromptBuilder(
            task, PipelineConfig(), target_attribute=target
        ).build(batch)
        message = prompt.messages[-1]
        replaced = dataclasses.replace(message, content=message.content + extra)
        assert "line_tokens" not in vars(replaced)
        assert replaced.line_tokens == count_lines(replaced.content)
        assert replaced == ChatMessage(role="user", content=message.content + extra)
