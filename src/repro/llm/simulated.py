"""The simulated chat-completion engine.

``SimulatedLLM.complete`` is a drop-in for a commercial chat API call:

1. meter the prompt and enforce the model's context window;
2. *read* the prompt — recover task, contract, examples, questions from
   the text alone (:mod:`repro.llm.promptparse`);
3. dispatch the per-task solver with the profile's competence knobs;
4. possibly violate the answer format (per-answer fidelity — weak models
   ramble instead of following the contract, which is how the paper's
   "N/A" cells arise);
5. render the reply text and meter the completion.

Determinism: every request's randomness is seeded from the model name,
client seed, temperature, and the full prompt text — identical requests
get identical replies across processes (like caching a real API's output),
while retries with a changed prompt resample.
"""

from __future__ import annotations

import hashlib
import random

from repro.data.instances import Task
from repro.errors import ContextWindowExceededError, LLMError
from repro.llm.accounting import meter_response
from repro.llm.base import CompletionRequest, CompletionResponse
from repro.llm.knowledge import KnowledgeBase
from repro.llm.profiles import ModelProfile, get_profile
from repro.llm.promptparse import ParsedPrompt, PromptParseMemo, parse_prompt
from repro.llm.solvers import DISolver, EDSolver, EMSolver, SMSolver, SolvedAnswer

_RAMBLE_TEMPLATES = (
    "I think this one is tricky and it could go either way honestly",
    "As an AI language model I would need more context to be certain",
    "Let me think about the record again, there are several fields here",
    "Possibly, but the attributes are ambiguous in my opinion",
)


class SimulatedLLM:
    """An offline stand-in for a chat-completion API.

    Parameters
    ----------
    model:
        Profile name (``gpt-3.5``, ``gpt-4``, ``gpt-3``, ``vicuna-13b``)
        or a :class:`ModelProfile` for custom models.
    seed:
        Client-level seed mixed into every request's determinism hash.

    Requests in a batch share their system/few-shot prefix, so the client
    keeps a bounded :class:`~repro.llm.promptparse.PromptParseMemo`: each
    shared block is parsed (and each solver's few-shot fit computed) once,
    then replayed for every request that carries it.  The memo caches only
    pure, RNG-free functions of message content given this client's fixed
    profile and knowledge, so it changes host-CPU cost and nothing else;
    the memo-free reference decoder in :mod:`repro.testing.reference` is
    the oracle that pins replies, usage and latency.
    """

    def __init__(self, model: str | ModelProfile = "gpt-3.5", seed: int = 0):
        self._profile = (
            model if isinstance(model, ModelProfile) else get_profile(model)
        )
        self._seed = seed
        self._memo = PromptParseMemo()
        self._call_counter = 0
        self._knowledge = KnowledgeBase(
            model=self._profile.name,
            coverage=self._profile.knowledge_coverage,
            concept_coverage=self._profile.concept_coverage,
        )

    @property
    def profile(self) -> ModelProfile:
        return self._profile

    @property
    def knowledge(self) -> KnowledgeBase:
        return self._knowledge

    @property
    def memo(self) -> PromptParseMemo:
        """The decode memo; exposes hit/miss counters and its size."""
        return self._memo

    def checkpoint_state(self) -> dict:
        """The client's mutable state, for crash-safe run journaling.

        Replies depend on ``_call_counter`` (retries resample), so a
        resumed run must restart counting exactly where the interrupted
        one stopped to reproduce its remaining replies bit-identically.
        The seed rides along because replies depend on it too.
        """
        return {"call_counter": self._call_counter, "seed": self._seed}

    def restore_checkpoint_state(self, state: dict) -> None:
        """Restore state captured by :meth:`checkpoint_state`.

        State journaled under another seed (or under none) is refused: a
        run resumed that way would mix two clients' replies.
        """
        journaled = state.get("seed")
        if journaled != self._seed:
            raise LLMError(
                f"client state was journaled with seed {journaled!r}, "
                f"this client has seed {self._seed!r}"
            )
        self._call_counter = int(state["call_counter"])

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        """Serve one chat completion (see module docstring for the stages)."""
        if request.model != self._profile.name:
            raise LLMError(
                f"client serves {self._profile.name!r}, request asks for "
                f"{request.model!r}"
            )
        prompt_tokens = request.prompt_tokens
        if prompt_tokens > self._profile.context_window:
            raise ContextWindowExceededError(
                self._profile.name, prompt_tokens, self._profile.context_window
            )
        parsed = parse_prompt(request, self._memo)
        rng = self._request_rng(request)
        solver = self._solver_for(parsed.task, rng, request.temperature)
        answers = solver.solve(parsed)
        text = self._render(parsed, answers, rng)
        return meter_response(self._profile, request, text)

    def complete_batch(
        self, requests: list[CompletionRequest]
    ) -> list[CompletionResponse]:
        """Serve a batch of completions in order.

        Equivalent to ``[self.complete(r) for r in requests]`` — the call
        counter advances exactly as it would for sequential calls, so the
        replies are bit-identical to the one-at-a-time path.
        """
        return [self.complete(request) for request in requests]

    def _request_rng(self, request: CompletionRequest) -> random.Random:
        # The call counter makes a *retry* of the same prompt resample, as a
        # real temperature>0 API does; runs stay deterministic because the
        # sequence of calls is.
        self._call_counter += 1
        hasher = hashlib.blake2b(digest_size=8)
        hasher.update(self._profile.name.encode("utf-8"))
        hasher.update(str(self._seed).encode("utf-8"))
        hasher.update(str(self._call_counter).encode("utf-8"))
        hasher.update(f"{request.temperature:.3f}".encode("utf-8"))
        for role, content in request.transcript:
            hasher.update(role.encode("utf-8"))
            hasher.update(content.encode("utf-8"))
        return random.Random(int.from_bytes(hasher.digest(), "little"))

    def _solver_for(self, task: Task, rng: random.Random, temperature: float):
        args = (self._profile, self._knowledge, rng, temperature, self._memo)
        if task is Task.ERROR_DETECTION:
            return EDSolver(*args)
        if task is Task.DATA_IMPUTATION:
            return DISolver(*args)
        if task is Task.SCHEMA_MATCHING:
            return SMSolver(*args)
        if task is Task.ENTITY_MATCHING:
            return EMSolver(*args)
        raise LLMError(f"no solver for task {task}")

    def _render(self, parsed: ParsedPrompt, answers: list[SolvedAnswer],
                rng: random.Random) -> str:
        """Render answers, injecting format violations per fidelity."""
        blocks: list[str] = []
        for question, solved in zip(parsed.questions, answers):
            fidelity = self._profile.fidelity_for(parsed.task, question.tokens)
            if rng.random() >= fidelity:
                blocks.append(self._ramble(rng))
                continue
            if parsed.reasoning:
                reason = solved.reason or "Considering the given fields."
                blocks.append(
                    f"Answer {question.number}: {reason}\n{solved.answer}"
                )
            else:
                blocks.append(f"Answer {question.number}: {solved.answer}")
        return "\n".join(blocks)

    def _ramble(self, rng: random.Random) -> str:
        """An off-contract reply fragment: no marker, no parseable answer."""
        return rng.choice(_RAMBLE_TEMPLATES)
