"""Simulated-LLM substrate.

The paper evaluates GPT-3.5, GPT-4, and Vicuna-13B through paid chat APIs.
Offline, this package provides :class:`~repro.llm.simulated.SimulatedLLM`:
a chat-completion engine that parses the framework's actual prompt text,
answers with task solvers whose competence is set by a per-model profile,
and accounts tokens/cost/latency exactly as a metered API would.

The crucial property (tested in ``tests/llm/test_no_leakage.py``): the
engine sees *only the prompt*.  Ground truth never flows in; errors emerge
from the solvers' mechanistic limits plus profile noise.
"""

from repro.llm.backend import (
    Backend,
    Checkpointable,
    DegradedBackend,
    FaultBackend,
    SimulatedBackend,
)
from repro.llm.base import (
    ChatMessage,
    CompletionRequest,
    CompletionResponse,
    LLMClient,
    Usage,
)
from repro.llm.faults import (
    DegradedClient,
    Fault,
    FaultInjectingClient,
    GarblingClient,
)
from repro.llm.profiles import ModelProfile, get_profile
from repro.llm.promptparse import PromptParseMemo
from repro.llm.simulated import SimulatedLLM

__all__ = [
    "Backend",
    "Checkpointable",
    "DegradedBackend",
    "DegradedClient",
    "Fault",
    "FaultBackend",
    "FaultInjectingClient",
    "GarblingClient",
    "ChatMessage",
    "CompletionRequest",
    "CompletionResponse",
    "PromptParseMemo",
    "SimulatedBackend",
    "Usage",
    "LLMClient",
    "ModelProfile",
    "get_profile",
    "SimulatedLLM",
]
