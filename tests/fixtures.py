"""Shared test fixtures that no product path needs.

- :func:`run_reference_flow` runs the shipped reference flow end to end;
- :func:`fail_first` is a positional fault plan for the first ``n`` calls;
- :class:`CachingBackend` builds a :class:`~repro.llm.cache.CachingClient`
  behind any backend, for checks that a cache survives a process hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.config import PipelineConfig
from repro.flow import FlowEngine, FlowResult, reference_spec
from repro.llm.backend import Backend
from repro.llm.base import LLMClient
from repro.llm.faults import Fault, FaultPlan
from repro.llm.simulated import SimulatedLLM


def run_reference_flow(
    client=None,
    concurrency: int = 1,
    workdir: str | Path | None = None,
    keep_raw: bool = False,
    chaos=None,
) -> FlowResult:
    """Run the reference flow end to end and return its result."""
    spec = reference_spec()
    client = client or SimulatedLLM(model="gpt-3.5", seed=0)
    overrides = dict(spec.config)
    overrides["concurrency"] = concurrency
    config = PipelineConfig(**overrides)
    engine = FlowEngine(client, config, workdir=workdir)
    tables, __ = spec.build_inputs()
    return engine.run(spec.graph, tables, keep_raw=keep_raw, chaos=chaos)


def fail_first(n: int, fault: Fault) -> FaultPlan:
    """A plan injecting ``fault`` on the first ``n`` calls."""
    return lambda index: fault if index <= n else None


@dataclass(frozen=True)
class CachingBackend:
    """Builds a :class:`~repro.llm.cache.CachingClient` (per-process LRU)."""

    inner: Backend
    max_entries: int = 4096

    def build(self) -> LLMClient:
        from repro.llm.cache import CachingClient

        return CachingClient(self.inner.build(), max_entries=self.max_entries)

    def describe(self) -> dict:
        return {
            "kind": "caching",
            "inner": self.inner.describe(),
            "max_entries": self.max_entries,
        }
