"""Client backends: picklable specifications that build LLM clients.

The sharded runner (:mod:`repro.shard`) executes shards in worker
*processes*.  A live client cannot cross that boundary — it holds mutable
state (call counters, caches, fault occurrence maps) and, in the general
case, sockets.  What crosses instead is a :class:`Backend`: a small frozen
value object that knows how to **build** a fresh client on the other side
and how to **describe** itself as plain data.

Two protocols live here:

- :class:`Backend` — ``build()`` a client, ``describe()`` its identity.
  Every backend is picklable by construction (frozen dataclasses of plain
  values), so one backend value fans out to any number of workers and
  each builds an identical client.
- :class:`Checkpointable` — the resume contract
  (``checkpoint_state``/``restore_checkpoint_state``).  The runtime's
  checkpoint layer (:mod:`repro.runtime.checkpoint`) captures client
  state through this protocol, so *any* client that implements it —
  including wrappers stacked by these backends — gets crash-safe resume
  for free, with no per-class knowledge in the runtime.

The concrete backends mirror the client stack: a simulated model, the
fault injector and the degraded upstream, each wrapping an inner backend
so stacks compose the way the clients do::

    FaultBackend(SimulatedBackend("gpt-4", seed=7), plan={3: Fault(...)})
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence, runtime_checkable

from repro.errors import LLMError
from repro.llm.base import LLMClient
from repro.llm.faults import Fault, plan_key_type
from repro.resilience.degradation import DegradationPlan


@runtime_checkable
class Checkpointable(Protocol):
    """The resume contract a client opts into.

    ``checkpoint_state()`` returns the client's mutable state as a
    JSON-able dict; ``restore_checkpoint_state(state)`` puts it back.  A
    client implementing both resumes bit-identically through the run
    journal — the runtime never needs to know the concrete class.
    """

    def checkpoint_state(self) -> dict: ...

    def restore_checkpoint_state(self, state: dict) -> None: ...


@runtime_checkable
class Backend(Protocol):
    """A picklable factory for one configured LLM client.

    ``build()`` constructs a fresh client (stateless backends may be
    reused: every call returns an independent client).  ``describe()``
    returns the backend's full identity as plain data, so two backends
    that describe equal build equal clients.  The stage-isolation flow
    ledger seals it into its header context
    (:func:`~repro.flow.engine.flow_context`); shard plans and run
    journals do not use it.
    """

    def build(self) -> LLMClient: ...

    def describe(self) -> dict: ...


@dataclass(frozen=True)
class SimulatedBackend:
    """Builds a :class:`~repro.llm.simulated.SimulatedLLM`."""

    model: str = "gpt-3.5"
    seed: int = 0

    def build(self) -> LLMClient:
        from repro.llm.simulated import SimulatedLLM

        return SimulatedLLM(self.model, seed=self.seed)

    def describe(self) -> dict:
        return {"kind": "simulated", "model": self.model, "seed": self.seed}


def _fault_payload(fault: Fault | None) -> dict | None:
    if fault is None:
        return None
    return {
        "kind": fault.kind,
        "retry_after": fault.retry_after,
        "latency_s": fault.latency_s,
        "message": fault.message,
    }


@dataclass(frozen=True)
class FaultBackend:
    """Builds a :class:`~repro.llm.faults.FaultInjectingClient`.

    ``plan`` must be a *mapping* plan (positional ``{call_index: Fault}``
    or fingerprint-keyed ``{fingerprint: Fault | schedule}``) — callable
    plans cannot cross a process boundary and are rejected here, at
    backend construction, rather than at pickling time in a worker.  Keys
    go through the injector's own check
    (:func:`~repro.llm.faults.plan_key_type`), so a plan that
    :class:`~repro.llm.faults.FaultInjectingClient` would refuse is
    refused here too, not at ``build()`` inside a worker.
    """

    inner: Backend
    plan: tuple = ()

    def __init__(
        self,
        inner: Backend,
        plan: Mapping[int, Fault] | Mapping[str, Fault | Sequence[Fault | None]] = (),
    ):
        object.__setattr__(self, "inner", inner)
        if callable(plan):
            raise LLMError(
                "FaultBackend needs a mapping fault plan; a callable plan "
                "cannot be pickled across worker processes"
            )
        items = tuple(plan.items() if isinstance(plan, Mapping) else plan)
        positional = plan_key_type(key for key, __ in items) is int
        normalized = []
        for key, scheduled in items:
            if positional and not isinstance(scheduled, Fault):
                raise LLMError(
                    "a positional fault-plan entry maps one call index to "
                    "one Fault; schedules are for fingerprint keys"
                )
            if isinstance(scheduled, Fault):
                scheduled = (scheduled,)
            normalized.append((key, tuple(scheduled)))
        object.__setattr__(self, "plan", tuple(normalized))

    def build(self) -> LLMClient:
        from repro.llm.faults import FaultInjectingClient

        # Positional entries were stored as 1-tuples for uniformity;
        # FaultInjectingClient's positional path expects the bare Fault.
        return FaultInjectingClient(
            self.inner.build(),
            plan={
                key: (schedule[0] if isinstance(key, int) else schedule)
                for key, schedule in self.plan
            },
        )

    def describe(self) -> dict:
        return {
            "kind": "faults",
            "inner": self.inner.describe(),
            "plan": [
                [key, [_fault_payload(fault) for fault in schedule]]
                for key, schedule in self.plan
            ],
        }


@dataclass(frozen=True)
class DegradedBackend:
    """Builds a :class:`~repro.llm.faults.DegradedClient`.

    Wraps any inner backend with a scripted degradation plan
    (:class:`~repro.resilience.degradation.DegradationPlan` — a frozen
    value, so the backend pickles across worker processes).  ``name``
    identifies this backend in throttle signals and health reports.
    """

    inner: Backend
    plan: "DegradationPlan"
    name: str = "primary"

    def build(self) -> LLMClient:
        from repro.llm.faults import DegradedClient

        return DegradedClient(
            self.inner.build(), self.plan, backend_name=self.name
        )

    def describe(self) -> dict:
        return {
            "kind": "degraded",
            "inner": self.inner.describe(),
            "name": self.name,
            "plan": self.plan.payload(),
        }
