"""A picklable backend-pool factory for failover routing.

:class:`PoolBackend` is the shard-safe counterpart of
:class:`~repro.resilience.router.FailoverClient`: a frozen description of
an ordered pool of member backends (any PR 8 ``Backend``, including
:class:`~repro.llm.backend.DegradedBackend` wrappers) that each worker
process rebuilds into a live router with ``build()``.  Priorities are
explicit on the members, and the router sorts on ``(priority, name)``,
so the tuple order used to construct the pool never affects routing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.resilience.config import ResilienceConfig
from repro.resilience.degradation import DegradationPlan
from repro.resilience.router import FailoverClient


@dataclass(frozen=True)
class PoolMember:
    """One backend in a failover pool."""

    name: str
    backend: Any
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a pool member needs a non-empty name")
        if not callable(getattr(self.backend, "build", None)):
            raise TypeError(
                f"pool member {self.name!r} backend has no build(); "
                "expected a Backend factory"
            )


@dataclass(frozen=True)
class PoolBackend:
    """Builds a :class:`FailoverClient` over the member backends."""

    members: tuple[PoolMember, ...]
    resilience: ResilienceConfig = ResilienceConfig()

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a pool needs at least one member")
        names = [member.name for member in self.members]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate pool member names: {sorted(names)}")

    def build(self) -> FailoverClient:
        return FailoverClient(
            [
                (member.name, member.priority, member.backend.build())
                for member in self.members
            ],
            self.resilience,
        )

    def describe(self) -> dict:
        ordered = sorted(
            self.members, key=lambda member: (member.priority, member.name)
        )
        return {
            "kind": "pool",
            "members": [
                {
                    "name": member.name,
                    "priority": member.priority,
                    "backend": member.backend.describe(),
                }
                for member in ordered
            ],
            "resilience": dataclasses.asdict(self.resilience),
        }


def degraded_pool(model: str, seed: int, plan: DegradationPlan) -> PoolBackend:
    """A scripted-degraded primary backed by a healthy secondary.

    The primary is ``SimulatedBackend(model, seed)`` behind ``plan``; the
    secondary is an undegraded ``SimulatedBackend(model, seed + 1)``.  The
    pool carries the default :class:`ResilienceConfig`; callers run the
    executor with ``pool.resilience`` too.
    """
    # Imported here: llm.backend imports llm.faults, which imports this
    # package.
    from repro.llm.backend import DegradedBackend, SimulatedBackend

    return PoolBackend(members=(
        PoolMember(
            "primary",
            DegradedBackend(SimulatedBackend(model, seed), plan, name="primary"),
            priority=0,
        ),
        PoolMember("secondary", SimulatedBackend(model, seed + 1), priority=1),
    ))
