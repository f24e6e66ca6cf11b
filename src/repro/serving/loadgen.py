"""Load generation: seeded multi-tenant request traces.

Traces are synthesized per tenant: Poisson arrivals (exponential
inter-arrival times at a configured mean rate) over a finite instance
population with Pareto-skewed popularity — a few hot records dominate,
the long tail trickles — which is what makes a prompt/answer cache earn
its keep at scale.  Everything is seeded; the same ``(tenants, seed)``
always produces the same trace, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from repro.data.instances import PreprocessingDataset
from repro.errors import ServingError
from repro.serving.request import ServeRequest


@dataclass(frozen=True)
class TenantSpec:
    """One synthetic tenant: arrival rate, volume, and popularity skew.

    ``rate_rps`` is the mean arrivals per virtual second;
    ``pareto_alpha`` shapes popularity (smaller = more skew; values near
    1 make a handful of records absorb most requests).
    """

    name: str
    rate_rps: float
    n_requests: int
    pareto_alpha: float = 1.1

    def __post_init__(self) -> None:
        if self.rate_rps <= 0:
            raise ServingError(
                f"tenant {self.name!r} rate_rps must be positive"
            )
        if self.n_requests < 0:
            raise ServingError(
                f"tenant {self.name!r} n_requests cannot be negative"
            )
        if self.pareto_alpha <= 0:
            raise ServingError(
                f"tenant {self.name!r} pareto_alpha must be positive"
            )


def generate_trace(
    dataset: PreprocessingDataset,
    tenants: list[TenantSpec],
    seed: int = 0,
) -> list[ServeRequest]:
    """A deterministic multi-tenant request trace over ``dataset``.

    Each tenant gets an independent seeded stream (keyed by name, so
    adding a tenant never perturbs the others); streams are merged by
    arrival time with ties broken by tenant name and per-tenant sequence,
    and ``request_id`` is assigned in final order — globally monotone, the
    scheduler's deterministic tie-breaker.
    """
    population = list(dataset.instances)
    if not population:
        raise ServingError(f"dataset {dataset.name!r} has no instances")
    popularity = list(range(len(population)))
    Random(f"{seed}:popularity").shuffle(popularity)
    merged: list[tuple[float, str, int, int]] = []
    for spec in tenants:
        rng = Random(f"{seed}:{spec.name}")
        arrival = 0.0
        for sequence in range(spec.n_requests):
            arrival += rng.expovariate(spec.rate_rps)
            rank = min(
                int(rng.paretovariate(spec.pareto_alpha)) - 1,
                len(population) - 1,
            )
            merged.append((arrival, spec.name, sequence, popularity[rank]))
    merged.sort(key=lambda item: (item[0], item[1], item[2]))
    return [
        ServeRequest(
            request_id=request_id,
            tenant=tenant,
            arrival_s=arrival,
            instance=population[position],
        )
        for request_id, (arrival, tenant, __, position) in enumerate(merged)
    ]


def default_tenants(
    n_tenants: int, n_requests: int, rate_rps: float = 50.0
) -> list[TenantSpec]:
    """A simple heterogeneous fleet: rates spread geometrically (×2 per
    tenant) around the requested aggregate, volume split evenly."""
    if n_tenants < 1:
        raise ServingError(f"need at least one tenant, got {n_tenants}")
    weights = [2.0 ** index for index in range(n_tenants)]
    scale = rate_rps / sum(weights)
    per_tenant = n_requests // n_tenants
    remainder = n_requests - per_tenant * n_tenants
    return [
        TenantSpec(
            name=f"tenant-{index}",
            rate_rps=weights[index] * scale,
            n_requests=per_tenant + (1 if index < remainder else 0),
        )
        for index in range(n_tenants)
    ]

