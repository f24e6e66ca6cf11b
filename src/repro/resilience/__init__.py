"""Backend resilience: surviving sick upstreams, deterministically.

The chaos stack proves the pipeline recovers from *death* (killed
processes, torn journals); this package makes it survive *sickness* —
429 storms, latency brownouts, overload windows, blackouts — while every
adaptive decision (lane width, hedge timing, failover order, circuit
transitions) stays a pure function of the simulated clock and seeded
plans, so degraded runs replay bit-identically.
"""

from repro.resilience.aimd import AimdController
from repro.resilience.config import ResilienceConfig
from repro.resilience.degradation import (
    EPISODE_KINDS,
    DegradationPlan,
    Episode,
    blackout_plan,
    brownout_plan,
)
from repro.resilience.health import BackendHealth
from repro.resilience.pool import PoolBackend, PoolMember, degraded_pool
from repro.resilience.router import FailoverClient
from repro.resilience.signals import ThrottleSignal, attach, throttle_of

__all__ = [
    "AimdController",
    "BackendHealth",
    "DegradationPlan",
    "EPISODE_KINDS",
    "Episode",
    "FailoverClient",
    "PoolBackend",
    "PoolMember",
    "ResilienceConfig",
    "ThrottleSignal",
    "attach",
    "blackout_plan",
    "brownout_plan",
    "degraded_pool",
    "throttle_of",
]
