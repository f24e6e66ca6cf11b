"""Preprocessing-as-a-service: the online serving layer.

The offline pipeline answers a closed batch; this package keeps a
:class:`~repro.core.pipeline.Preprocessor` alive behind an admission-
controlled, batch-coalescing front door so many tenants share one model
deployment — and one cache — across hundreds of thousands of requests on
the simulated clock.  See :mod:`repro.serving.service` for the
architecture and the determinism contract.
"""

from repro.serving.cache import CachedAnswer, ServingCache
from repro.serving.loadgen import (
    TenantSpec,
    default_tenants,
    generate_trace,
)
from repro.serving.request import (
    ANSWER_SOURCES,
    REJECT_REASONS,
    RejectedRequest,
    ServeRequest,
    ServeResponse,
)
from repro.serving.scheduler import (
    BatchCoalescer,
    CoalescePolicy,
    Flush,
    PendingEntry,
)
from repro.serving.service import (
    PreprocessingService,
    ServeConfig,
    ServeReport,
)
from repro.serving.tenants import TenantAdmission, TenantBudget

__all__ = [
    "ANSWER_SOURCES",
    "REJECT_REASONS",
    "BatchCoalescer",
    "CachedAnswer",
    "CoalescePolicy",
    "Flush",
    "PendingEntry",
    "PreprocessingService",
    "RejectedRequest",
    "ServeConfig",
    "ServeReport",
    "ServeRequest",
    "ServeResponse",
    "ServingCache",
    "TenantAdmission",
    "TenantBudget",
    "TenantSpec",
    "default_tenants",
    "generate_trace",
]
