"""In-process inference serving over the CBM runtime.

The resilience tier of the reproduction: a thread-safe service with
bounded-queue admission control, per-request deadline budgets checked
before each batch runs and before each retry, retry with
decorrelated-jitter backoff, a per-adjacency circuit breaker walking the
CBM → guarded-CBM → CSR degradation ladder, and hot-swap of
CRC-verified CBM archives.  See ``docs/ARCHITECTURE.md`` ("Serving &
resilience") for the state machine and where deadlines are enforced.
"""

from repro.serving.backoff import RetryPolicy, is_transient
from repro.serving.batching import (
    KIND_GCN,
    KIND_PRODUCT,
    Batch,
    BatchCollector,
    BatchConfig,
    BatchLayout,
    quantize_columns,
)
from repro.serving.breaker import BreakerState, CircuitBreaker, ServeTier
from repro.serving.deadline import Deadline
from repro.serving.service import (
    AdjacencySlot,
    InferenceFuture,
    InferenceService,
    ServiceState,
    ServiceStats,
)

__all__ = [
    "KIND_GCN",
    "KIND_PRODUCT",
    "AdjacencySlot",
    "Batch",
    "BatchCollector",
    "BatchConfig",
    "BatchLayout",
    "BreakerState",
    "CircuitBreaker",
    "Deadline",
    "InferenceFuture",
    "InferenceService",
    "RetryPolicy",
    "ServeTier",
    "ServiceState",
    "ServiceStats",
    "is_transient",
    "quantize_columns",
]
