"""Guarded execution layer: validation, fallback, and fault injection.

The production-facing half is :class:`GuardedKernel` /
:class:`GuardedAdjacency`: validated CBM products that degrade to the
CSR reference path instead of failing open.  The test-facing half is
:mod:`repro.reliability.chaos`, a deterministic fault-injection harness
that corrupts archives, trees, deltas, and feature matrices to prove
every degradation path.
See ``docs/ARCHITECTURE.md`` § "Reliability & failure semantics".
"""

from repro.reliability.guard import (
    FallbackWarning,
    GuardedAdjacency,
    GuardedKernel,
    GuardStats,
    all_finite,
)

__all__ = [
    "FallbackWarning",
    "GuardedAdjacency",
    "GuardedKernel",
    "GuardStats",
    "all_finite",
]
