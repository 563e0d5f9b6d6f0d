"""Plan/execute kernel runtime for CBM products.

Splits every CBM multiplication into a one-time :class:`KernelPlan`
(update schedules, branch decomposition, scaled operand, diagonal tables,
workspace pool) and a cheap per-call ``execute`` — the amortisation that
makes the format pay off on GNN serving workloads.  The update stage
runs compiled (:mod:`repro.runtime.native`, built from ``walk.c`` on
first use) or, without a compiler, as a NumPy level walk.  See
``docs/ARCHITECTURE.md`` § "The plan/execute runtime".
"""

from repro.runtime.buffers import PoolStats, WorkspacePool
from repro.runtime.plan import KernelPlan, PlanStats

__all__ = ["KernelPlan", "PlanStats", "PoolStats", "WorkspacePool"]
