"""Parallel execution substrate (paper Section V-B and VI).

The paper evaluates on a 16-core Intel Xeon Gold 6130 with OpenMP thread
pinning.  The reproduction runs on a 2-core machine, so this package
provides two layers:

* :mod:`repro.parallel.executor` — a *real* thread-pool replay of the
  CBM update stage over compression-tree branches, the paper's
  shared-memory policy.  Correct on any core count (verified by tests),
  but it replays edges from Python: served products run the compiled
  walk on one thread instead, and this replay is the benchmark probe
  that measures the policy against it.
* :mod:`repro.parallel.machine`, :mod:`repro.parallel.cache`,
  :mod:`repro.parallel.schedule`, :mod:`repro.parallel.simulate` — a
  shared-memory machine model (cores, cache hierarchy, bandwidth) and a
  dynamic branch scheduler that *predict* sequential and 16-core execution
  times for the CSR baseline and the CBM kernels from their operation and
  traffic counts.  The simulator reproduces the paper's parallel shape:
  alpha raising the virtual root's out-degree raises parallelism, and
  cache capacity effects let the baseline scale better on graphs whose
  CSR form fits the combined private caches (Section VI-E.1).
"""

from repro.parallel.cache import CacheModel, WorkingSet, plan_working_set
from repro.parallel.executor import ThreadedUpdateExecutor
from repro.parallel.machine import XEON_GOLD_6130, CacheLevel, MachineSpec
from repro.parallel.report import cost_breakdown, render_breakdown
from repro.parallel.scaling import ScalingPoint, parallel_efficiency, saturation_cores, strong_scaling_curve
from repro.parallel.schedule import (
    ScheduleResult,
    branch_costs_from_branches,
    plan_update_schedule,
    simulate_dynamic_schedule,
)
from repro.parallel.simulate import KernelCost, predict_cbm_spmm, predict_csr_spmm
from repro.parallel.trace import ScheduleTrace, TaskEvent, render_gantt, traced_schedule

__all__ = [
    "CacheLevel",
    "MachineSpec",
    "XEON_GOLD_6130",
    "CacheModel",
    "WorkingSet",
    "plan_working_set",
    "ScheduleResult",
    "branch_costs_from_branches",
    "plan_update_schedule",
    "simulate_dynamic_schedule",
    "ThreadedUpdateExecutor",
    "KernelCost",
    "predict_cbm_spmm",
    "predict_csr_spmm",
    "ScheduleTrace",
    "TaskEvent",
    "render_gantt",
    "traced_schedule",
    "cost_breakdown",
    "render_breakdown",
    "ScalingPoint",
    "parallel_efficiency",
    "saturation_cores",
    "strong_scaling_curve",
]
