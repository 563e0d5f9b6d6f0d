"""Static invariant auditing for CBM artifacts, plans, and source contracts.

The rest of the repository proves correctness *dynamically* — by
multiplying against the CSR reference (:mod:`repro.core.verify`), by
chaos-injecting faults (:mod:`repro.reliability.chaos`), or by soaking
the serving layer.  This package proves what it can *statically*, from
the artifact or the code alone, before any kernel runs:

* :mod:`repro.staticcheck.artifact` — audits a CBM artifact (in-memory
  matrix or ``.npz`` archive): rootedness/acyclicity of the compression
  tree, delta-set consistency, the paper's Property 1 and Property 2
  bounds, variant scaling-vector ranges, and archive header/payload
  agreement.  Reports findings instead of raising, so corrupted
  artifacts can be *described*, not just rejected.
* :mod:`repro.staticcheck.hazards` — a race detector for the branch-
  parallel update stage (paper Section V-B): write-write and
  read-before-write hazards across a plan's branch decomposition, level
  schedule ordering, and workspace-pool aliasing.  It proves branch
  independence instead of assuming it.
* :mod:`repro.staticcheck.lint` — an AST-based contract linter over the
  source tree enforcing the codebase's concurrency/buffer conventions
  (declared in-place buffer mutation, lock-guarded ``GuardStats``
  counters, no swallowed broad excepts, no sleeps or unbounded waits
  under a lock, no raw shared-memory segments) with ruff-style output and a regression baseline that warns
  on stale entries.
* :mod:`repro.staticcheck.ir` — the unified plan IR: every concurrent
  schedule the repo produces (kernel plans, batch layouts, streaming
  swaps) lowers to one
  stage/buffer/interval representation audited by a single engine.
* :mod:`repro.staticcheck.hb` — happens-before race analysis over the
  IR: builds the HB graph from lane order, explicit edges, and
  commit-marker coverage, then reports HB-unordered conflicting
  accesses (HZ-R4xx).
* :mod:`repro.staticcheck.locks` — whole-tree lock-order and
  blocking-call analysis (SC7xx): an interprocedural lock acquisition
  graph with deadlock-cycle detection, plus local checks for blocking
  calls under a lock and ``Condition.wait`` outside a predicate loop.
* :mod:`repro.staticcheck.witness` — the test-only dynamic lock-witness
  recorder that cross-checks observed acquisition orders against the
  static graph (SC704/SC705).

These are surfaced as ``repro check {artifact,plan,code,concurrency}``
in the CLI and run as the required ``staticcheck`` and
``concurrency-check`` CI jobs.
"""

from repro.staticcheck.artifact import audit_archive, audit_arrays, audit_cbm
from repro.staticcheck.hazards import (
    analyze_batch_layout,
    analyze_branches,
    analyze_level_schedule,
    analyze_plan,
    analyze_pool,
    analyze_schedule,
)
from repro.staticcheck.hb import HBGraph, analyze_hb
from repro.staticcheck.ir import (
    Access,
    Buffer,
    PlanIR,
    SpanPolicy,
    Stage,
    analyze_ir,
    lower_batch_layout,
    lower_kernel_plan,
    lower_stream_swap,
)
from repro.staticcheck.lint import (
    lint_paths,
    lint_paths_with_baseline,
    lint_source,
    load_baseline,
)
from repro.staticcheck.locks import LockGraph, analyze_locks, scan_locks
from repro.staticcheck.report import AuditReport, Finding, Severity
from repro.staticcheck.witness import (
    LockWitness,
    cross_check,
    instrument,
    witness_service,
)

__all__ = [
    "Access",
    "AuditReport",
    "Buffer",
    "Finding",
    "HBGraph",
    "LockGraph",
    "LockWitness",
    "PlanIR",
    "Severity",
    "SpanPolicy",
    "Stage",
    "analyze_batch_layout",
    "analyze_branches",
    "analyze_hb",
    "analyze_ir",
    "analyze_level_schedule",
    "analyze_locks",
    "analyze_plan",
    "analyze_pool",
    "analyze_schedule",
    "audit_archive",
    "audit_arrays",
    "audit_cbm",
    "cross_check",
    "instrument",
    "lint_paths",
    "lint_paths_with_baseline",
    "lint_source",
    "load_baseline",
    "lower_batch_layout",
    "lower_kernel_plan",
    "lower_stream_swap",
    "scan_locks",
    "witness_service",
]
