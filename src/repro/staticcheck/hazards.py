"""Static race detection for the branch-parallel update stage (Section V-B).

The paper's parallel update stage is race-free *by construction*: each
worker replays complete branches (subtrees of the virtual root), and
branches share no rows, so no two threads ever write the same row and no
thread reads a row another thread is writing.  The runtime assumes this
— :class:`~repro.parallel.executor.ThreadedUpdateExecutor` takes the
branch lists on faith and uses no per-row synchronisation.

This module *proves* the assumption for a concrete plan instead of
trusting it.  Given a :class:`~repro.runtime.plan.KernelPlan` (or raw
branch lists / level schedules) it statically detects:

* **write-write hazards** — a row reachable from two branch lists, a row
  duplicated inside one branch, or a row written by two levels of the
  vectorised level schedule;
* **read-before-write hazards** — an edge scheduled before its parent is
  final: a non-root row preceding its parent within a branch, a branch
  whose root depends on another branch's output, or a level-schedule
  entry whose parent is written in the same or a later level;
* **workspace aliasing** — a :class:`~repro.runtime.buffers.WorkspacePool`
  holding the same buffer twice or two idle buffers sharing memory,
  which would hand one array to two concurrent executions and violate
  the Property 3 memory accounting.

All detectors return an :class:`AuditReport`; nothing here executes a
kernel or spawns a thread.
"""

from __future__ import annotations

import numpy as np

from repro.core.tree import VIRTUAL
from repro.staticcheck.report import AuditReport

_MAX_LISTED = 5


def _fmt(rows) -> str:
    rows = list(rows)
    listed = ", ".join(str(int(r)) for r in rows[:_MAX_LISTED])
    more = f", … (+{len(rows) - _MAX_LISTED} more)" if len(rows) > _MAX_LISTED else ""
    return f"[{listed}{more}]"


def analyze_branches(
    branches,
    parent,
    *,
    subject: str = "branch-decomposition",
) -> AuditReport:
    """Prove the branch decomposition race-free for threaded replay.

    ``branches`` is a list of row-index arrays (each in claimed
    topological order, root first); ``parent`` is the compression tree's
    parent vector.  Detects write-write hazards (shared or duplicated
    rows), read-before-write hazards (row before its parent, or a branch
    root that is not a child of the virtual row), and coverage gaps
    (tree rows no branch replays).
    """
    report = AuditReport(subject=subject)
    parent = np.asarray(parent, dtype=np.int64).ravel()
    n = len(parent)

    owner: dict[int, int] = {}
    shared: list[int] = []
    duplicated: list[int] = []
    for bi, branch in enumerate(branches):
        seen: set[int] = set()
        for x in np.asarray(branch, dtype=np.int64).ravel():
            x = int(x)
            if x in seen:
                duplicated.append(x)
                continue
            seen.add(x)
            if x in owner and owner[x] != bi:
                shared.append(x)
            else:
                owner.setdefault(x, bi)
    if shared:
        report.add(
            "HZ-W001",
            f"write-write hazard: rows {_fmt(shared)} are reachable from two "
            "branch lists — two workers would replay (write) the same row "
            "concurrently",
        )
        report.failed("branches.disjoint")
    else:
        report.passed("branches.disjoint")
    if duplicated:
        report.add(
            "HZ-W002",
            f"write-write hazard: rows {_fmt(duplicated)} appear twice within "
            "one branch — the row would be updated twice per product",
        )
        report.failed("branches.disjoint")

    missing = [x for x in range(n) if x not in owner]
    if missing:
        report.add(
            "HZ-B001",
            f"coverage gap: tree rows {_fmt(missing)} belong to no branch — "
            "their update-stage additions would never run",
        )
        report.failed("branches.coverage")
    else:
        report.passed("branches.coverage")

    misordered: list[int] = []
    cross: list[int] = []
    for bi, branch in enumerate(branches):
        branch = np.asarray(branch, dtype=np.int64).ravel()
        pos = {int(x): i for i, x in enumerate(branch)}
        for i, x in enumerate(branch):
            x = int(x)
            if x < 0 or x >= n:
                continue  # out-of-range rows already imply a broken tree
            p = int(parent[x])
            if i == 0:
                if p != VIRTUAL:
                    cross.append(x)
                continue
            if p == VIRTUAL:
                continue
            if p in pos:
                if pos[p] > i:
                    misordered.append(x)
            elif owner.get(p, bi) != bi:
                cross.append(x)
    if misordered:
        report.add(
            "HZ-R001",
            f"read-before-write hazard: rows {_fmt(misordered)} are replayed "
            "before their parent within the same branch — the edge is "
            "scheduled before its parent's level",
        )
        report.failed("branches.topological")
    else:
        report.passed("branches.topological")
    if cross:
        report.add(
            "HZ-R002",
            f"read-before-write hazard: rows {_fmt(cross)} read a parent row "
            "owned by a different branch — one worker would read a row "
            "another worker is still writing (branch independence broken)",
        )
        report.failed("branches.rooted")
    else:
        report.passed("branches.rooted")
    return report


def analyze_level_schedule(
    level_pairs,
    *,
    n_rows: int | None = None,
    subject: str = "level-schedule",
) -> AuditReport:
    """Prove a vectorised level schedule hazard-free.

    ``level_pairs`` is ``KernelPlan.level_pairs``: per level, the
    ``(children, parents)`` index arrays of ``c[children] += c[parents]``.
    Each level's scatter is one vectorised statement, so correctness
    requires every parent to be *final* before the level runs (written by
    an earlier level or never written at all) and every child to be
    written exactly once across the schedule.
    """
    report = AuditReport(subject=subject)
    written: set[int] = set()
    pending: set[int] = set()
    for lv, ps in level_pairs:
        pending.update(int(x) for x in np.asarray(lv).ravel())
    early: list[int] = []
    rewritten: list[int] = []
    intra: list[int] = []
    for lv, ps in level_pairs:
        lv = np.asarray(lv, dtype=np.int64).ravel()
        ps = np.asarray(ps, dtype=np.int64).ravel()
        lv_set = set(int(x) for x in lv)
        if len(lv_set) != len(lv):
            counts: dict[int, int] = {}
            for x in lv:
                counts[int(x)] = counts.get(int(x), 0) + 1
            intra.extend(x for x, k in counts.items() if k > 1)
        for p in ps:
            p = int(p)
            if p == VIRTUAL:
                continue
            # A parent still pending (written by this or a later level)
            # is read before its own update ran.
            if p in pending and p not in written:
                early.append(p)
        for x in lv_set:
            if x in written:
                rewritten.append(x)
            written.add(x)
            pending.discard(x)
    if intra:
        report.add(
            "HZ-L002",
            f"write-write hazard: rows {_fmt(intra)} appear twice within one "
            "level's vectorised scatter — duplicate fancy indices collapse "
            "to a single (last-wins) write",
        )
        report.failed("levels.unique_writes")
    if rewritten:
        report.add(
            "HZ-L003",
            f"write-write hazard: rows {_fmt(sorted(set(rewritten)))} are "
            "written by more than one level",
        )
        report.failed("levels.unique_writes")
    if not intra and not rewritten:
        report.passed("levels.unique_writes")
    if early:
        report.add(
            "HZ-L001",
            f"read-before-write hazard: rows {_fmt(sorted(set(early)))} are "
            "read as parents before the level that writes them has run — "
            "the edge is scheduled before its parent's level",
        )
        report.failed("levels.ordering")
    else:
        report.passed("levels.ordering")
    if n_rows is not None:
        oob = [x for x in written if x < 0 or x >= n_rows]
        if oob:
            report.add(
                "HZ-L004",
                f"level schedule writes out-of-range rows {_fmt(sorted(oob))} "
                f"for a {n_rows}-row buffer",
            )
            report.failed("levels.bounds")
        else:
            report.passed("levels.bounds")
    return report


def analyze_pool(pool, *, subject: str = "workspace-pool") -> AuditReport:
    """Prove the workspace pool free-lists alias-free (Property 3).

    The pool must never hold the same array twice (it would hand one
    buffer to two concurrent executions) nor two idle buffers that share
    memory (releasing a view alongside its base re-introduces the same
    bytes under two keys).  Also checks the pool's byte accounting
    (``idle_bytes`` vs the free-lists it actually holds).
    """
    report = AuditReport(subject=subject)
    with pool._lock:
        entries: list[tuple[tuple, np.ndarray]] = [
            (key, buf) for key, bufs in pool._free.items() for buf in bufs
        ]
        reported_idle = sum(b.nbytes for _, b in entries)
    dupes = 0
    overlaps = 0
    for i, (_, a) in enumerate(entries):
        for _, b in entries[i + 1 :]:
            if a is b:
                dupes += 1
            elif np.shares_memory(a, b):
                overlaps += 1
    if dupes:
        report.add(
            "HZ-P001",
            f"workspace aliasing: {dupes} buffer(s) appear twice in the "
            "pool's free lists — one array would be acquired by two "
            "concurrent executions (Property 3 reuse contract broken)",
        )
        report.failed("pool.aliasing")
    if overlaps:
        report.add(
            "HZ-P002",
            f"workspace aliasing: {overlaps} idle buffer pair(s) share "
            "memory — releasing a view next to its base double-counts the "
            "same bytes (Property 3 accounting broken)",
        )
        report.failed("pool.aliasing")
    if not dupes and not overlaps:
        report.passed("pool.aliasing")
    if pool.idle_bytes() != reported_idle:
        report.add(
            "HZ-P003",
            "workspace accounting drift: idle_bytes() disagrees with the "
            "free lists actually held",
        )
        report.failed("pool.accounting")
    else:
        report.passed("pool.accounting")
    return report


def analyze_schedule(
    result,
    costs=None,
    *,
    subject: str = "update-schedule",
) -> AuditReport:
    """Sanity-check a simulated :class:`ScheduleResult` against its costs.

    An impossible schedule — finishing faster than its critical path or
    than perfect work division allows, or claiming more than 100%
    utilisation — means the simulator's accounting drifted from the
    branch decomposition it was fed.
    """
    report = AuditReport(subject=subject)
    ok = True
    tol = 1e-9 + 1e-12 * max(result.total_work, 1.0)
    if result.makespan + tol < result.critical_path:
        report.add(
            "HZ-S001",
            f"impossible schedule: makespan {result.makespan} is shorter "
            f"than the critical path {result.critical_path}",
        )
        ok = False
    if result.threads > 0 and result.makespan * result.threads + tol < result.total_work:
        report.add(
            "HZ-S001",
            f"impossible schedule: {result.threads} threads cannot fit "
            f"{result.total_work} work units into makespan {result.makespan}",
        )
        ok = False
    if result.utilisation > 1.0 + 1e-9:
        report.add(
            "HZ-S002",
            f"schedule claims utilisation {result.utilisation:.3f} > 1",
        )
        ok = False
    if costs is not None:
        costs = np.asarray(costs, dtype=np.float64).ravel()
        if len(costs) != result.tasks:
            report.add(
                "HZ-S003",
                f"schedule accounts for {result.tasks} tasks but the branch "
                f"decomposition has {len(costs)}",
            )
            ok = False
        elif abs(float(costs.sum()) - result.total_work) > tol:
            report.add(
                "HZ-S003",
                f"schedule total_work {result.total_work} disagrees with the "
                f"branch costs' sum {float(costs.sum())}",
            )
            ok = False
    if ok:
        report.passed("schedule.accounting")
    else:
        report.failed("schedule.accounting")
    return report


def analyze_batch_layout(layout, *, subject: str = "batch-layout") -> AuditReport:
    """Prove a stacked-operand :class:`~repro.serving.batching.BatchLayout`
    free of cross-member hazards before anything executes.

    The micro-batching stage packs several requests' operands into one
    stacked buffer and splits the product back by column span; the
    layout is the static contract the split step relies on.  Lowers the
    layout through the unified plan IR (:mod:`repro.staticcheck.ir`) and
    runs the single span engine, which detects:

    * **HZ-X001, cross-member aliasing** — two member spans overlapping,
      so one output column would be handed to two requesters (the
      stacked-operand form of the Property 3 violation the pool detector
      catches);
    * **HZ-X002, out-of-bounds spans** — a member span outside the
      stacked buffer's ``total_columns``;
    * **HZ-X003, uninitialised gaps** — columns between member spans
      that no one owns: they are neither written by a member nor
      zero-filled as trailing padding, so recycled pool garbage would
      feed the kernel;
    * **HZ-X004, non-positive widths** — a zero- or negative-width
      member, which would silently resolve to an empty (or aliasing)
      output slice.
    """
    from repro.staticcheck.ir import analyze_ir, lower_batch_layout

    return analyze_ir(lower_batch_layout(layout, subject=subject))


def _legacy_analyze_batch_layout(layout, *, subject: str = "batch-layout") -> AuditReport:
    """Pre-IR implementation, kept as the migration-equivalence oracle.

    The property suite lowers random layouts through both this and the
    IR engine and requires identical verdicts; new rules belong in the
    engine, not here.
    """
    report = AuditReport(subject=subject)
    spans = sorted(layout.spans())

    bad_width = [(lo, hi) for lo, hi in spans if hi - lo <= 0]
    if bad_width:
        report.add(
            "HZ-X004",
            f"batch layout: member span(s) {bad_width[:_MAX_LISTED]} have "
            "non-positive width — the member would receive an empty or "
            "aliasing output slice",
        )
        report.failed("batch.widths")
    else:
        report.passed("batch.widths")

    overlaps = [
        (spans[i], spans[i + 1])
        for i in range(len(spans) - 1)
        if spans[i + 1][0] < spans[i][1]
    ]
    if overlaps:
        report.add(
            "HZ-X001",
            f"cross-member aliasing: member spans {overlaps[:_MAX_LISTED]} "
            "overlap — one stacked output column would be split to two "
            "requesters (Property 3 ownership broken)",
        )
        report.failed("batch.disjoint")
    else:
        report.passed("batch.disjoint")

    oob = [
        (lo, hi)
        for lo, hi in spans
        if lo < 0 or hi > layout.total_columns
    ]
    if oob:
        report.add(
            "HZ-X002",
            f"batch layout: member span(s) {oob[:_MAX_LISTED]} fall outside "
            f"the {layout.total_columns}-column stacked buffer",
        )
        report.failed("batch.bounds")
    else:
        report.passed("batch.bounds")

    gaps = [
        (spans[i][1], spans[i + 1][0])
        for i in range(len(spans) - 1)
        if spans[i + 1][0] > spans[i][1]
    ]
    if spans and spans[0][0] > 0:
        gaps.insert(0, (0, spans[0][0]))
    if gaps:
        report.add(
            "HZ-X003",
            f"batch layout: column gap(s) {gaps[:_MAX_LISTED]} between member "
            "spans are owned by no member — unlike trailing quantisation "
            "padding they are never zero-filled, so recycled workspace "
            "garbage would feed the kernel",
        )
        report.failed("batch.contiguous")
    else:
        report.passed("batch.contiguous")
    return report


def analyze_plan(
    plan,
    *,
    threads: int | None = None,
    p: int = 1,
    batch_layout=None,
    subject: str | None = None,
) -> AuditReport:
    """Full hazard analysis of a built :class:`KernelPlan`.

    Composes the branch, level-schedule and workspace-pool detectors over
    the plan's own cached structures; when ``threads`` is given,
    additionally simulates ``plan_update_schedule`` and sanity-checks its
    accounting.  ``batch_layout`` audits a
    stacked-operand column map alongside the plan (the batched-serving
    schedule: one plan execution, many requesters).
    """
    from repro.staticcheck.ir import analyze_ir, lower_kernel_plan

    name = subject if subject is not None else f"plan({plan.variant.value},{plan.update_path})"
    report = AuditReport(subject=name)
    report.merge(analyze_branches(plan.branches, plan._parent, subject=name))
    report.merge(
        analyze_level_schedule(plan.level_pairs, n_rows=plan.shape[0], subject=name)
    )
    # Happens-before view of the same plan: branch lanes barriered after
    # the multiply, joined before the finalise stage.  Subsumes the
    # shares_memory-style aliasing argument (HZ-R401/R402 on conflicts).
    report.merge(analyze_ir(lower_kernel_plan(plan, subject=name)))
    report.merge(analyze_pool(plan.pool, subject=name))
    if batch_layout is not None:
        report.merge(analyze_batch_layout(batch_layout, subject=name))
    if threads is not None:
        from repro.parallel.schedule import (
            branch_costs_from_branches,
            plan_update_schedule,
        )

        result = plan_update_schedule(plan, p, threads)
        costs = branch_costs_from_branches(plan.branches, p, dad=plan.row_scaled)
        report.merge(analyze_schedule(result, costs, subject=name))
    return report
