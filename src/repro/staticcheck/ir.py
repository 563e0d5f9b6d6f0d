"""Unified concurrency IR: every plan shape as stages over buffer spans.

The runtime produces three structurally different "plans" — a
:class:`~repro.runtime.plan.KernelPlan` level schedule replayed by
threads, a :class:`~repro.serving.batching.BatchLayout` packing many
requests' columns into one stacked operand, and the streaming layer's
snapshot/rebuild/publish swap protocol.  Each used to carry its own
ad-hoc audit in :mod:`repro.staticcheck.hazards`; this module lowers all
of them into ONE representation so a single engine can prove them safe:

* a :class:`Buffer` is a named address space (an output matrix in rows,
  a stacked operand in columns, a published slot reference) with an
  optional :class:`SpanPolicy` describing the span-ownership discipline
  its writers must obey;
* a :class:`Stage` is one unit of work on an execution *lane* (a thread,
  the main thread between dispatches) with explicit read/write
  accesses — half-open ``[lo, hi)`` spans into buffers — and explicit
  happens-before edges (``after``) for barriers, joins, and commit
  visibility;
* a :class:`PlanIR` bundles the two, and :func:`analyze_ir` runs the
  engine: span-discipline audits per buffer (ownership overlap, bounds,
  coverage gaps, degenerate widths — the checks the legacy
  ``analyze_batch_layout`` performed) plus the happens-before race and
  commit-order analysis from :mod:`repro.staticcheck.hb` (HZ-R4xx).

:class:`FusedStage` is the forward-looking descriptor for ROADMAP item 5
(the fusion pass): an epilogue fused into a branch's replay declares the
rows it touches, and the engine proves the fusion race-free — the rows
must be owned by that branch, otherwise the fused work conflicts with
another lane and HZ-R401/R402 fire.  The fusion pass can therefore be
built on plans this module has already verified.

Everything here is symbolic: no kernel runs and no thread spawns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.tree import VIRTUAL
from repro.staticcheck.report import AuditReport

_MAX_LISTED = 5
#: Cap on conflicting stage pairs examined per buffer — a broken plan
#: with thousands of overlaps reports the first few, not all of them.
_MAX_CONFLICTS = 64


def _fmt_spans(spans) -> str:
    spans = [(int(lo), int(hi)) for lo, hi in spans]
    listed = ", ".join(f"({lo}, {hi})" for lo, hi in spans[:_MAX_LISTED])
    more = f", … (+{len(spans) - _MAX_LISTED} more)" if len(spans) > _MAX_LISTED else ""
    return f"[{listed}{more}]"


# ---------------------------------------------------------------------------
# IR node types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpanPolicy:
    """Span-ownership discipline for one buffer's writers.

    Each field names the ``(finding code, check name)`` emitted when the
    corresponding rule is violated; ``None`` disables the rule.  Spans
    are ordered by ``(lo, hi)`` and compared with their sorted
    neighbour; ``allow_trailing`` treats an unowned tail as padding
    (the batch dialect zero-fills it), not as a gap.
    """

    overlap: tuple[str, str] | None = None   # two owners claim the same span
    bounds: tuple[str, str] | None = None    # lo < 0 or hi > size
    width: tuple[str, str] | None = None     # hi - lo <= 0
    gap: tuple[str, str] | None = None       # spans do not tile [0, size)
    allow_trailing: bool = False
    noun: str = "span"


@dataclass(frozen=True)
class Buffer:
    """One named address space stages read and write.

    ``size`` is in ``unit``s (rows, columns, bytes — the engine only does
    interval arithmetic; the unit is for messages).  ``atomic`` marks a
    single-reference slot whose read/write is atomic under the runtime
    (e.g. a published snapshot pointer swapped in one assignment): the
    race analysis does not report unordered accesses to it.  A buffer
    with ``policy.overlap`` set is governed by span ownership — overlap
    there IS the race, reported once under the policy's code, so the
    generic HB race check skips it rather than double-reporting.
    """

    name: str
    size: int | None = None
    unit: str = "bytes"
    space: str = "heap"
    atomic: bool = False
    policy: SpanPolicy | None = None


@dataclass(frozen=True)
class Access:
    """One read or write of ``spans`` (``(k, 2)`` half-open) in a buffer."""

    buffer: str
    spans: np.ndarray
    mode: str = "w"  # "r" | "w"
    label: str = ""

    def __post_init__(self):
        arr = np.asarray(self.spans, dtype=np.int64).reshape(-1, 2)
        object.__setattr__(self, "spans", arr)


@dataclass(frozen=True)
class Stage:
    """One unit of work on an execution lane.

    Stages sharing a ``lane`` execute in list order (program order is a
    happens-before edge); stages on different lanes are concurrent
    unless an ``after`` edge (barrier, join, commit visibility) orders
    them.  A ``role="commit"`` stage publishes the work of the stages in
    ``covers`` (the store's manifest rename): the engine proves every
    covered stage is happens-before the commit, else the commit is a
    torn publish (HZ-R403).
    """

    sid: str
    lane: str
    reads: tuple[Access, ...] = ()
    writes: tuple[Access, ...] = ()
    after: tuple[str, ...] = ()
    role: str = ""
    covers: tuple[str, ...] = ()
    label: str = ""


@dataclass
class PlanIR:
    """A lowered plan: buffers plus stages, ready for :func:`analyze_ir`."""

    subject: str
    buffers: dict[str, Buffer] = field(default_factory=dict)
    stages: list[Stage] = field(default_factory=list)

    def add_buffer(self, buf: Buffer) -> Buffer:
        if buf.name in self.buffers:
            raise ValueError(f"duplicate buffer {buf.name!r}")
        self.buffers[buf.name] = buf
        return buf

    def add_stage(self, stage: Stage) -> Stage:
        if any(s.sid == stage.sid for s in self.stages):
            raise ValueError(f"duplicate stage {stage.sid!r}")
        self.stages.append(stage)
        return stage

    def stage(self, sid: str) -> Stage:
        for s in self.stages:
            if s.sid == sid:
                return s
        raise KeyError(sid)

    def replace_stage(self, sid: str, **changes) -> Stage:
        """Rebuild one stage with ``changes`` (mutation-catalog helper)."""
        for i, s in enumerate(self.stages):
            if s.sid == sid:
                self.stages[i] = replace(s, **changes)
                return self.stages[i]
        raise KeyError(sid)


@dataclass(frozen=True)
class FusedStage:
    """Descriptor of an epilogue fused into the update stage (ROADMAP 5).

    ``kind`` names the fused work (``"row-scale"``, ``"activation"``,
    ``"bias"`` — the engine does not interpret it); ``branch`` selects
    the branch whose replay absorbs the epilogue (``None`` = fused after
    the join, which is always safe); ``rows`` are the rows the epilogue
    reads and writes (``None`` = exactly the branch's own rows, the
    provably safe default).  Lowering folds the accesses into the branch
    stage, so a fusion touching rows outside the branch conflicts with
    another lane and the race analysis rejects the plan.
    """

    kind: str
    branch: int | None = None
    rows: object = None


# ---------------------------------------------------------------------------
# Span helpers
# ---------------------------------------------------------------------------

def spans_of(*pairs) -> np.ndarray:
    """Build a ``(k, 2)`` span array from ``(lo, hi)`` pairs."""
    if not pairs:
        return np.empty((0, 2), dtype=np.int64)
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def rows_to_spans(rows) -> np.ndarray:
    """Coalesce row indices into sorted half-open ``[lo, hi)`` spans."""
    rows = np.unique(np.asarray(rows, dtype=np.int64).ravel())
    if rows.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    breaks = np.flatnonzero(np.diff(rows) != 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [rows.size - 1]))
    return np.stack((rows[starts], rows[ends] + 1), axis=1)


def full_span(buf: Buffer) -> np.ndarray:
    if buf.size is None:
        raise ValueError(f"buffer {buf.name!r} has no size; cannot span it fully")
    return spans_of((0, buf.size))


# ---------------------------------------------------------------------------
# Span-discipline audit (the legacy batch span checks)
# ---------------------------------------------------------------------------

def _audit_span_policy(
    report: AuditReport,
    buf: Buffer,
    owned: list[tuple[int, int, str]],
) -> None:
    """Audit one buffer's write spans against its :class:`SpanPolicy`.

    ``owned`` is ``[(lo, hi, owner label), ...]``.  The rule order and
    the sorted-adjacent semantics mirror the legacy analyzer verbatim so
    verdicts are bit-identical on its domain (the migration property
    test holds both implementations to this).
    """
    pol = buf.policy
    assert pol is not None
    spans = sorted((lo, hi) for lo, hi, _ in owned)
    size = buf.size

    if pol.width is not None:
        code, check = pol.width
        bad_width = [(lo, hi) for lo, hi in spans if hi - lo <= 0]
        if bad_width:
            report.add(
                code,
                f"{buf.name}: {pol.noun}(s) {_fmt_spans(bad_width)} have "
                "non-positive width — the owner would receive an empty or "
                "aliasing slice",
            )
            report.failed(check)
        else:
            report.passed(check)

    if pol.overlap is not None:
        code, check = pol.overlap
        overlaps = [
            (spans[i], spans[i + 1])
            for i in range(len(spans) - 1)
            if spans[i + 1][0] < spans[i][1]
        ]
        if overlaps:
            pairs = [f"{a}∩{b}" for a, b in overlaps[:_MAX_LISTED]]
            report.add(
                code,
                f"{buf.name}: overlapping {pol.noun}s {', '.join(pairs)} — "
                f"two owners would write the same {buf.unit} concurrently",
            )
            report.failed(check)
        else:
            report.passed(check)

    if pol.bounds is not None and size is not None:
        code, check = pol.bounds
        oob = [(lo, hi) for lo, hi in spans if lo < 0 or hi > size]
        if oob:
            report.add(
                code,
                f"{buf.name}: {pol.noun}(s) {_fmt_spans(oob)} fall outside "
                f"the {size}-{buf.unit} buffer",
            )
            report.failed(check)
        else:
            report.passed(check)

    if pol.gap is not None and size is not None:
        code, check = pol.gap
        gaps = [
            (spans[i][1], spans[i + 1][0])
            for i in range(len(spans) - 1)
            if spans[i + 1][0] > spans[i][1]
        ]
        if spans and spans[0][0] > 0:
            gaps.insert(0, (0, spans[0][0]))
        if not pol.allow_trailing and spans and spans[-1][1] < size:
            gaps.append((spans[-1][1], size))
        if gaps:
            report.add(
                code,
                f"{buf.name}: {buf.unit} ranges {_fmt_spans(gaps)} are owned "
                "by no writer — they would be served stale or feed recycled "
                "garbage downstream",
            )
            report.failed(check)
        else:
            report.passed(check)


# ---------------------------------------------------------------------------
# Policy preset (the batch dialect)
# ---------------------------------------------------------------------------

def batch_columns_policy() -> SpanPolicy:
    return SpanPolicy(
        overlap=("HZ-X001", "batch.disjoint"),
        bounds=("HZ-X002", "batch.bounds"),
        gap=("HZ-X003", "batch.contiguous"),
        width=("HZ-X004", "batch.widths"),
        allow_trailing=True,
        noun="member span",
    )


# ---------------------------------------------------------------------------
# Lowerings
# ---------------------------------------------------------------------------

def lower_batch_layout(layout, *, subject: str = "batch-layout") -> PlanIR:
    """Lower a stacked-operand :class:`BatchLayout` into the IR.

    One buffer (the stacked product, in columns) and one stage per
    member: the collector copies each request's operand into its column
    span, and the split step later hands the same span back — so each
    member must own its span exclusively.  Requesters are distinct lanes
    (their futures resolve independently), which is why ownership, not
    ordering, is the discipline.
    """
    ir = PlanIR(subject=subject)
    ir.add_buffer(
        Buffer(
            "stacked",
            size=int(layout.total_columns),
            unit="column",
            policy=batch_columns_policy(),
        )
    )
    for i, (off, width) in enumerate(layout.members):
        ir.add_stage(
            Stage(
                sid=f"member{i}",
                lane=f"requester{i}",
                writes=(Access("stacked", spans_of((int(off), int(off) + int(width)))),),
                label=f"member {i} columns [{off}, {off + width})",
            )
        )
    return ir


def lower_kernel_plan(
    plan,
    *,
    threaded: bool = True,
    fused: tuple = (),
    subject: str | None = None,
) -> PlanIR:
    """Lower a :class:`KernelPlan`'s execution into the IR.

    The multiply stage writes the whole product; the update stage is the
    interesting part.  Threaded replay puts each branch (§V-B) on its
    own lane, barriered after the multiply and joined before the
    finalise stage — branch independence then *is* the absence of
    HB-unordered conflicting accesses, which subsumes the ad-hoc
    ``shares_memory``-style aliasing arguments.  Sequential level
    schedules lower to one lane in level order (race-free by
    construction; intra-level fancy-index hazards stay with
    ``analyze_level_schedule``, which reasons below span granularity).

    ``fused`` takes :class:`FusedStage` descriptors (ROADMAP item 5) and
    folds their accesses into the chosen branch's stage, so an unsafe
    fusion — touching rows another lane owns — is rejected before the
    fusion pass exists.
    """
    n_rows = int(plan.shape[0])
    name = subject or f"plan-ir({plan.update})"
    ir = PlanIR(subject=name)
    ir.add_buffer(Buffer("c", size=n_rows, unit="row"))
    ir.add_buffer(Buffer("b", size=n_rows, unit="row"))
    ir.add_stage(
        Stage(
            sid="multiply",
            lane="main",
            reads=(Access("b", spans_of((0, n_rows)), mode="r"),),
            writes=(Access("c", spans_of((0, n_rows))),),
            label="delta-set product (writes every compressed row)",
        )
    )
    parent = np.asarray(plan._parent, dtype=np.int64).ravel()
    branch_sids: list[str] = []
    if threaded:
        folded: dict[int, list[FusedStage]] = {}
        for f in fused:
            if f.branch is not None:
                folded.setdefault(int(f.branch), []).append(f)
        for i, branch in enumerate(plan.branches):
            rows = np.asarray(branch, dtype=np.int64).ravel()
            in_range = rows[(rows >= 0) & (rows < n_rows)]
            parents = parent[in_range]
            parents = parents[(parents != VIRTUAL) & (parents >= 0)]
            reads = [Access("c", rows_to_spans(parents), mode="r")]
            writes = [Access("c", rows_to_spans(in_range))]
            for f in folded.get(i, ()):
                frows = in_range if f.rows is None else np.asarray(f.rows)
                fspans = rows_to_spans(frows)
                reads.append(Access("c", fspans, mode="r", label=f"fused:{f.kind}"))
                writes.append(Access("c", fspans, label=f"fused:{f.kind}"))
            sid = f"branch{i}"
            branch_sids.append(sid)
            ir.add_stage(
                Stage(
                    sid=sid,
                    lane=f"worker{i}",
                    reads=tuple(reads),
                    writes=tuple(writes),
                    after=("multiply",),
                    label=f"replay branch {i} ({rows.size} rows)",
                )
            )
    else:
        for li, (children, parents) in enumerate(plan.level_pairs):
            ps = np.asarray(parents, dtype=np.int64).ravel()
            ps = ps[(ps != VIRTUAL) & (ps >= 0)]
            sid = f"level{li}"
            branch_sids.append(sid)
            ir.add_stage(
                Stage(
                    sid=sid,
                    lane="main",
                    reads=(Access("c", rows_to_spans(ps), mode="r"),),
                    writes=(Access("c", rows_to_spans(children)),),
                    label=f"level {li} vectorised scatter",
                )
            )
    post = [f for f in fused if f.branch is None]
    post_access = tuple(
        Access("c", spans_of((0, n_rows)), label=f"fused:{f.kind}") for f in post
    )
    ir.add_stage(
        Stage(
            sid="finalize",
            lane="main",
            reads=(Access("c", spans_of((0, n_rows)), mode="r"),),
            writes=post_access,
            after=tuple(branch_sids) or ("multiply",),
            label="join + epilogue (row scaling / output hand-off)",
        )
    )
    return ir


def lower_stream_swap(*, subject: str = "stream-swap", payload_units: int = 4) -> PlanIR:
    """Lower the streaming snapshot/rebuild/publish protocol into the IR.

    Models the invariants the streaming layer relies on: generation
    payloads are fully written before the manifest commit marks them
    durable (commit-LAST), the published slot is a single atomic reference, and
    serving threads only read payload bytes *after* the publish made the
    commit visible to them.  Mutating any of these orderings produces
    HZ-R403 (torn commit) or HZ-R402 (read of an unpublished build).
    """
    ir = PlanIR(subject=subject)
    ir.add_buffer(Buffer("generation", size=payload_units, unit="payload", space="disk"))
    ir.add_buffer(Buffer("manifest", size=1, unit="marker", space="disk"))
    ir.add_buffer(Buffer("slot", size=1, unit="ref", atomic=True))
    ir.add_stage(
        Stage(
            sid="snapshot",
            lane="rebuilder",
            reads=(Access("slot", spans_of((0, 1)), mode="r"),),
            label="snapshot the live adjacency under the mutation lock",
        )
    )
    ir.add_stage(
        Stage(
            sid="build",
            lane="rebuilder",
            writes=(Access("generation", spans_of((0, payload_units))),),
            label="rebuild CBM payloads off-thread",
        )
    )
    ir.add_stage(
        Stage(
            sid="commit",
            lane="rebuilder",
            writes=(Access("manifest", spans_of((0, 1))),),
            role="commit",
            covers=("build",),
            label="manifest rename marks the generation durable",
        )
    )
    ir.add_stage(
        Stage(
            sid="publish",
            lane="rebuilder",
            writes=(Access("slot", spans_of((0, 1))),),
            label="atomic slot swap to the rebuilt snapshot",
        )
    )
    ir.add_stage(
        Stage(
            sid="serve",
            lane="server",
            reads=(
                Access("slot", spans_of((0, 1)), mode="r"),
                Access("generation", spans_of((0, payload_units)), mode="r"),
            ),
            after=("publish",),
            label="request thread reads through the published slot",
        )
    )
    return ir


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

def analyze_ir(ir: PlanIR, *, races: bool = True) -> AuditReport:
    """Prove a lowered plan safe: span discipline + happens-before.

    Runs the per-buffer :class:`SpanPolicy` audits (the legacy span
    verdicts) and, with ``races=True``, the happens-before analysis from
    :mod:`repro.staticcheck.hb`: HZ-R401/R402 for conflicting accesses
    no HB path orders, HZ-R403 for commit stages that do not cover their
    payload writes.
    """
    from repro.staticcheck import hb

    report = AuditReport(subject=ir.subject)
    per_buffer: dict[str, list[tuple[int, int, str]]] = {}
    for stage in ir.stages:
        for acc in stage.writes:
            if acc.buffer not in ir.buffers:
                raise KeyError(f"stage {stage.sid!r} writes unknown buffer {acc.buffer!r}")
            for lo, hi in acc.spans:
                per_buffer.setdefault(acc.buffer, []).append(
                    (int(lo), int(hi), acc.label or stage.sid)
                )
        for acc in stage.reads:
            if acc.buffer not in ir.buffers:
                raise KeyError(f"stage {stage.sid!r} reads unknown buffer {acc.buffer!r}")
    for name, buf in ir.buffers.items():
        if buf.policy is not None:
            _audit_span_policy(report, buf, per_buffer.get(name, []))
    if races:
        report.merge(hb.analyze_hb(ir))
    return report
