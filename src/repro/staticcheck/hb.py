"""Happens-before race analysis over the unified plan IR.

Two accesses *conflict* when they touch overlapping spans of the same
buffer and at least one writes.  A plan is race-free when every
conflicting pair is ordered by the happens-before relation the plan
itself establishes; this module builds that relation from the
:class:`~repro.staticcheck.ir.PlanIR` and reports every unordered
conflicting pair.  The HB edges are exactly the synchronisation the
runtime really has:

* **program order** — stages sharing a lane (one thread's replay loop, a
  rebuilder's build-then-commit sequence) run in list order;
* **explicit edges** — ``Stage.after`` encodes barriers (branch replay
  starts after the multiply), joins (finalise waits on every branch via
  executor dispatch/``future.result``), and commit visibility (a reader
  ordered after the publish that made the bytes reachable).

Findings:

``HZ-R401``
    Conflicting **writes** unordered by HB — two lanes would scribble
    the same rows/columns/bytes concurrently.  The cross-thread
    generalisation of the branch ``shares_memory`` check.
``HZ-R402``
    A **read** conflicting with a write, unordered by HB — one lane
    consumes bytes another lane is mid-write (torn read), e.g. a serving
    thread reading a generation no publish has ordered it after.
``HZ-R403``
    A ``role="commit"`` stage that is *not* happens-after a payload
    stage it covers — the commit-marker-first torn write: a manifest
    renames before its payloads are on disk, and a crash (or concurrent reader)
    observes a committed-but-garbage artifact.

Buffers marked ``atomic`` (single-reference slots swapped in one
assignment) are exempt from R401/R402; buffers governed by a span
ownership policy report overlap under their own code instead (the
layout finding already *is* the race).
"""

from __future__ import annotations

import numpy as np

from repro.staticcheck.report import AuditReport

#: Cap on reported unordered pairs per buffer: a badly broken plan
#: produces a representative sample, not a finding per row.
_MAX_PAIRS = 8


class HBGraph:
    """Reachability over stages: program order within lanes + ``after``."""

    def __init__(self, stages):
        self.stages = list(stages)
        self.index = {s.sid: i for i, s in enumerate(self.stages)}
        if len(self.index) != len(self.stages):
            raise ValueError("duplicate stage sids")
        self.succ: list[list[int]] = [[] for _ in self.stages]
        last_in_lane: dict[str, int] = {}
        for i, s in enumerate(self.stages):
            prev = last_in_lane.get(s.lane)
            if prev is not None:
                self.succ[prev].append(i)
            last_in_lane[s.lane] = i
            for pred in s.after:
                if pred not in self.index:
                    raise KeyError(f"stage {s.sid!r} is after unknown stage {pred!r}")
                self.succ[self.index[pred]].append(i)
        self._desc: dict[int, frozenset[int]] = {}

    def _descendants(self, i: int) -> frozenset[int]:
        cached = self._desc.get(i)
        if cached is not None:
            return cached
        seen: set[int] = set()
        frontier = list(self.succ[i])
        while frontier:
            j = frontier.pop()
            if j in seen:
                continue
            seen.add(j)
            frontier.extend(self.succ[j])
        out = frozenset(seen)
        self._desc[i] = out
        return out

    def reaches(self, a: str, b: str) -> bool:
        """True when stage ``a`` happens-before stage ``b``."""
        return self.index[b] in self._descendants(self.index[a])

    def ordered(self, a: str, b: str) -> bool:
        return a == b or self.reaches(a, b) or self.reaches(b, a)


def _conflicting_pairs(events):
    """Overlapping-access stage pairs from ``(lo, hi, stage, is_write)``.

    Line-sweep over span starts: an event conflicts with every *active*
    event (span still open) of a different stage when either writes.
    Returns at most a bounded sample of distinct stage pairs.
    """
    events = sorted(events, key=lambda e: (e[0], e[1]))
    active: list[tuple[int, int, bool]] = []  # (hi, stage, is_write)
    pairs: dict[tuple[int, int], bool] = {}  # (s1, s2) -> any write-write
    for lo, hi, stage, is_write in events:
        if hi <= lo:
            continue
        active = [a for a in active if a[0] > lo]
        for ahi, astage, awrite in active:
            if astage == stage or not (is_write or awrite):
                continue
            key = (min(stage, astage), max(stage, astage))
            pairs[key] = pairs.get(key, False) or (is_write and awrite)
            if len(pairs) >= 4 * _MAX_PAIRS:
                return pairs
        active.append((hi, stage, is_write))
    return pairs


def analyze_hb(ir, *, subject: str | None = None) -> AuditReport:
    """Race + commit-order analysis of a lowered plan (HZ-R4xx)."""
    report = AuditReport(subject=subject or ir.subject)
    graph = HBGraph(ir.stages)

    skip = {
        name
        for name, buf in ir.buffers.items()
        if buf.atomic or (buf.policy is not None and buf.policy.overlap is not None)
    }
    races = 0
    for name, buf in ir.buffers.items():
        if name in skip:
            continue
        events = []
        for si, stage in enumerate(ir.stages):
            for acc in stage.writes:
                if acc.buffer != name:
                    continue
                for lo, hi in np.asarray(acc.spans):
                    events.append((int(lo), int(hi), si, True))
            for acc in stage.reads:
                if acc.buffer != name:
                    continue
                for lo, hi in np.asarray(acc.spans):
                    events.append((int(lo), int(hi), si, False))
        reported = 0
        for (i, j), write_write in sorted(_conflicting_pairs(events).items()):
            a, b = ir.stages[i], ir.stages[j]
            if graph.ordered(a.sid, b.sid):
                continue
            races += 1
            reported += 1
            if reported > _MAX_PAIRS:
                break
            if write_write:
                report.add(
                    "HZ-R401",
                    f"unordered conflicting writes to `{name}`: stages "
                    f"`{a.sid}` (lane {a.lane}) and `{b.sid}` (lane {b.lane}) "
                    "write overlapping spans with no happens-before path — "
                    "two lanes would scribble the same bytes concurrently",
                )
            else:
                report.add(
                    "HZ-R402",
                    f"unordered read/write on `{name}`: stages `{a.sid}` "
                    f"(lane {a.lane}) and `{b.sid}` (lane {b.lane}) touch "
                    "overlapping spans with no happens-before path — one "
                    "lane reads bytes another is still writing (torn read)",
                )
    if races:
        report.failed("hb.races")
    else:
        report.passed("hb.races")

    torn = 0
    for stage in ir.stages:
        if stage.role != "commit":
            continue
        for covered in stage.covers:
            if not graph.reaches(covered, stage.sid):
                torn += 1
                report.add(
                    "HZ-R403",
                    f"commit-marker-first torn write: commit stage "
                    f"`{stage.sid}` publishes `{covered}` but `{covered}` is "
                    "not happens-before the commit — a reader (or a crash) "
                    "can observe the commit marker with garbage payload "
                    "bytes behind it",
                )
    if torn:
        report.failed("hb.commits")
    else:
        report.passed("hb.commits")
    return report
