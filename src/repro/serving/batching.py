"""Micro-batching stage: coalesce concurrent requests into one stacked SpMM.

The paper's CBM update stage costs nearly the same whether the dense
operand has 1 column or 64 — the level loop walks the same tree edges
and the multiplication stage streams the same sparse structure either
way.  Per-request forwards therefore leave the single biggest serving
throughput lever on the table: queue depth can be converted directly
into dense columns.  A :class:`BatchCollector` sits between the
service's admission queue and its executor and does exactly that:

* requests targeting the same :class:`~repro.serving.service.AdjacencySlot`
  — same adjacency **generation** and same **operator kind** (bare
  product vs GCN forward) — are coalesced into one stacked-feature
  operand ``[x₀ | x₁ | …]`` and served by a single stacked forward;
* batching is **work-conserving**: the compute worker asks for a batch
  only when it is free, blocks for the first request, then takes —
  without waiting — every compatible request already queued, up to
  :attr:`BatchConfig.max_columns` stacked columns.  Requests that
  arrive during a forward queue up and become the next batch, so
  batching happens whenever it can save work and a lone request never
  waits for company;
* the stacked result is split back per requester (column spans recorded
  in a :class:`BatchLayout`, auditable by
  :func:`repro.staticcheck.hazards.analyze_batch_layout`);
* 1-D vector requests ride along as width-1 columns and are squeezed
  back to 1-D on split.

Correctness contract: both the CSR kernels and the CBM multiply/update
stages are column-wise independent, so every member's slice of the
stacked product is **bitwise identical** to the product the member
would have received unbatched (the property suite asserts exactly
this).  Failure isolation is per-batch with per-request attribution:
a guard fallback or breaker transition applies to the whole batch
execution, while deadline expiry and input rejection are decided per
request, and retries re-enter the collector instead of bypassing it.

Generation purity: a batch binds its slot once, at open; members
collected later execute against that same slot, and a hot swap observed
mid-collection closes the batch early so no batch ever mixes adjacency
generations.
"""

from __future__ import annotations

import queue as _queue_mod
import threading
from collections import deque
from dataclasses import dataclass

from repro.serving.deadline import Deadline
from repro.utils.validation import check_positive

#: Operator kinds a batch key can carry.  Vector and matrix requests
#: share ``KIND_PRODUCT`` — a vector is a width-1 column of the same
#: stacked SpMM; the GCN forward is a different operator (its GEMM
#: stages are applied per member block) and never mixes with bare
#: products.
KIND_PRODUCT = "product"
KIND_GCN = "gcn"


def quantize_columns(columns: int, quantum: int) -> int:
    """Round a stacked-operand width up to a multiple of ``quantum``.

    Width quantisation is what makes the workspace pool effective for
    micro-batches: batch widths vary request-to-request, and an
    exact-shape pool would miss on almost every acquire.  Rounding to a
    small quantum (8 by default) collapses the key space; the padding
    columns are zero-filled and cost one short memset plus a few wasted
    kernel columns, bounded by ``quantum - 1``.
    """
    check_positive(quantum, "quantum")
    if columns <= 0:
        raise ValueError(f"columns must be positive, got {columns}")
    return ((columns + quantum - 1) // quantum) * quantum


@dataclass(frozen=True)
class BatchConfig:
    """Tuning knobs for the micro-batching stage.

    Parameters
    ----------
    max_columns:
        Cap on stacked operand columns per batch (the paper's update
        stage amortises essentially for free up to ~64 columns; beyond
        that the multiplication stage dominates again).  A single
        request wider than the cap still executes — solo.
    latency_budget_s:
        Accepted and validated, but has no effect: the collector never
        waits for co-travellers (a batch closes as soon as the queue is
        empty), so there is no budget to spend.
    quantum:
        Column quantum for workspace reuse (see :func:`quantize_columns`);
        ``1`` disables padding.
    """

    max_columns: int = 64
    latency_budget_s: float = 0.003
    quantum: int = 8

    def __post_init__(self) -> None:
        check_positive(self.max_columns, "max_columns")
        check_positive(self.latency_budget_s, "latency_budget_s")
        check_positive(self.quantum, "quantum")


@dataclass(frozen=True)
class BatchLayout:
    """Column map of one stacked operand: who owns which span.

    ``members`` holds one ``(offset, width)`` pair per request in batch
    order; ``total_columns`` is the (possibly quantised) stacked buffer
    width, so ``total_columns - offset_end`` trailing columns are
    zero-filled padding.  The layout is the static contract the split
    step relies on — :func:`repro.staticcheck.hazards.analyze_batch_layout`
    proves it free of cross-member aliasing (a Property 3 violation:
    one output span serving two requesters) before anything executes.
    """

    members: tuple[tuple[int, int], ...]
    total_columns: int
    n_rows: int = 0

    @classmethod
    def pack(cls, widths, *, quantum: int = 1, n_rows: int = 0) -> "BatchLayout":
        """Dense left-to-right packing of member widths (the only layout
        the collector ever produces)."""
        members = []
        offset = 0
        for w in widths:
            w = int(w)
            members.append((offset, w))
            offset += w
        total = quantize_columns(offset, quantum) if offset else 0
        return cls(members=tuple(members), total_columns=total, n_rows=int(n_rows))

    @property
    def used_columns(self) -> int:
        return sum(w for _, w in self.members)

    @property
    def padding_columns(self) -> int:
        return self.total_columns - max(
            (off + w for off, w in self.members), default=0
        )

    def spans(self) -> list[tuple[int, int]]:
        """``(lo, hi)`` half-open column spans, batch order."""
        return [(off, off + w) for off, w in self.members]


class Batch:
    """One batch bound to one adjacency slot: members + column layout."""

    __slots__ = ("slot", "generation", "kind", "members")

    def __init__(self, slot, kind: str):
        self.slot = slot
        self.generation = slot.generation
        self.kind = kind
        self.members: list = []

    @property
    def width(self) -> int:
        return sum(m.width for m in self.members)

    def tightest_expiry(self) -> float:
        return Deadline.tightest(m.deadline for m in self.members)

    def layout(self, *, quantum: int = 1) -> BatchLayout:
        return BatchLayout.pack(
            (m.width for m in self.members),
            quantum=quantum,
            n_rows=self.slot.cbm.shape[0],
        )


@dataclass
class CollectorStats:
    """Counters for batch formation (lock-free reads are fine: they are
    informational, bumped only by the collector's own lock holders)."""

    batches: int = 0
    width_closes: int = 0
    swap_closes: int = 0
    requeued: int = 0

    def snapshot(self) -> dict:
        return {
            "batches": self.batches,
            "width_closes": self.width_closes,
            "swap_closes": self.swap_closes,
            "requeued": self.requeued,
        }


class BatchCollector:
    """Forms :class:`Batch` objects from the service's admitted-request queue.

    The collector owns two sources: the bounded admission queue (shared
    with :meth:`InferenceService.submit`) and an unbounded ``pending``
    deque holding requests that re-entered after a transient batch
    failure (retries **re-enter the collector**, they never bypass it)
    or that could not join the batch being formed (kind mismatch, width
    overflow).  Pending requests are preferred over fresh queue items so
    retries are not starved by new arrivals.

    Thread safety: many workers may call :meth:`next_batch`
    concurrently; each call drains items into its own private batch, so
    two workers never share a member.  The queue's ``None`` shutdown
    pills are honoured exactly — a pill swallowed mid-collection is
    credited back and delivered on the worker's next call.
    """

    def __init__(self, source_queue, config: BatchConfig):
        self.config = config
        self._queue = source_queue
        self._pending: deque = deque()
        self._lock = threading.Lock()
        self._swallowed_pills = 0
        self.stats = CollectorStats()

    # ------------------------------------------------------------------
    def requeue(self, requests) -> None:
        """Re-enter requests (retries, batch-victims) into the collector."""
        with self._lock:
            for r in requests:
                self._pending.append(r)
                self.stats.requeued += 1

    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    def drain_pending(self) -> list:
        """Remove and return every pending request (service shutdown)."""
        with self._lock:
            items = list(self._pending)
            self._pending.clear()
        return items

    # ------------------------------------------------------------------
    def _pop_pending(self, batch: Batch | None, room: int):
        """First pending request compatible with ``batch`` (or any, when
        seeding with ``batch=None``); None when nothing fits."""
        with self._lock:
            for i, req in enumerate(self._pending):
                if batch is None or (req.kind == batch.kind and req.width <= room):
                    del self._pending[i]
                    return req
        return None

    def next_batch(self, current_slot) -> Batch | None:
        """Block for one request, then take what is already waiting.

        The first member comes from the pending deque if it holds
        anything, else from a blocking queue read.  Every further member
        is taken without waiting — pending first, then the queue — until
        the column cap is reached or nothing compatible is left, so the
        caller (the free compute worker) runs at once.

        ``current_slot`` is a zero-argument callable returning the
        service's live :class:`AdjacencySlot`; it is read once to bind
        the batch and re-read before each further member so a hot swap
        closes the open batch instead of mixing generations inside it.
        Returns ``None`` on shutdown.
        """
        with self._lock:
            if self._swallowed_pills:
                self._swallowed_pills -= 1
                return None
        seed = self._pop_pending(None, 0)
        if seed is None:
            seed = self._queue.get()
            if seed is None:
                return None
        cfg = self.config
        batch = Batch(current_slot(), seed.kind)
        batch.members.append(seed)
        while batch.width < cfg.max_columns:
            if current_slot().generation != batch.generation:
                self.stats.swap_closes += 1
                break
            room = cfg.max_columns - batch.width
            nxt = self._pop_pending(batch, room)
            if nxt is None:
                try:
                    nxt = self._queue.get_nowait()
                except _queue_mod.Empty:
                    break
                if nxt is None:
                    # Shutdown pill meant for some worker: credit it back
                    # and close this batch now.
                    with self._lock:
                        self._swallowed_pills += 1
                    break
                if nxt.kind != batch.kind or nxt.width > room:
                    with self._lock:
                        self._pending.append(nxt)
                    if nxt.kind == batch.kind:
                        self.stats.width_closes += 1
                        break
                    continue
            batch.members.append(nxt)
        else:
            self.stats.width_closes += 1
        self.stats.batches += 1
        return batch
