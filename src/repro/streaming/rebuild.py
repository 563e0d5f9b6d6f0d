"""Off-path recompression and zero-downtime publication.

The hot path (serving + patching) never recompresses: a
:class:`BackgroundRebuilder` watches the :class:`~repro.streaming.DriftTracker`
and, when the drift/staleness trigger fires, runs the generation-swap
state machine off-path:

1. **snapshot** — grab the current (version, cbm, source) pair;
2. **build**    — fresh :func:`~repro.core.builder.build_cbm` (optionally
   rebalanced via :func:`~repro.core.rebalance.cut_depth` /
   :func:`~repro.core.rebalance.split_branches`) from the snapshot CSR;
3. **commit**   — durably persist the fresh artifact as a new generation
   of a :class:`~repro.recovery.GenerationStore` (atomic payloads,
   manifest-last commit marker — a crash anywhere leaves either the old
   or the new generation, never a torn one);
4. **rebase**   — replay batches that landed during the build onto the
   fresh matrix (:meth:`~repro.streaming.MutableAdjacency.rebase`), so
   the published pair is exact for the *current* graph;
5. **publish**  — hot-swap the serving slot
   (:meth:`~repro.serving.InferenceService.swap_slot`): in-flight
   requests finish on the old slot, in-flight batches drain or requeue
   across the generation boundary, and the old slot's generation pin is
   released so retention pruning may reclaim it.

Crash-safety of step 3 is exactly PR 5's protocol (the crash harness
kills rebuild workers at every sync point); step 5 is exactly PR 6's
swap contract.  This module only composes them.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.core.builder import build_cbm
from repro.core.io import save_cbm
from repro.core.rebalance import cut_depth, split_branches
from repro.errors import RecoveryError, ReproError
from repro.serving.service import AdjacencySlot, InferenceService
from repro.streaming.mutable import MutableAdjacency

__all__ = ["BackgroundRebuilder", "RebuildReport", "publish_snapshot"]


def publish_snapshot(
    mutable: MutableAdjacency,
    service: InferenceService,
    *,
    warm_width: int | None = None,
) -> tuple[int, int, AdjacencySlot]:
    """Swap the service to the mutable's current snapshot.

    Returns ``(graph_version, serving_generation, slot)``.  The slot
    carries the tracker (for :meth:`InferenceService.health`) and the
    graph version it represents, so soaks can map serving generations
    back to reference adjacencies.
    """
    version, cbm, source = mutable.snapshot()
    slot = AdjacencySlot(cbm, source, tracker=mutable.tracker)
    slot.graph_version = version
    service.swap_slot(slot, warm_width=warm_width)
    return version, slot.generation, slot


@dataclass(frozen=True)
class RebuildReport:
    """Timings and outcome of one background rebuild cycle."""

    built_version: int
    published_version: int
    replayed: int
    store_generation: int
    build_seconds: float
    commit_seconds: float
    publish_seconds: float
    total_seconds: float
    published: bool


class BackgroundRebuilder:
    """Recompress a :class:`MutableAdjacency` off the hot path.

    Synchronous use: call :meth:`rebuild_once`.  Threaded use: call
    :meth:`start`; the loop polls the tracker's
    :meth:`~repro.streaming.DriftTracker.should_rebuild` (or an explicit
    :meth:`trigger`) and rebuilds until :meth:`stop`.

    Parameters
    ----------
    mutable / store:
        The live adjacency and the durable generation store.
    service:
        Optional serving target to hot-swap after each rebuild; without
        it the rebuilder only maintains the store.
    publisher:
        Optional override for the publish step — called as
        ``publisher(service, mutable)`` after the rebase and expected to
        swap the service itself (soaks use this to record generation →
        reference mappings atomically with the swap).
    max_depth / max_branch:
        Optional rebalance passes applied to each fresh build.
    """

    def __init__(
        self,
        mutable: MutableAdjacency,
        store,
        service: InferenceService | None = None,
        *,
        publisher=None,
        max_depth: int | None = None,
        max_branch: int | None = None,
        payload: str = "adjacency.npz",
        warm_width: int | None = None,
        poll_interval_s: float = 0.02,
    ):
        self.mutable = mutable
        self.store = store
        self.service = service
        self.publisher = publisher
        self.max_depth = max_depth
        self.max_branch = max_branch
        self.payload = payload
        self.warm_width = warm_width
        self.poll_interval_s = float(poll_interval_s)
        self.reports: list[RebuildReport] = []
        self.errors: list[Exception] = []
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def rebuild_once(self) -> RebuildReport:
        """One full snapshot → build → commit → rebase → publish cycle."""
        t0 = time.perf_counter()
        version, cbm, source = self.mutable.snapshot()
        fresh, _ = build_cbm(source, alpha=cbm.alpha)
        if self.max_depth is not None:
            fresh = cut_depth(fresh, self.max_depth)
        if self.max_branch is not None:
            fresh = split_branches(fresh, self.max_branch)
        t_build = time.perf_counter()
        with self.store.begin(
            meta={
                "kind": "cbm-archive",
                "streaming": True,
                "graph_version": version,
            }
        ) as txn:
            save_cbm(txn.path(self.payload, kind="cbm"), fresh)
            gen_index = txn.index
        t_commit = time.perf_counter()
        published_version, _, _, replayed = self.mutable.rebase(
            fresh, built_version=version, source=source
        )
        published = False
        if self.publisher is not None:
            self.publisher(self.service, self.mutable)
            published = True
        elif self.service is not None:
            publish_snapshot(self.mutable, self.service, warm_width=self.warm_width)
            published = True
        t_end = time.perf_counter()
        report = RebuildReport(
            built_version=version,
            published_version=published_version,
            replayed=replayed,
            store_generation=gen_index,
            build_seconds=t_build - t0,
            commit_seconds=t_commit - t_build,
            publish_seconds=t_end - t_commit,
            total_seconds=t_end - t0,
            published=published,
        )
        with self._lock:
            self.reports.append(report)
        return report

    # ------------------------------------------------------------------
    # Threaded operation
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Run the trigger-poll loop in a daemon thread."""
        if self._thread is not None:
            raise RecoveryError("rebuilder already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="cbm-rebuilder", daemon=True
        )
        self._thread.start()

    def trigger(self) -> None:
        """Request an immediate rebuild check (threaded mode)."""
        self._wake.set()

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the loop and join the thread."""
        self._stop.set()
        self._wake.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout)

    def _loop(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(self.poll_interval_s)
            self._wake.clear()
            if self._stop.is_set():
                break
            tracker = self.mutable.tracker
            if tracker is None:
                continue
            if not tracker.should_rebuild():
                continue
            try:
                self.rebuild_once()
            except (ReproError, OSError) as exc:
                # Keep the loop alive: a failed rebuild leaves the old
                # generation serving; the error is surfaced for the
                # operator instead of killing the maintenance thread.
                with self._lock:
                    self.errors.append(exc)
