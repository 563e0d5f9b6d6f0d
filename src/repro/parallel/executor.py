"""Thread-pool replay of the CBM update stage over tree branches (Section V-B).

The paper parallelises the update stage by handing complete branches of
the compression tree — lists of edges in topological order — to worker
threads from a shared queue (dynamic scheduling).  Branches are
data-independent, so no synchronisation is needed beyond the queue.

No served product runs this replay: every serving tier multiplies through
``KernelPlan.execute``, whose compiled walk (``runtime/walk.c``) applies
the whole tree on one thread.  The replay here adds one edge at a time
from Python, and products routed through it measured 1.5–34× slower
than the same products on the compiled walk, on every registry graph
(ROADMAP item 3).  It stays as the benchmark probe of the paper's
policy (the e2e ``parallel.thread_speedup`` metric);
:mod:`repro.parallel.simulate` models 16-core behaviour.

A failed worker never leaves a half-updated buffer behind: the first
worker exception sets a shared cancel event (healthy workers stop taking
branches at their next queue poll), ``c`` is NaN-poisoned in place, and
:class:`~repro.errors.ParallelError` is raised.
"""

from __future__ import annotations

import queue
import threading

import numpy as np

from repro.core.tree import CompressionTree
from repro.errors import ParallelError
from repro.utils.validation import check_positive


def _invalidate(c: np.ndarray) -> None:
    """NaN-poison ``c`` in place so a half-updated buffer reads as garbage."""
    if np.issubdtype(c.dtype, np.floating) or np.issubdtype(c.dtype, np.complexfloating):
        c.fill(np.nan)
    else:  # integer buffers cannot hold NaN; zeroing still destroys partial sums
        c.fill(0)


class ThreadedUpdateExecutor:
    """Replays the update stage over tree branches with a worker pool.

    ``threads`` is the worker count (the paper uses 16, one per physical
    core).  The effective pool is capped at ``min(threads,
    len(branches))``: the queue receives exactly one poison pill per
    *started* worker, so a pool wider than the branch list neither leaks
    pills nor spawns idle threads.
    """

    def __init__(self, threads: int):
        check_positive(threads, "threads")
        self.threads = threads

    def run_update(
        self,
        tree: CompressionTree,
        c: np.ndarray,
        diag: np.ndarray | None = None,
        *,
        branches: list[np.ndarray] | None = None,
    ) -> None:
        """Apply the update stage to ``c`` in place, branch-parallel.

        ``diag`` enables the DAD row scaling, applied once after the
        replay (deferred mode).  ``branches`` lets callers reuse a
        precomputed branch decomposition (e.g. from a
        :class:`~repro.runtime.plan.KernelPlan`) instead of re-deriving
        it from the tree per call.

        On a worker failure ``c`` is NaN-poisoned in place and
        :class:`~repro.errors.ParallelError` is raised.  All per-run
        state (queue, cancel event) is local to the call.
        """
        if branches is None:
            branches = tree.branches()
        if not branches:
            return
        work: "queue.SimpleQueue[np.ndarray | None]" = queue.SimpleQueue()
        for b in branches:
            work.put(b)
        n_workers = min(self.threads, len(branches))
        for _ in range(n_workers):
            work.put(None)

        parent = tree.parent
        cancel = threading.Event()
        errors: list[BaseException] = []

        def worker() -> None:
            try:
                while True:
                    item = work.get()
                    if item is None or cancel.is_set():
                        return
                    self._replay_branch(item, parent, c)
            except BaseException as exc:  # noqa: BLE001 - propagated below
                errors.append(exc)
                cancel.set()  # prompt cancellation: stop the other workers

        threads = [threading.Thread(target=worker) for _ in range(n_workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            _invalidate(c)
            raise ParallelError(
                f"update-stage worker failed: {errors[0]!r}; output buffer invalidated"
            ) from errors[0]
        if diag is not None:
            c *= np.asarray(diag)[:, None]

    def _replay_branch(self, branch: np.ndarray, parent: np.ndarray, c: np.ndarray) -> None:
        """Topological replay of one branch, in place on ``c``:
        ``c[x] += c[parent[x]]`` per edge.

        The branch array is already in topological order (tree.branches()
        guarantees it); the first entry is the branch root (no update).
        Each iteration is one row axpy — exactly the paper's inner loop.
        """
        for x in branch[1:]:
            c[x] += c[parent[x]]
