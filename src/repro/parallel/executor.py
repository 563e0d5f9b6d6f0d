"""Real thread-pool execution of the CBM update stage (Section V-B).

The multiplication stage (sparse-dense product) is delegated to the
compiled backend, as in the paper (MKL parallelises it internally).  The
update stage is parallelised here the way the paper does it: each worker
replays complete branches of the compression tree — lists of edges in
topological order — taken from a shared queue (dynamic scheduling).
Branches are data-independent, so no synchronisation is needed beyond the
queue.

NumPy releases the GIL inside the vectorised row operations, so on a
multi-core host the workers genuinely overlap; the reproduction's
2-core machine cannot show 16-way scaling, so the
:mod:`repro.parallel.simulate` model predicts the 16-core behaviour.

Failure semantics (the *guarded execution* contract)
----------------------------------------------------
The update stage mutates the output buffer ``c`` **in place**, so a
worker failure mid-run would otherwise leave ``c`` half-updated — a
silently wrong result.  :meth:`ThreadedUpdateExecutor.run_update`
therefore guarantees *restore-or-invalidate* semantics:

* the first worker exception (or watchdog trip) sets a shared cancel
  event; healthy workers stop taking branches at their next queue poll
  (prompt cancellation — they do not keep writing into ``c``);
* before the error propagates, ``c`` is either **restored** to its
  pre-call contents (``on_failure="restore"``, costs one buffer copy up
  front) or **invalidated** by NaN-poisoning every element
  (``on_failure="invalidate"``, the default — a poisoned buffer can
  never be mistaken for a valid product);
* the call then raises :class:`~repro.errors.ParallelError` (worker
  exception) or :class:`~repro.errors.WatchdogTimeout` (a branch
  exceeded ``branch_timeout`` seconds).

A stalled worker thread cannot be killed from Python; after a watchdog
trip it is abandoned as a daemon thread, which is why callers needing a
correct result afterwards (see ``repro.reliability.GuardedKernel``) must
recompute into a **fresh** buffer rather than reuse the invalidated one.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import TYPE_CHECKING

import numpy as np

from repro.core.cbm import CBMMatrix, Variant
from repro.core.tree import CompressionTree
from repro.errors import ParallelError, WatchdogTimeout
from repro.sparse.ops import Engine
from repro.utils.validation import check_dense, check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.plan import KernelPlan

_WATCHDOG_POLL_S = 0.02


def _invalidate(c: np.ndarray) -> None:
    """NaN-poison ``c`` in place so a half-updated buffer reads as garbage."""
    if np.issubdtype(c.dtype, np.floating) or np.issubdtype(c.dtype, np.complexfloating):
        c.fill(np.nan)
    else:  # integer buffers cannot hold NaN; zeroing still destroys partial sums
        c.fill(0)


class ThreadedUpdateExecutor:
    """Replays the update stage over tree branches with a worker pool.

    Parameters
    ----------
    threads:
        Worker count (the paper uses 16, one per physical core).  The
        effective pool is capped at ``min(threads, len(branches))`` — the
        queue receives exactly one poison pill per *started* worker, so a
        pool wider than the branch list neither leaks pills nor spawns
        idle threads.
    branch_timeout:
        Optional watchdog limit in seconds for a single branch replay.
        When a worker holds one branch longer than this, the run is
        cancelled and :class:`~repro.errors.WatchdogTimeout` is raised
        (the stalled thread itself is abandoned as a daemon).
    on_failure:
        ``"invalidate"`` (default) NaN-poisons the output buffer before
        raising; ``"restore"`` snapshots the buffer up front and copies
        it back on failure.  Either way a failed :meth:`run_update`
        never returns — and never leaves — a half-updated ``c``.
    """

    def __init__(
        self,
        threads: int,
        *,
        branch_timeout: float | None = None,
        on_failure: str = "invalidate",
    ):
        check_positive(threads, "threads")
        if branch_timeout is not None:
            check_positive(branch_timeout, "branch_timeout")
        if on_failure not in ("invalidate", "restore"):
            raise ValueError(f"unknown on_failure mode {on_failure!r}")
        self.threads = threads
        self.branch_timeout = branch_timeout
        self.on_failure = on_failure

    # ------------------------------------------------------------------
    def run_update(
        self,
        tree: CompressionTree,
        c: np.ndarray,
        diag: np.ndarray | None = None,
        *,
        branches: list[np.ndarray] | None = None,
        deadline: float | None = None,
    ) -> None:
        """Apply the update stage to ``c`` in place, branch-parallel.

        ``diag`` enables the DAD row scaling (deferred mode: scaling is
        fused into the branch replay's final pass per row batch).
        ``branches`` lets callers reuse a precomputed branch decomposition
        (e.g. from a :class:`~repro.runtime.plan.KernelPlan`) instead of
        re-deriving it from the tree per call.  ``deadline`` is an
        absolute :func:`time.monotonic` instant: once it passes, the whole
        run is cancelled the same way a branch stall is — ``branch_timeout``
        bounds one branch, ``deadline`` bounds the request (the serving
        layer propagates each request's remaining budget here).

        On any worker failure or watchdog trip, ``c`` is restored or
        invalidated per ``on_failure`` (see the module docstring) and a
        :class:`~repro.errors.ParallelError` /
        :class:`~repro.errors.WatchdogTimeout` is raised — the buffer is
        never left half-updated.

        One executor instance may run several ``run_update`` calls
        concurrently (the serving layer shares one per adjacency): all
        per-run state — queue, cancel event, worker slots — is local to
        the call.
        """
        if branches is None:
            branches = tree.branches()
        if not branches:
            return
        snapshot = c.copy() if self.on_failure == "restore" else None
        work: "queue.SimpleQueue[np.ndarray | None]" = queue.SimpleQueue()
        for b in branches:
            work.put(b)
        errors: list[BaseException] = []
        # One poison pill per started worker: the pool is capped by the
        # branch count, so threads > len(branches) neither over-fills the
        # queue nor spawns workers that would block on an empty queue.
        n_workers = min(self.threads, len(branches))
        for _ in range(n_workers):
            work.put(None)

        parent = tree.parent
        cancel = threading.Event()
        # busy_since[i] is the monotonic time worker i started its current
        # branch, or None while idle; the watchdog reads it without a lock
        # (a torn read at worst delays the trip by one poll interval).
        busy_since: list[float | None] = [None] * n_workers

        def worker(slot: int) -> None:
            try:
                while True:
                    item = work.get()
                    if item is None or cancel.is_set():
                        return
                    busy_since[slot] = time.monotonic()
                    try:
                        self._replay_branch(item, parent, c, cancel)
                    finally:
                        busy_since[slot] = None
            except BaseException as exc:  # noqa: BLE001 - propagated below
                errors.append(exc)
                cancel.set()  # prompt cancellation: stop the other workers

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(n_workers)
        ]
        for t in threads:
            t.start()
        tripped = self._join_with_watchdog(threads, busy_since, cancel, deadline)
        if tripped or errors:
            if snapshot is not None:
                c[...] = snapshot
            else:
                _invalidate(c)
            disposition = "restored" if snapshot is not None else "invalidated"
            if tripped == "deadline":
                raise WatchdogTimeout(
                    "update stage cancelled: the request deadline passed "
                    f"mid-run; output buffer {disposition}"
                )
            if tripped == "stall":
                raise WatchdogTimeout(
                    f"update-stage worker exceeded branch_timeout="
                    f"{self.branch_timeout}s; output buffer {disposition}"
                )
            raise ParallelError(
                f"update-stage worker failed: {errors[0]!r}; output buffer "
                f"{disposition}"
            ) from errors[0]
        if diag is not None:
            c *= np.asarray(diag)[:, None]

    def _join_with_watchdog(
        self,
        threads: list[threading.Thread],
        busy_since: list[float | None],
        cancel: threading.Event,
        deadline: float | None = None,
    ) -> str | None:
        """Join workers; return ``"stall"`` / ``"deadline"`` on a trip."""
        if self.branch_timeout is None and deadline is None:
            for t in threads:
                t.join()
            return None

        def cancel_and_drain() -> None:
            cancel.set()
            # Give healthy workers (all of whom poll the queue between
            # branches) a moment to drain and exit; a genuinely stalled
            # daemon thread is abandoned.
            drain_by = time.monotonic() + 10 * _WATCHDOG_POLL_S
            for t in threads:
                t.join(max(0.0, drain_by - time.monotonic()))

        while True:
            alive = [t for t in threads if t.is_alive()]
            if not alive:
                return None
            now = time.monotonic()
            if deadline is not None and now > deadline:
                cancel_and_drain()
                return "deadline"
            if self.branch_timeout is not None:
                for since in busy_since:
                    if since is not None and now - since > self.branch_timeout:
                        cancel_and_drain()
                        return "stall"
            alive[0].join(_WATCHDOG_POLL_S)

    def _replay_branch(
        self,
        branch: np.ndarray,
        parent: np.ndarray,
        c: np.ndarray,
        cancel: threading.Event | None = None,
    ) -> None:
        """Topological replay of one branch, in place on ``c``:
        ``c[x] += c[parent[x]]`` per edge.

        The branch array is already in topological order (tree.branches()
        guarantees it); the first entry is the branch root (no update).
        Each iteration is one row axpy — exactly the paper's inner loop —
        and NumPy releases the GIL inside it, so branches overlap across
        workers on multi-core hosts.  ``cancel`` is this run's cancel
        event (fault-injection subclasses poll it while stalling); it is
        passed per call because one executor may serve concurrent runs.
        """
        for x in branch[1:]:
            c[x] += c[parent[x]]

    # ------------------------------------------------------------------


def parallel_matmul(
    cbm: CBMMatrix,
    b: np.ndarray,
    *,
    threads: int,
    engine: Engine | None = None,
    plan: "KernelPlan | None" = None,
    branch_timeout: float | None = None,
    deadline: float | None = None,
    on_failure: str = "invalidate",
    executor_factory=None,
) -> np.ndarray:
    """Full CBM SpMM with the branch-parallel update stage.

    Multiplication stage runs on the compiled backend (internally
    parallel, as MKL is in the paper); the update stage runs on a
    :class:`ThreadedUpdateExecutor`.  The branch decomposition and the
    scaled operand come from the matrix's cached
    :class:`~repro.runtime.plan.KernelPlan` (pass ``plan`` to share an
    explicit one), so repeated calls pay no per-call schedule cost.

    ``branch_timeout`` / ``deadline`` / ``on_failure`` are forwarded to
    the executor's watchdog (see :class:`ThreadedUpdateExecutor`);
    ``executor_factory`` substitutes the executor class itself (the chaos
    harness injects failing/stalling executors through it).
    """
    b = check_dense(b, name="b", ndim=2)
    if plan is None:
        plan = cbm.plan()
    c = plan.multiply(b, engine=engine)
    factory = executor_factory if executor_factory is not None else ThreadedUpdateExecutor
    executor = factory(threads, branch_timeout=branch_timeout, on_failure=on_failure)
    diag = cbm.diag if cbm.variant is Variant.DAD else None
    executor.run_update(cbm.tree, c, diag, branches=plan.branches, deadline=deadline)
    return c
