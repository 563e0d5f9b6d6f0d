"""Reusable dense workspace buffers for the plan/execute kernel runtime.

A :class:`WorkspacePool` hands out dense output/workspace arrays keyed by
``(shape, dtype)`` so that repeated executions of a :class:`~repro.runtime.plan.KernelPlan`
(the GCN serving hot path: the same ``Â`` against same-shaped feature
blocks, forward after forward) do not re-allocate an ``n × p`` array per
call.  Buffers are returned uninitialised — the kernels zero-fill or
overwrite them — and ownership transfers on :meth:`acquire`: the pool
never hands the same array out twice until it is :meth:`release`-d back.

The pool is thread-safe; the branch-parallel executor and concurrently
served requests may share one plan (and therefore one pool).
"""

from __future__ import annotations

import atexit
import threading
import weakref
from dataclasses import dataclass

import numpy as np

# Every live pool, so an interrupted bench/soak can be swept in one call.
# Weak references: registration must not keep retired pools (and their
# buffers) alive — a pool that is garbage has already "drained".
_POOLS: weakref.WeakSet = weakref.WeakSet()
_POOLS_LOCK = threading.Lock()


def drain_all_pools() -> int:
    """Drain every live :class:`WorkspacePool`; returns total bytes freed.

    Registered as an ``atexit`` hook so a Ctrl-C'd benchmark or soak
    leaves no idle workspace pinned while interpreter teardown runs
    finalizers.
    """
    with _POOLS_LOCK:
        pools = list(_POOLS)
    return sum(pool.drain() for pool in pools)


atexit.register(drain_all_pools)


@dataclass
class PoolStats:
    """Counters for pool effectiveness (reported by benchmarks/CLI)."""

    acquires: int = 0
    hits: int = 0
    releases: int = 0
    discarded: int = 0
    stacked_acquires: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.acquires if self.acquires else 0.0


class WorkspacePool:
    """Free-list of dense arrays keyed by ``(shape, dtype)``.

    Parameters
    ----------
    max_per_key:
        How many idle buffers to retain per key; extra releases are
        dropped (double buffering needs 2, the default).
    """

    def __init__(self, max_per_key: int = 2):
        if max_per_key < 0:
            raise ValueError(f"max_per_key must be >= 0, got {max_per_key}")
        self.max_per_key = max_per_key
        self._free: dict[tuple, list[np.ndarray]] = {}
        self._lock = threading.Lock()
        self.stats = PoolStats()
        with _POOLS_LOCK:
            _POOLS.add(self)

    @staticmethod
    def _key(shape: tuple[int, ...], dtype) -> tuple:
        return (tuple(int(s) for s in shape), np.dtype(dtype).str)

    def acquire(self, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
        """A C-contiguous array of the given shape/dtype (contents arbitrary)."""
        key = self._key(shape, dtype)
        with self._lock:
            self.stats.acquires += 1
            free = self._free.get(key)
            if free:
                self.stats.hits += 1
                return free.pop()
        return np.empty(shape, dtype=dtype)

    def release(self, arr: np.ndarray) -> None:
        """Return a buffer to the pool for reuse.

        Only C-contiguous arrays are retained; anything else (or overflow
        beyond ``max_per_key``) is silently dropped to the allocator.
        """
        if not isinstance(arr, np.ndarray) or not arr.flags.c_contiguous:
            return
        key = self._key(arr.shape, arr.dtype)
        with self._lock:
            self.stats.releases += 1
            free = self._free.setdefault(key, [])
            if len(free) < self.max_per_key and not any(b is arr for b in free):
                free.append(arr)
            else:
                self.stats.discarded += 1

    def acquire_stacked(
        self, rows: int, columns: int, dtype=np.float32, *, quantum: int = 1
    ) -> np.ndarray:
        """A pooled 2-D buffer for a *stacked* (micro-batched) operand.

        Batch widths vary request-to-request, so exact-shape pooling
        would miss on almost every acquire; instead the width is rounded
        up to a multiple of ``quantum`` (see
        :func:`repro.serving.batching.quantize_columns` for the
        rationale) and the trailing padding columns are **zero-filled**
        before the buffer is handed out — padding feeds the kernels, and
        recycled garbage there would poison the output-validation scan.
        The caller owns the first ``columns`` columns; release with
        :meth:`release` as usual.
        """
        if quantum < 1:
            raise ValueError(f"quantum must be >= 1, got {quantum}")
        if columns < 1:
            raise ValueError(f"columns must be >= 1, got {columns}")
        padded = ((columns + quantum - 1) // quantum) * quantum
        buf = self.acquire((int(rows), padded), dtype)
        with self._lock:
            self.stats.stacked_acquires += 1
        if padded > columns:
            buf[:, columns:] = 0
        return buf

    def warm(self, shape: tuple[int, ...], dtype=np.float32, count: int = 1) -> None:
        """Pre-populate the pool so the first executions skip allocation."""
        bufs = [self.acquire(shape, dtype) for _ in range(max(count, 0))]
        for b in bufs:
            self.release(b)

    def idle_bytes(self) -> int:
        """Total bytes currently held in free lists."""
        with self._lock:
            return sum(b.nbytes for free in self._free.values() for b in free)

    def clear(self) -> None:
        with self._lock:
            self._free.clear()

    def drain(self) -> int:
        """Release every idle buffer to the allocator; return bytes freed.

        Used when a plan is being retired (e.g. the serving layer
        hot-swapped its CBM archive): the old plan may still be finishing
        in-flight requests, but its idle workspace should not outlive it.
        Buffers currently checked out are unaffected; a later
        :meth:`release` would re-pool them, so callers retiring a pool
        should also stop acquiring from / releasing into it.
        """
        with self._lock:
            freed = sum(b.nbytes for free in self._free.values() for b in free)
            self._free.clear()
        return freed
