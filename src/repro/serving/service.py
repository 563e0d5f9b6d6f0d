"""In-process, thread-safe inference service over the CBM runtime.

:class:`InferenceService` turns the single-product safety of
:class:`~repro.reliability.guard.GuardedKernel` into stream safety: a
bounded request queue with admission control, per-request deadline
budgets, retry with decorrelated-jitter backoff, and a per-adjacency
circuit breaker that walks the CBM → guarded-CBM → CSR degradation
ladder (see :mod:`repro.serving.breaker`).  The contract to clients:

* :meth:`InferenceService.submit` either accepts the request or raises a
  typed admission error (:class:`~repro.errors.OverloadError` with a
  ``retry_after`` hint, or :class:`~repro.errors.ServiceUnavailable`);
* every accepted request resolves — to a validated result or a typed
  :class:`~repro.errors.ReproError`; a request whose deadline budget
  ran out before its batch started is rejected with
  :class:`~repro.errors.DeadlineExceeded`, and a product that has
  started runs to completion.  Nothing hangs and nothing returns a
  silently wrong buffer.

The serving target is an :class:`AdjacencySlot` — the CBM matrix, its
CSR reference, and their shared :class:`GuardStats` — which can be
hot-swapped from a CRC-verified archive while requests are in flight:
in-flight work finishes on the old slot, new work lands on the new one,
and the old plans' workspace pools are drained.
"""

from __future__ import annotations

import queue
import threading
import time

import numpy as np

from repro.core.cbm import CBMMatrix
from repro.core.io import load_cbm
from repro.errors import (
    DeadlineExceeded,
    IntegrityError,
    NumericalError,
    OverloadError,
    ReproError,
    ServiceUnavailable,
    ShapeError,
)
from repro.gnn.adjacency import CSRAdjacency
from repro.reliability.guard import GuardedKernel, GuardStats
from repro.serving.backoff import RetryPolicy, is_transient
from repro.serving.batching import (
    KIND_GCN,
    KIND_PRODUCT,
    Batch,
    BatchCollector,
    BatchConfig,
)
from repro.serving.breaker import CircuitBreaker, ServeTier
from repro.serving.deadline import Deadline
from repro.sparse.csr import CSRMatrix
from repro.utils.timing import interleaved_best
from repro.utils.validation import all_finite, check_positive


class ServiceState:
    STARTING = "starting"
    READY = "ready"
    DRAINING = "draining"
    STOPPED = "stopped"


class ServiceStats:
    """Thread-safe service counters (health endpoint and soak harness)."""

    _FIELDS = (
        "submitted",
        "completed",
        "failed",
        "shed",
        "deadline_misses",
        "input_rejections",
        "retries",
        "swaps",
        "batches",
        "coalesced",
        "batch_victims",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for name in self._FIELDS:
            setattr(self, name, 0)

    def bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + by)

    def snapshot(self) -> dict:
        with self._lock:
            return {name: getattr(self, name) for name in self._FIELDS}


class InferenceFuture:
    """Resolution handle for one accepted request.

    ``result(timeout)`` blocks until the worker resolves the future,
    returning the product or raising the typed error the request ended
    with; on timeout it raises :class:`TimeoutError` (a *harness* signal —
    the service itself always resolves within the deadline budget).

    ``generation`` records which adjacency generation served the request
    (set just before the future resolves, ``None`` until then and for
    rejected requests).  Clients swap-storming the service use it to
    verify each result against the reference matrix of the generation
    that actually produced it — the observable form of the batching
    stage's generation-purity invariant.
    """

    def __init__(self) -> None:
        self._done = threading.Event()
        self._value: np.ndarray | None = None
        self._exc: BaseException | None = None
        self.generation: int | None = None

    def _resolve(self, value: np.ndarray) -> None:
        self._value = value
        self._done.set()

    def _reject(self, exc: BaseException) -> None:
        self._exc = exc
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> np.ndarray:
        if not self._done.wait(timeout):
            raise TimeoutError("request not resolved within the wait timeout")
        if self._exc is not None:
            raise self._exc
        return self._value

    def exception(self, timeout: float | None = None) -> BaseException | None:
        if not self._done.wait(timeout):
            raise TimeoutError("request not resolved within the wait timeout")
        return self._exc


class _Request:
    __slots__ = ("x", "deadline", "future", "vector", "kind", "attempts")

    def __init__(
        self, x: np.ndarray, deadline: Deadline, vector: bool, kind: str = KIND_PRODUCT
    ):
        self.x = x
        self.deadline = deadline
        self.future = InferenceFuture()
        self.vector = vector
        self.kind = kind
        self.attempts = 0

    @property
    def width(self) -> int:
        """Dense columns this request occupies in a stacked operand."""
        return 1 if self.vector else int(self.x.shape[1])


class AdjacencySlot:
    """One hot-swappable serving target: CBM + CSR reference + shared stats.

    ``generation`` increments across swaps so health output shows which
    artifact is live.
    """

    def __init__(
        self,
        cbm: CBMMatrix,
        source: CSRMatrix,
        *,
        generation: int = 0,
        stats: GuardStats | None = None,
        tracker=None,
    ):
        if cbm.shape != source.shape:
            raise ShapeError.mismatch("slot cbm vs source", cbm.shape, source.shape)
        self.cbm = cbm
        self.source = source
        self.generation = generation
        self.stats = stats if stats is not None else GuardStats()
        # Streaming metadata: a DriftTracker whose counters health()
        # surfaces, and the graph version this slot's content represents
        # (set by repro.streaming publishers; None for static slots).
        self.tracker = tracker
        self.graph_version: int | None = None
        # Set by tune(): the operand width of the race (None = never
        # tuned), each format's best measured seconds, and the float32
        # CSR operator the FAST tier serves when CSR won.
        self.tuned_width: int | None = None
        self.raced_s: dict[str, float] = {}
        self.csr: CSRAdjacency | None = None
        self._csr32: CSRAdjacency | None = None  # built by float32_csr()
        # (store, index) pin held while this slot serves a store-backed
        # generation — released by retire() so retention pruning can
        # reclaim the directory only after the slot stops serving it.
        self._pin: tuple | None = None

    @classmethod
    def from_graph(
        cls, a: CSRMatrix, *, alpha: int = 0, normalized: bool = False
    ) -> "AdjacencySlot":
        """Compress a binary adjacency; keep a CSR form as reference.

        With ``normalized=True`` the slot serves the GCN-normalised
        ``Â = D^{-1/2}(A+I)D^{-1/2}`` (CBM(DAD) factorised form, weighted
        CSR reference) — the right target for GCN-forward serving.
        """
        from repro.core.builder import build_cbm

        if normalized:
            from repro.core.cbm import Variant
            from repro.graphs.laplacian import gcn_normalization, normalized_adjacency

            binary, diag = gcn_normalization(a)
            cbm, _ = build_cbm(binary, alpha=alpha, variant=Variant.DAD, diag=diag)
            return cls(cbm, normalized_adjacency(a))
        cbm, _ = build_cbm(a, alpha=alpha)
        return cls(cbm, a)

    @classmethod
    def from_archive(cls, path, *, generation: int = 0) -> "AdjacencySlot":
        """Load a stored CBM artifact (CRC-verified by :func:`load_cbm`)
        and reconstruct its CSR reference by decompression."""
        cbm = load_cbm(path)
        return cls(cbm, cbm.tocsr(), generation=generation)

    def prepare(self, *, width: int | None = None) -> None:
        """Build the kernel plan (and optionally warm the pool) before
        the slot takes traffic — swaps pay the plan cost off-path."""
        plan = self.cbm.plan()
        if width is not None:
            plan.pool.warm((self.cbm.shape[0], int(width)), np.float32, count=1)

    @property
    def route(self) -> str:
        """The FAST tier's format: ``csr`` once :meth:`tune` measured it
        faster, else ``cbm``."""
        return "cbm" if self.csr is None else "csr"

    def float32_csr(self) -> CSRAdjacency:
        """The float32 CSR copy of ``source``, built on first use.

        The CSR route :meth:`tune` may pick and the DEGRADED tier both
        multiply by it, so every tier serves float32.
        """
        if self._csr32 is None:
            m = self.source
            data = np.asarray(m.data, dtype=np.float32)
            csr = CSRAdjacency(CSRMatrix(m.indptr, m.indices, data, m.shape, check=False))
            csr.prepare()
            self._csr32 = csr
        return self._csr32

    def tune(self, width: int) -> str:
        """Race the CBM plan against float32 CSR at ``width`` columns.

        Both formats multiply the same random operand, interleaved round
        by round; the faster one becomes :attr:`route` and is returned.
        The CSR candidate is :meth:`float32_csr`, so either route serves
        float32.  Call before the slot takes traffic.
        """
        check_positive(width, "width")
        width = int(width)
        csr = self.float32_csr()
        plan = self.cbm.plan()
        rng = np.random.default_rng(0)
        b = rng.standard_normal((self.source.shape[1], width)).astype(np.float32)
        out = plan.out_buffer(width)
        try:
            raced = interleaved_best(
                {"cbm": lambda: plan.execute(b, out=out), "csr": lambda: csr.matmul(b)}
            )
        finally:
            plan.release(out)
        self.csr = csr if raced["csr"] < raced["cbm"] else None
        self.tuned_width = width
        self.raced_s = raced
        return self.route

    def retire(self) -> int:
        """Drain the retiring matrix's pooled workspaces; return bytes freed.

        Also releases the slot's generation pin (if it was loaded from a
        :class:`~repro.recovery.GenerationStore`), making the directory
        prunable again now that nothing serves from it.
        """
        pin, self._pin = self._pin, None
        if pin is not None:
            store, index = pin
            store.release(index)
        return self.cbm.drain_workspaces()


class InferenceService:
    """Bounded-queue inference service with deadlines, retries, and a
    circuit breaker (see the module docstring for the client contract).

    Every request is served by the micro-batching executor: one compute
    thread that, each time it is free, takes every queued request
    targeting the same adjacency generation and operator kind (up to the
    column cap) and serves them with one stacked-feature forward, without
    waiting for more to arrive.  A lone request is a batch of one.  The
    stacked result is split back per requester, bitwise identical to the
    direct kernel product of each member's operand (see
    :mod:`repro.serving.batching`).

    Parameters
    ----------
    slot:
        The serving target (build via :meth:`AdjacencySlot.from_graph` /
        ``from_archive``).
    queue_capacity:
        Bound on queued (not yet executing) requests; beyond it
        :meth:`submit` sheds load with :class:`~repro.errors.OverloadError`.
    default_deadline_s:
        Deadline budget for requests that do not bring their own.
    retry:
        :class:`~repro.serving.backoff.RetryPolicy` for transient errors.
    breaker:
        A preconfigured :class:`~repro.serving.breaker.CircuitBreaker`;
        by default one with the class defaults.
    weights:
        Optional ``(w0, w1)`` pair: requests then resolve to the paper's
        two-layer GCN forward ``Â σ(Â X W⁰) W¹`` instead of the bare
        product, with every ``Â`` product still routed through the
        batch's serving tier.
    batch:
        The :class:`~repro.serving.batching.BatchConfig` (column cap and
        width quantum) of the micro-batching executor; ``None`` uses
        ``BatchConfig()``.
    """

    def __init__(
        self,
        slot: AdjacencySlot,
        *,
        queue_capacity: int = 32,
        default_deadline_s: float = 5.0,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        weights: tuple[np.ndarray, np.ndarray] | None = None,
        batch: BatchConfig | None = None,
        seed: int = 0,
    ):
        check_positive(queue_capacity, "queue_capacity")
        check_positive(default_deadline_s, "default_deadline_s")
        self._slot = slot
        self.queue_capacity = queue_capacity
        self.default_deadline_s = default_deadline_s
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.weights = None
        if weights is not None:
            w0, w1 = weights
            self.weights = (
                np.asarray(w0, dtype=np.float32),
                np.asarray(w1, dtype=np.float32),
            )
        self.stats = ServiceStats()

        self._queue: "queue.Queue[_Request | None]" = queue.Queue(maxsize=queue_capacity)
        self.batch_config = batch if batch is not None else BatchConfig()
        self._collector = BatchCollector(self._queue, self.batch_config)
        self._state = ServiceState.STARTING
        self._state_lock = threading.Lock()
        self._swap_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._pending = 0
        self._pending_cond = threading.Condition()
        self._ewma_s = 0.0
        self._ewma_lock = threading.Lock()
        self._seed = seed
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "InferenceService":
        with self._state_lock:
            if self._started:
                return self
            self._started = True
            # The batch is the concurrency: the stacked forward already
            # carries every queued request, and a second compute thread
            # would only interleave with the first at the interpreter
            # level (measured ~5x per-kernel inflation on a contended
            # GIL), so the service runs exactly one compute thread.
            self._thread = threading.Thread(
                target=self._worker_loop, daemon=True, name="repro-serve"
            )
            self._thread.start()
            self._state = ServiceState.READY
        return self

    def __enter__(self) -> "InferenceService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting; wait for queued + in-flight work to resolve.

        Returns True once the service is empty (False on timeout; the
        service stays DRAINING and keeps resolving what is left).
        """
        with self._state_lock:
            if self._state == ServiceState.READY:
                self._state = ServiceState.DRAINING
        end = None if timeout is None else time.monotonic() + timeout
        with self._pending_cond:
            while self._pending > 0:
                wait = None if end is None else end - time.monotonic()
                if wait is not None and wait <= 0:
                    return False
                self._pending_cond.wait(wait if wait is not None else 0.1)
        return True

    def close(self, timeout: float | None = 10.0) -> None:
        """Graceful shutdown: drain, stop the worker, reject stragglers."""
        self.drain(timeout)
        with self._state_lock:
            if self._state == ServiceState.STOPPED:
                return
            self._state = ServiceState.STOPPED
        if self._thread is not None:
            self._queue.put(None)  # shutdown pill
            self._thread.join(timeout=2.0)
        # Anything still queued or parked after a timed-out drain
        # resolves typed.
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not None:
                self._settle_reject(item, ServiceUnavailable("service stopped"))
        for item in self._collector.drain_pending():
            self._settle_reject(item, ServiceUnavailable("service stopped"))

    @property
    def state(self) -> str:
        return self._state

    def ready(self) -> bool:
        return self._state == ServiceState.READY

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, x: np.ndarray, *, deadline_s: float | None = None) -> InferenceFuture:
        """Admit one request (dense 1-D vector or 2-D feature block).

        Raises :class:`~repro.errors.ServiceUnavailable` unless READY and
        :class:`~repro.errors.OverloadError` (with ``retry_after``) when
        the bounded queue is full — load is shed at the door, before any
        kernel work.
        """
        if self._state != ServiceState.READY:
            raise ServiceUnavailable(
                f"service is {self._state}; not accepting requests"
            )
        x = np.asarray(x)
        if x.ndim not in (1, 2):
            raise ShapeError(f"request operand must be 1-D or 2-D, got ndim={x.ndim}")
        if self.weights is not None and x.ndim != 2:
            raise ShapeError("GCN-forward serving requires a 2-D feature block")
        n = self._slot.cbm.shape[1]
        if x.shape[0] != n:
            raise ShapeError.mismatch("request operand", (n,), x.shape)
        kind = KIND_PRODUCT
        if self.weights is not None:
            kind = KIND_GCN
            p = int(self.weights[0].shape[0])
            if x.shape[1] != p:
                raise ShapeError.mismatch(
                    "GCN feature block vs W0", (n, p), tuple(x.shape)
                )
        deadline = Deadline(deadline_s if deadline_s is not None else self.default_deadline_s)
        req = _Request(x, deadline, vector=x.ndim == 1, kind=kind)
        with self._pending_cond:
            self._pending += 1
        try:
            self._queue.put_nowait(req)
        except queue.Full:
            self._finish_pending()
            self.stats.bump("shed")
            retry_after = self.retry_after_estimate()
            raise OverloadError(
                f"queue full ({self.queue_capacity} waiting); retry in "
                f"~{retry_after:.3f}s",
                retry_after=retry_after,
            ) from None
        self.stats.bump("submitted")
        return req.future

    def retry_after_estimate(self) -> float:
        """When a shed client should try again: queue depth × recent
        per-request service time on the one compute thread."""
        with self._ewma_lock:
            per_request = self._ewma_s
        return max(0.005, self._queue.qsize() * max(per_request, 0.001))

    # ------------------------------------------------------------------
    # Execution: one compute thread, every request a batch member
    # ------------------------------------------------------------------
    def _finish_pending(self, count: int = 1) -> None:
        with self._pending_cond:
            self._pending -= count
            if self._pending <= 0:
                self._pending_cond.notify_all()

    def _observe_latency(self, seconds: float) -> None:
        with self._ewma_lock:
            if self._ewma_s == 0.0:
                self._ewma_s = seconds
            else:
                self._ewma_s = 0.8 * self._ewma_s + 0.2 * seconds

    def _settle_reject(self, req: _Request, exc: BaseException) -> None:
        """One request leaves the system with a typed error."""
        req.future._reject(exc)
        self._finish_pending()

    def _worker_loop(self) -> None:
        rng = np.random.default_rng(self._seed * 7919)
        while True:
            batch = self._collector.next_batch(lambda: self._slot)
            if batch is None:
                return
            try:
                self._handle_batch(batch, rng)
            except Exception as exc:  # defensive: never strand a member
                for req in batch.members:
                    if not req.future.done():
                        self._settle_reject(
                            req,
                            ServiceUnavailable(
                                f"internal serving failure: {type(exc).__name__}: {exc}"
                            ),
                        )

    def _handle_batch(self, batch: Batch, rng: np.random.Generator) -> None:
        """Execute one coalesced batch: per-batch tier, per-request outcomes.

        The batch executes at one serving tier (guard fallbacks and
        breaker transitions apply to the whole stacked forward), but
        every *outcome* is attributed per request: deadline expiry and
        input rejection are decided member-by-member, and members hit by
        a transient batch failure re-enter the collector for their own
        retry rather than failing with the batch.
        """
        if self._state == ServiceState.STOPPED:
            for req in batch.members:
                self._settle_reject(req, ServiceUnavailable("service stopped"))
            return
        live = []
        for req in batch.members:
            if req.deadline.expired:
                self.stats.bump("deadline_misses")
                self._settle_reject(
                    req,
                    DeadlineExceeded(
                        f"deadline budget ({req.deadline.budget_s:.3f}s) expired "
                        "while the request was queued"
                    ),
                )
            else:
                live.append(req)
        if not live:
            return
        batch.members = live
        t0 = time.monotonic()
        tier, probe = self.breaker.acquire(width=batch.width)
        try:
            outs, fell_back = self._compute_batch(batch, tier)
        except ReproError as exc:
            if getattr(exc, "input_rejection", False):
                # A poisoned operand somewhere in the stack: not a path
                # failure, so the breaker hears nothing — attribute it.
                self._attribute_poison(batch, exc)
                return
            self.breaker.record(tier, False, probe=probe)
            self._retry_or_fail_batch(batch, exc, rng)
            return
        # One outcome per execution: a guard that fell back served a
        # repaired answer, but the fast path under it failed.
        self.breaker.record(tier, not fell_back, probe=probe)
        self.stats.bump("batches")
        if len(live) > 1:
            self.stats.bump("coalesced", by=len(live))
        self._observe_latency((time.monotonic() - t0) / len(live))
        self.stats.bump("completed", by=len(live))
        for req, y in zip(live, outs):
            req.future.generation = batch.generation
            req.future._resolve(y)
        self._finish_pending(len(live))

    def _compute_batch(
        self, batch: Batch, tier: ServeTier
    ) -> tuple[list[np.ndarray], bool]:
        """Stack the members, run one forward, split the result.

        Returns the per-member outputs and whether the guard fell back.
        Every member's output is bitwise identical to the direct kernel
        product of its own operand: the SpMM/update-stage kernels are
        column-wise independent, and the GCN GEMM stages row-partition
        (see :mod:`repro.serving.batching`).  Quantised padding columns
        are zero-filled by the pool and inert.
        """
        slot = batch.slot
        cfg = self.batch_config
        members = batch.members
        spans = batch.layout(quantum=cfg.quantum).spans()
        plan = slot.cbm.plan()
        xs = plan.stacked_operand(batch.width, np.float32, quantum=cfg.quantum)
        fell_back: list[ReproError] = []
        try:
            for req, (lo, hi) in zip(members, spans):
                col = np.asarray(req.x, dtype=np.float32)
                xs[:, lo:hi] = col[:, None] if req.vector else col
            csr_tier = tier is ServeTier.DEGRADED or (
                tier is ServeTier.FAST and slot.route == "csr"
            )
            if csr_tier:
                # DEGRADED always serves float32 CSR, and FAST does when
                # the tuned race chose it.  GUARDED keeps the guarded-CBM
                # kernel, so the ladder is the same whichever format won.
                product = slot.float32_csr().matmul
            else:
                guarded = tier is ServeTier.GUARDED
                guard = GuardedKernel(
                    slot.cbm,
                    source=slot.source if guarded else None,
                    strict=not guarded,
                    stats=slot.stats,
                    on_degrade=fell_back.append,
                )
                product = guard.matmul
            if self.weights is not None:
                outs = self._compute_batch_gcn(product, xs, len(members), plan)
            else:
                # The kernel allocates ys fresh, and it never goes back
                # to the pool: a member alone at the full stacked width
                # receives a view of it, which a later batch must not be
                # handed as its stacked operand.
                ys = product(xs)
                outs = [
                    ys[:, lo].copy() if req.vector else np.ascontiguousarray(ys[:, lo:hi])
                    for req, (lo, hi) in zip(members, spans)
                ]
            # The guarded tiers validate inside GuardedKernel; the two CSR
            # tiers validate here.
            if csr_tier and not all(all_finite(y) for y in outs):
                if not all_finite(xs):
                    err = NumericalError(
                        "a stacked operand contains NaN/Inf; no serving "
                        "tier can repair a corrupted input"
                    )
                    err.input_rejection = True
                    slot.stats.record_input_rejection()
                    raise err
                raise NumericalError(
                    "CSR reference product is non-finite; the stored matrix "
                    "or an operand is corrupted beyond recovery"
                )
            return outs, bool(fell_back)
        finally:
            plan.release(xs)

    def _compute_batch_gcn(self, product, xs, members: int, plan) -> list[np.ndarray]:
        """Batched two-layer GCN ``Â σ(Â X W⁰) W¹``: stacked SpMMs,
        whole-batch GEMMs.

        :meth:`submit` fixes every GCN operand's width at ``W⁰``'s input
        dimension, so a batch is ``members`` equal blocks.
        ``c1[:, :members·p]`` reshaped to ``(n·members, p)`` puts every
        member's aggregate rows through one GEMM, which row-partitions
        exactly like ``members`` separate ``(n, p) @ W⁰`` products, so
        each member stays bitwise identical to its own forward.  The
        hidden activations come back already laid out as the stacked
        operand of the second SpMM (member-major within each row), so no
        per-member packing happens between the two products.  The
        intermediate products go back to the pool: every output is a
        copy.
        """
        w0, w1 = self.weights
        width, hidden = w0.shape
        classes = int(w1.shape[1])
        c1 = product(xs)
        try:
            n = c1.shape[0]
            # The pool may have quantised xs (so c1) wider than the
            # batch; reshape falls back to one contiguous copy then.
            h1 = c1[:, : members * width].reshape(n * members, width) @ w0
        finally:
            plan.release(c1)
        np.maximum(h1, 0.0, out=h1)
        c2 = product(h1.reshape(n, members * hidden))
        try:
            o = c2.reshape(n * members, hidden) @ w1
        finally:
            plan.release(c2)
        stacked = np.ascontiguousarray(o.reshape(n, members, classes).transpose(1, 0, 2))
        return [stacked[i].copy() for i in range(members)]

    def _attribute_poison(self, batch: Batch, exc: ReproError) -> None:
        """Batch-level input rejection → per-member attribution.

        Members whose operand really is non-finite are rejected with
        ``input_rejection``; innocent co-travellers re-enter the
        collector as batch victims with *no attempt charged* — sharing a
        batch with a poisoned request must not consume retry budget.
        """
        poisoned, clean = [], []
        for req in batch.members:
            x = np.asarray(req.x, dtype=np.float32)
            (clean if all_finite(x) else poisoned).append(req)
        if not poisoned:
            # Attribution failed (should not happen): fail everyone with
            # the original error rather than requeueing forever.
            for req in batch.members:
                self.stats.bump("failed")
                self._settle_reject(req, exc)
            return
        for req in poisoned:
            self.stats.bump("input_rejections")
            err = NumericalError(
                "request operand contains NaN/Inf; no serving tier can "
                "repair a corrupted input"
            )
            err.input_rejection = True
            err.__cause__ = exc
            self._settle_reject(req, err)
        if clean:
            self.stats.bump("batch_victims", by=len(clean))
            self._collector.requeue(clean)

    def _retry_or_fail_batch(
        self, batch: Batch, exc: ReproError, rng: np.random.Generator
    ) -> None:
        """A transient batch failure charges every member one attempt;
        members with retry budget and deadline room re-enter the
        collector (retries never bypass the batching stage), the rest
        resolve with the typed error."""
        transient = is_transient(exc)
        delay = next(self.retry.delays(rng))
        retryable, terminal = [], []
        for req in batch.members:
            req.attempts += 1
            if (
                transient
                and req.attempts < self.retry.max_attempts
                and req.deadline.remaining() > delay
            ):
                retryable.append(req)
            else:
                terminal.append(req)
        for req in terminal:
            self.stats.bump("failed")
            if req.deadline.expired:
                self.stats.bump("deadline_misses")
                final: ReproError = DeadlineExceeded(
                    f"deadline budget ({req.deadline.budget_s:.3f}s) "
                    f"exhausted after {req.attempts} attempt(s); last error: "
                    f"{type(exc).__name__}: {exc}"
                )
                final.__cause__ = exc
            else:
                final = exc
            self._settle_reject(req, final)
        if retryable:
            self.stats.bump("retries", by=len(retryable))
            time.sleep(delay)
            self._collector.requeue(retryable)

    # ------------------------------------------------------------------
    # Hot swap
    # ------------------------------------------------------------------
    def swap_slot(self, slot: AdjacencySlot, *, warm_width: int | None = None) -> dict:
        """Atomically replace the serving target.

        The new slot's plan is built (and optionally warmed) *before* it
        takes traffic; in-flight requests finish on the old slot (each
        request reads the slot reference once), and the old plans' idle
        workspaces are drained.  An untuned slot replacing a tuned one is
        raced at the outgoing slot's width first, so no swap path can
        drop a format choice.  Returns a summary dict.
        """
        with self._swap_lock:
            old = self._slot
            if slot.tuned_width is None and old.tuned_width is not None:
                slot.tune(old.tuned_width)
            slot.prepare(width=warm_width)
            slot.generation = old.generation + 1
            self._slot = slot
            self.stats.bump("swaps")
            freed = old.retire()
        return {
            "generation": slot.generation,
            "retired_workspace_bytes": freed,
            "shape": list(slot.cbm.shape),
        }

    def swap_archive(self, path, *, warm_width: int | None = None) -> dict:
        """Hot-swap from a stored CBM archive.

        :func:`~repro.core.io.load_cbm` CRC-verifies every payload array
        first — a corrupted artifact raises
        :class:`~repro.errors.IntegrityError` and the old slot keeps
        serving untouched.
        """
        slot = AdjacencySlot.from_archive(path)
        return self.swap_slot(slot, warm_width=warm_width)

    def swap_generation(
        self,
        store,
        *,
        warm_width: int | None = None,
        payload: str = "adjacency.npz",
        quarantine_bad: bool = True,
    ) -> dict:
        """Hot-swap to the newest *committed* generation of a
        :class:`~repro.recovery.GenerationStore`.

        Only committed generations (manifest commit marker present) are
        ever candidates — an in-flight or torn write simply does not
        exist to this path.  When the newest committed generation fails
        to load (:class:`~repro.errors.IntegrityError` from the CRC
        layer, a format error, or unreadable bytes), it is quarantined
        (``quarantine_bad=True``) and the swap *falls back to the
        previous committed generation*, walking history until one loads;
        the old slot keeps serving throughout.  Raises
        :class:`~repro.errors.RecoveryError` on an empty store and
        :class:`~repro.errors.IntegrityError` when no committed
        generation is loadable.
        """
        from repro.errors import FormatError, RecoveryError

        gens = store.generations()
        if not gens:
            raise RecoveryError(
                f"generation store {store.root} has no committed generation to serve"
            )
        fallbacks = 0
        last_exc: Exception | None = None
        can_pin = hasattr(store, "pin")
        for gen in reversed(gens):
            # Pin before touching the payload: a retention prune running
            # concurrently (e.g. a background rebuilder committing with
            # retain=) must not rmtree this directory mid-load.
            if can_pin:
                store.pin(gen.index)
            try:
                slot = AdjacencySlot.from_archive(gen.file(payload))
            except (FormatError, RecoveryError, OSError) as exc:
                # FormatError covers IntegrityError (its subclass): both
                # mean this generation is unusable, not that older ones are.
                if can_pin:
                    store.release(gen.index)
                last_exc = exc
                fallbacks += 1
                if quarantine_bad:
                    store.quarantine_generation(
                        gen, f"swap-rejected:{type(exc).__name__}: {exc}"
                    )
                continue
            if can_pin:
                # The pin transfers to the slot and is released by
                # retire() when a later swap retires it.
                slot._pin = (store, gen.index)
            meta = gen.manifest.get("meta", {})
            if isinstance(meta, dict) and "graph_version" in meta:
                version = meta["graph_version"]
                slot.graph_version = int(version) if version is not None else None
            try:
                summary = self.swap_slot(slot, warm_width=warm_width)
            except Exception:
                if can_pin:
                    slot._pin = None
                    store.release(gen.index)
                raise
            summary["store_generation"] = gen.index
            summary["fallbacks"] = fallbacks
            return summary
        err = IntegrityError(
            f"no loadable committed generation in {store.root} "
            f"({len(gens)} candidate(s) rejected)"
        )
        raise err from last_exc

    def current_slot(self) -> AdjacencySlot:
        """The live serving slot."""
        return self._slot

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    @staticmethod
    def _format_health(slot: AdjacencySlot) -> dict:
        """Per-slot format block of :meth:`health` and :meth:`describe`."""
        return {
            "route": slot.route,
            "tuned_width": slot.tuned_width,
            "cbm_s": slot.raced_s.get("cbm"),
            "csr_s": slot.raced_s.get("csr"),
        }

    def describe(self) -> dict:
        """Operator-facing snapshot: slot, format route, and breaker."""
        slot = self._slot
        return {
            "state": self._state,
            "generation": slot.generation,
            "shape": list(slot.cbm.shape),
            "variant": slot.cbm.variant.value,
            "graph_version": slot.graph_version,
            "format": self._format_health(slot),
            "breaker": self.breaker.describe(),
        }

    def health(self) -> dict:
        """Liveness + readiness + the counters an operator would page on."""
        with self._ewma_lock:
            ewma = self._ewma_s
        cfg = self.batch_config
        batching = {
            "max_columns": cfg.max_columns,
            "quantum": cfg.quantum,
            "pending": self._collector.pending_count(),
            "collector": self._collector.stats.snapshot(),
        }
        slot = self._slot
        streaming = None
        tracker = getattr(slot, "tracker", None)
        if tracker is not None:
            # Per-slot mutation pressure: drift vs the fresh-build op
            # count, patches/edges absorbed since the last rebuild, and
            # the staleness budget — what an operator watches to decide
            # whether rebuilds are keeping up with the write rate.
            streaming = tracker.snapshot()
            streaming["graph_version"] = slot.graph_version
            pin = getattr(slot, "_pin", None)
            streaming["pinned_store_generation"] = pin[1] if pin else None
        return {
            "state": self._state,
            "ready": self.ready(),
            "live_workers": int(self._thread is not None and self._thread.is_alive()),
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self.queue_capacity,
            "ewma_latency_s": ewma,
            "generation": slot.generation,
            "breaker": self.breaker.describe(),
            "batching": batching,
            "streaming": streaming,
            "format": self._format_health(slot),
            "service": self.stats.snapshot(),
            "guard": slot.stats.snapshot(),
        }
