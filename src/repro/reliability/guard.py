"""Guarded execution of CBM products: validate, detect, fall back.

The CBM fast path (plan/execute runtime + branch-parallel update stage)
mutates buffers in place and trusts the compression tree; a corrupted
structure, a failed worker, or a numerical blow-up would otherwise
surface as a *silently wrong* product.  :class:`GuardedKernel` wraps
``KernelPlan.execute`` / ``parallel_matmul`` with three layers:

1. **input validation** — dense shape checks up front, plus a *lazy*
   non-finite scan of the operand: NaN/Inf in the features propagates
   into the product, so the happy path pays only the output scan, and
   the operand is inspected when a failure needs attributing (a
   corrupted input can never be repaired by a format fallback, so it
   raises :class:`~repro.errors.NumericalError` instead of degrading);
2. **output validation** — shape-drift and non-finite detection on the
   CBM result;
3. **graceful degradation** — any :class:`~repro.errors.ReproError`
   from the fast path (worker death, watchdog trip, corrupted
   tree/deltas, NaN blow-up) triggers a fallback chain: the per-call
   reference path ``matmul_unplanned``, then the CSR reference product
   ``a @ x`` against the ``source`` matrix if one was provided.  Each
   fallback is validated the same way, emits a structured
   :class:`FallbackWarning`, and bumps the :class:`GuardStats` counter,
   so callers always receive a *correct* result or a typed error —
   never a quietly wrong buffer.

``strict=True`` flips the policy: the first failure re-raises instead
of degrading (serving deployments that prefer fail-fast over fail-soft).
"""

from __future__ import annotations

import threading
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.cbm import CBMMatrix
from repro.errors import NumericalError, ReproError, ShapeError
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import Engine, spmm, spmv
from repro.utils.validation import all_finite, check_dense


class FallbackWarning(UserWarning):
    """Emitted when a guarded product degrades to a reference path."""


@dataclass
class GuardStats:
    """Counters exposed by :class:`GuardedKernel` (CLI/bench read these).

    Thread-safe: every mutation happens under an internal lock, because
    the serving layer shares one ``GuardStats`` across request-scoped
    guards and reads it concurrently (circuit-breaker failure rates,
    health endpoints).  The single-threaded API is unchanged — the plain
    counter attributes remain readable directly; :meth:`snapshot` gives a
    consistent point-in-time copy when several counters must agree.
    """

    calls: int = 0
    fallbacks: int = 0
    input_rejections: int = 0
    warnings_suppressed: int = 0
    reasons: Counter = field(default_factory=Counter)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record_call(self) -> None:
        with self._lock:
            self.calls += 1

    def record_input_rejection(self) -> None:
        with self._lock:
            self.input_rejections += 1

    def record_fallback(self, exc: BaseException) -> tuple[int, int]:
        """Count a fallback; return ``(occurrence, total)`` — this reason's
        occurrence count and the overall fallback count, read atomically
        under the lock so reporting code never touches the raw counters
        (the warning deduplication in :meth:`GuardedKernel._degrade` needs
        both numbers in one consistent view)."""
        reason = type(exc).__name__
        with self._lock:
            self.fallbacks += 1
            self.reasons[reason] += 1
            return self.reasons[reason], self.fallbacks

    def record_suppressed_warning(self) -> None:
        with self._lock:
            self.warnings_suppressed += 1

    def snapshot(self) -> dict:
        """Consistent point-in-time copy of every counter."""
        with self._lock:
            return {
                "calls": self.calls,
                "fallbacks": self.fallbacks,
                "input_rejections": self.input_rejections,
                "warnings_suppressed": self.warnings_suppressed,
                "reasons": dict(self.reasons),
            }

    def reset(self) -> None:
        """Zero every counter (the serving layer resets between phases)."""
        with self._lock:
            self.calls = 0
            self.fallbacks = 0
            self.input_rejections = 0
            self.warnings_suppressed = 0
            self.reasons.clear()

    def as_dict(self) -> dict:
        return self.snapshot()


class GuardedKernel:
    """Validated, fallback-protected products for one CBM matrix.

    Parameters
    ----------
    cbm:
        The matrix whose planned fast path is being guarded.
    source:
        Optional CSR reference of the *same product* (e.g. the
        normalised adjacency the CBM was compressed from).  It is the
        last rung of the fallback chain and the only one that survives
        corruption of the CBM structures themselves.
    strict:
        Re-raise the first failure instead of falling back.
    threads:
        When set, products run through
        :func:`~repro.parallel.executor.parallel_matmul` (branch-parallel
        update stage) instead of ``KernelPlan.execute``.
    branch_timeout:
        Watchdog limit per branch for the threaded path (seconds).
    deadline:
        Optional absolute :func:`time.monotonic` deadline forwarded to
        the threaded executor's watchdog: the whole update stage is
        cancelled (buffer restored/invalidated) once it passes, so a
        per-request budget bounds the fast path instead of one slow
        branch blocking the queue.  The serving layer sets this on its
        request-scoped guards.
    executor_factory:
        Callable with the :class:`~repro.parallel.executor.ThreadedUpdateExecutor`
        constructor signature used to build the threaded-path executor.
        Defaults to the real executor; the chaos soak harness swaps in
        fault-injecting ones without monkeypatching.
    stats:
        Share an existing (thread-safe) :class:`GuardStats` instead of
        creating a private one — the serving layer aggregates every
        request-scoped guard of an adjacency into one counter set.
    on_degrade:
        Optional callable invoked with the triggering exception each time
        the guard falls back (never in strict mode).  The serving layer's
        circuit breaker listens here: an internally repaired failure is
        still a fast-path failure signal.
    validate_inputs / validate_outputs:
        Toggle the non-finite scans (shape checks always run).  The
        input scan is lazy — it runs only while attributing a failure,
        so the happy path costs one output scan per product.
    """

    def __init__(
        self,
        cbm: CBMMatrix,
        *,
        source: CSRMatrix | None = None,
        strict: bool = False,
        threads: int | None = None,
        branch_timeout: float | None = None,
        deadline: float | None = None,
        executor_factory=None,
        scaling: str = "deferred",
        validate_inputs: bool = True,
        validate_outputs: bool = True,
        stats: GuardStats | None = None,
        on_degrade=None,
    ):
        self.cbm = cbm
        self.source = source
        self.strict = strict
        self.threads = threads
        self.branch_timeout = branch_timeout
        self.deadline = deadline
        self.executor_factory = executor_factory
        self.scaling = scaling
        self.validate_inputs = validate_inputs
        self.validate_outputs = validate_outputs
        self.stats = stats if stats is not None else GuardStats()
        self.on_degrade = on_degrade
        # Memoised plan for the serial path: the scaling mode is fixed
        # per guard, and the lock + dict handling in
        # ``CBMMatrix.plan`` is measurable against the <5% overhead
        # budget.  The fingerprint check keeps ``CBMMatrix.invalidate``
        # honoured — a stale plan would serve its pre-mutation scaled
        # operand and mask corruption from the guard entirely.
        self._plan = None

    def _get_plan(self):
        plan = self._plan
        if plan is None or not plan.matches(self.cbm):
            plan = self._plan = self.cbm.plan(scaling=self.scaling)
        return plan

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.cbm.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.cbm.shape

    # ------------------------------------------------------------------
    def _reject_bad_input(self, x: np.ndarray, name: str, cause: ReproError) -> None:
        """Attribute a failure to a corrupted operand, if it is one.

        Input validation is *lazy*: the happy path pays only the output
        scan (NaN/Inf in the operand propagates into the product), and
        the operand is scanned only once a failure needs attributing —
        a corrupted input can never be repaired by a format fallback,
        so it raises :class:`~repro.errors.NumericalError` directly.
        """
        if self.validate_inputs and not all_finite(x):
            self.stats.record_input_rejection()
            err = NumericalError(
                f"{name} contains NaN/Inf values; no format fallback can "
                "repair a corrupted operand — sanitise the features upstream"
            )
            # Marker for callers that must tell a client error from a
            # path failure: the serving layer neither retries this nor
            # counts it against the circuit breaker.
            err.input_rejection = True
            raise err from cause

    def _check_output(self, c: np.ndarray, cols: tuple) -> None:
        expected = (self.cbm.shape[0], *cols)
        if c.shape != expected:
            raise ShapeError.mismatch("guarded product output", expected, c.shape)
        if not self.validate_outputs:
            return
        # Inlined fast path of ``all_finite``: the kernel output is a
        # fresh contiguous float array, so one BLAS self-dot settles the
        # common case; ``all_finite`` re-checks exactly (the probe also
        # trips on benign overflow of large finite values).
        flat = c.reshape(-1)
        if np.isfinite(np.dot(flat, flat)):
            return
        if not all_finite(c):
            raise NumericalError(
                "CBM product produced NaN/Inf from finite inputs "
                "(corrupted deltas/tree or numerical blow-up)"
            )

    # ------------------------------------------------------------------
    def matmul(
        self, b: np.ndarray, *, out: np.ndarray | None = None, engine: Engine | None = None
    ) -> np.ndarray:
        """Guarded ``M @ b`` for a dense 2-D operand ``b``."""
        b = check_dense(b, name="b", ndim=2)
        if b.shape[0] != self.shape[1]:
            raise ShapeError.mismatch("guarded matmul", self.shape, b.shape)
        self.stats.record_call()
        try:
            if self.threads is not None:
                from repro.parallel.executor import parallel_matmul

                c = parallel_matmul(
                    self.cbm,
                    b,
                    threads=self.threads,
                    engine=engine,
                    branch_timeout=self.branch_timeout,
                    deadline=self.deadline,
                    executor_factory=self.executor_factory,
                )
            else:
                c = self._get_plan().execute(b, out=out, engine=engine)
            self._check_output(c, (b.shape[1],))
            return c
        except ReproError as exc:
            return self._fallback_matmul(b, exc, out=out, engine=engine)

    def matvec(self, v: np.ndarray, *, engine: Engine | None = None) -> np.ndarray:
        """Guarded ``M @ v`` for a dense 1-D vector ``v``."""
        v = check_dense(v, name="v", ndim=1)
        if v.shape[0] != self.shape[1]:
            raise ShapeError.mismatch("guarded matvec", self.shape, v.shape)
        self.stats.record_call()
        try:
            u = self._get_plan().execute_vec(v, engine=engine)
            self._check_output(u, ())
            return u
        except ReproError as exc:
            return self._fallback_matvec(v, exc, engine=engine)

    __matmul__ = matmul

    # ------------------------------------------------------------------
    def _degrade(self, exc: ReproError) -> None:
        """Record the failure; in strict mode re-raise it instead.

        Repeated failures with the same reason are deduplicated per
        (adjacency, reason): the first occurrence warns verbatim, later
        ones only bump ``stats.warnings_suppressed`` except at powers of
        ten (10th, 100th, ...), where a one-line counter warning keeps
        long soaks informed without emitting thousands of identical
        messages.  The dedup state lives in the (shared) ``GuardStats``,
        so the serving layer's request-scoped guards dedup together.
        """
        if self.strict:
            raise exc
        self._plan = None
        occurrence, total_fallbacks = self.stats.record_fallback(exc)
        if self.on_degrade is not None:
            self.on_degrade(exc)
        reason = type(exc).__name__
        if occurrence == 1:
            warnings.warn(
                FallbackWarning(
                    f"CBM fast path failed ({reason}: {exc}); "
                    "degrading to the CSR reference product "
                    f"(fallback #{total_fallbacks} on this kernel)"
                ),
                stacklevel=4,
            )
        elif occurrence in (10, 100, 1000, 10000, 100000, 1000000):
            warnings.warn(
                FallbackWarning(
                    f"CBM fast path has now degraded {occurrence} times for "
                    f"{reason} on this kernel (identical warnings suppressed; "
                    "see GuardStats.reasons)"
                ),
                stacklevel=4,
            )
        else:
            self.stats.record_suppressed_warning()

    def _fallback_matmul(
        self,
        b: np.ndarray,
        exc: ReproError,
        *,
        out: np.ndarray | None,
        engine: Engine | None,
    ) -> np.ndarray:
        """Degraded product after a fast-path failure.

        Tries the unplanned CBM path, then the CSR reference; when the
        caller supplied ``out``, the recovered product is copied into it
        in place (the fast path may have left it invalidated).
        """
        self._reject_bad_input(b, "operand b", exc)
        self._degrade(exc)
        c: np.ndarray | None = None
        try:
            c = self.cbm.matmul_unplanned(b, scaling=self.scaling)
            if self.validate_outputs and not all_finite(c):
                c = None
        except ReproError:
            c = None
        if c is None and self.source is not None:
            c = spmm(self.source, b, engine=engine)
            if self.validate_outputs and not all_finite(c):
                raise NumericalError(
                    "CSR reference product is also non-finite; the stored "
                    "matrix or the operand is corrupted beyond recovery"
                ) from exc
        if c is None:
            raise exc
        if out is not None:
            out[...] = c
            return out
        return c

    def _fallback_matvec(
        self, v: np.ndarray, exc: ReproError, *, engine: Engine | None
    ) -> np.ndarray:
        self._reject_bad_input(v, "operand v", exc)
        self._degrade(exc)
        u: np.ndarray | None = None
        try:
            u = self.cbm.matvec_unplanned(v, scaling=self.scaling)
            if self.validate_outputs and not all_finite(u):
                u = None
        except ReproError:
            u = None
        if u is None and self.source is not None:
            u = spmv(self.source, v, engine=engine)
            if self.validate_outputs and not all_finite(u):
                raise NumericalError(
                    "CSR reference product is also non-finite; the stored "
                    "matrix or the operand is corrupted beyond recovery"
                ) from exc
        if u is None:
            raise exc
        return u

    def describe(self) -> dict:
        """Guard configuration + counters (CLI ``--guarded`` prints this)."""
        return {
            "strict": self.strict,
            "threads": self.threads,
            "branch_timeout": self.branch_timeout,
            "has_source": self.source is not None,
            **self.stats.as_dict(),
        }


class GuardedAdjacency:
    """:class:`~repro.gnn.adjacency.AdjacencyOp` facade over a guard.

    Lets every GNN model in :mod:`repro.gnn` run its ``Â @ X`` products
    through the guarded kernel unchanged — the serving-path integration
    of the reliability layer.
    """

    supports_out = False

    def __init__(self, guard: GuardedKernel):
        self.guard = guard

    @classmethod
    def from_graph(
        cls, a: CSRMatrix, *, alpha: int = 0, strict: bool = False, **guard_kwargs
    ) -> "GuardedAdjacency":
        """Compress ``Â`` to CBM(DAD) and keep the CSR ``Â`` as fallback."""
        from repro.core.builder import build_cbm
        from repro.core.cbm import Variant
        from repro.graphs.laplacian import gcn_normalization, normalized_adjacency

        binary, diag = gcn_normalization(a)
        cbm, _ = build_cbm(binary, alpha=alpha, variant=Variant.DAD, diag=diag)
        source = normalized_adjacency(a)
        return cls(GuardedKernel(cbm, source=source, strict=strict, **guard_kwargs))

    @property
    def n(self) -> int:
        return self.guard.n

    def prepare(self, *, width: int | None = None, dtype=np.float32) -> None:
        plan = self.guard.cbm.plan(scaling=self.guard.scaling)
        if width is not None:
            plan.pool.warm((self.n, int(width)), dtype, count=1)

    def matmul(self, x: np.ndarray) -> np.ndarray:
        return self.guard.matmul(x.astype(np.float32, copy=False))

    def memory_bytes(self) -> int:
        return self.guard.cbm.memory_bytes()
