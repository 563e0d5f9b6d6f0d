"""Kernel plans: the one-time *plan* / cheap *execute* split for CBM products.

The paper's speedups come from amortising the compression tree over many
multiplications — the exact shape of GCN serving, where the same ``Â`` is
multiplied against dense features every layer of every forward pass.  A
:class:`KernelPlan` hoists everything ``CBMMatrix.matmul`` used to
recompute per call into a one-time build:

* the tree's **edge schedule** — non-root rows in topological order
  and their parents — bound to the compiled update stage
  (:mod:`repro.runtime.native`), and the **level schedule**, the same
  pairs grouped by depth, for the NumPy walk it falls back to;
* the **branch decomposition** of Section V-B for the threaded executor
  and the dynamic-schedule simulator;
* the **scaled delta CSR** for the chosen variant (A / AD / DAD / D1AD2)
  plus a prebuilt SciPy handle so the multiplication stage goes straight
  into the compiled kernel;
* the **fused / deferred diagonal tables** (per-level scale factors for
  ``scaling="fused"``, one row-scale vector for ``"deferred"``);
* a reusable output/workspace **buffer pool** keyed by operand shape and
  dtype.

Plans are immutable snapshots: :meth:`KernelPlan.matches` detects when
the owning matrix's tree/delta/diagonals were swapped out or explicitly
invalidated (``CBMMatrix.invalidate()``), and ``CBMMatrix.plan()``
rebuilds lazily.  ``execute`` itself touches no shared mutable state
beyond the (locked) buffer pool, so one plan may serve many threads.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.deltas import scale_delta_matrix
from repro.errors import ShapeError
from repro.runtime import native
from repro.runtime.buffers import WorkspacePool
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import Engine, get_default_engine, spmm, spmv
from repro.utils.validation import check_dense

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.cbm import CBMMatrix

try:  # SciPy's raw CSR kernel lets us multiply into a caller buffer.
    from scipy.sparse import _sparsetools as _sptools

    _CSR_MATVECS = getattr(_sptools, "csr_matvecs", None)
    _CSR_MATVEC = getattr(_sptools, "csr_matvec", None)
except (ImportError, AttributeError):  # pragma: no cover - exotic SciPy builds
    _CSR_MATVECS = None
    _CSR_MATVEC = None


def apply_level_schedule(
    c: np.ndarray,
    level_pairs: list[tuple[np.ndarray, np.ndarray]],
    *,
    row_scale: np.ndarray | None = None,
    roots: np.ndarray | None = None,
    root_scale: np.ndarray | None = None,
    fused_tables: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> None:
    """Level-schedule update stage + scaling, in place on ``c``.

    The NumPy tree walk: ``KernelPlan`` runs it where the compiled walk
    does not apply (no compiler, an unsupported dtype or layout, and the
    fused per-level scaling recurrence), and the tests hold the compiled
    walk to it bit for bit.

    ``fused_tables`` (with ``roots``/``root_scale``) selects the fused
    per-level scaling recurrence; otherwise plain accumulation runs,
    followed by one deferred ``row_scale`` multiply when given.
    """
    expand = (slice(None), None) if c.ndim == 2 else ()
    if fused_tables is not None:
        c[roots] *= root_scale[expand]
        for (lv, ps), (a, r) in zip(level_pairs, fused_tables, strict=True):
            c[lv] = a[expand] * c[lv] + r[expand] * c[ps]
        return
    # ``take`` gathers rows with less overhead than ``c[idx]`` fancy
    # indexing, which dominates at serving widths.  Each row still gets
    # the one addition c[parent] + c[row], so the result is bitwise equal
    # to ``c[lv] += c[ps]``.
    for lv, ps in level_pairs:
        t = c.take(ps, axis=0)
        t += c.take(lv, axis=0)
        c[lv] = t
    if row_scale is not None:
        c *= row_scale[expand]


@dataclass
class PlanStats:
    """Execution counters (informational; benchmarks and the CLI read them)."""

    build_seconds: float = 0.0
    executions: int = 0
    matvecs: int = 0


@dataclass(frozen=True)
class _Fingerprint:
    """Identity snapshot of the CBM parts a plan depends on."""

    tree_id: int
    delta_id: int
    diag_id: int
    diag_left_id: int
    variant: str
    version: int


def _fingerprint(cbm: "CBMMatrix") -> _Fingerprint:
    return _Fingerprint(
        tree_id=id(cbm.tree),
        delta_id=id(cbm.delta),
        diag_id=id(cbm.diag),
        diag_left_id=id(cbm.diag_left),
        variant=cbm.variant.value,
        version=cbm.plan_version,
    )


class KernelPlan:
    """Precomputed execution schedule for one CBM matrix and kernel config.

    Build via ``CBMMatrix.plan(scaling=...)`` (cached) or directly; the
    constructor snapshots everything it needs, so later mutations of the
    source matrix do not corrupt the plan — they make :meth:`matches`
    return False and the owner rebuild.
    """

    def __init__(self, cbm: "CBMMatrix", *, scaling: str = "deferred"):
        if scaling not in ("deferred", "fused"):
            raise ValueError(f"unknown scaling mode {scaling!r}")
        t0 = time.perf_counter()
        self.scaling = scaling
        self.shape = cbm.shape
        self.variant = cbm.variant
        self.fingerprint = _fingerprint(cbm)
        self.stats = PlanStats()
        self.pool = WorkspacePool()

        tree = cbm.tree
        self._parent = tree.parent
        from repro.core.cbm import Variant  # local import: cbm imports this module

        self.row_scaled = cbm.variant in (Variant.DAD, Variant.D1AD2)
        d = cbm._row_diag() if self.row_scaled else None

        # --- multiplication stage -------------------------------------
        if cbm.variant is Variant.A:
            self.operand: CSRMatrix = cbm.delta
        else:
            # Reuse (and populate) the owner's cached scaled delta.
            if cbm._scaled_delta is None:
                cbm._scaled_delta = scale_delta_matrix(cbm.delta, cbm.diag)
            self.operand = cbm._scaled_delta
        self._sp = None  # prebuilt scipy.sparse handle, built on first use
        self._sp_lock = threading.Lock()

        # --- update stage ---------------------------------------------
        # The tree computed both schedules once when it was validated,
        # and patched snapshots share them, so taking them costs
        # O(levels).  Level schedule: (children, parents) per depth.
        self.level_pairs: list[tuple[np.ndarray, np.ndarray]] = tree.level_pairs()
        self._tree = tree  # branches are derived lazily (see branches)

        # --- diagonal tables ------------------------------------------
        self.row_scale: np.ndarray | None = None
        self.roots: np.ndarray | None = None
        self.root_scale: np.ndarray | None = None
        self.fused_tables: list[tuple[np.ndarray, np.ndarray]] | None = None
        if self.row_scaled:
            d = np.asarray(d, dtype=np.float64)
            if scaling == "fused":
                self.roots = tree.roots
                self.root_scale = d[self.roots]
                # c[lv] = d[lv]*(c[ps]/d[ps] + c[lv]) == a*c[lv] + r*c[ps]
                self.fused_tables = [
                    (d[lv], d[lv] / d[ps]) for lv, ps in self.level_pairs
                ]
            else:
                self.row_scale = d
        self._row_scale_cast: dict[str, np.ndarray] = {}
        # The compiled per-edge walk over the tree's edge schedule; None
        # without a compiler, and for the fused recurrence, which only
        # the NumPy walk runs.
        self._walk = (
            None
            if self.fused_tables is not None
            else native.walker(tree)
        )
        self.stats.build_seconds = time.perf_counter() - t0

    # ------------------------------------------------------------------
    @property
    def branches(self) -> list[np.ndarray]:
        """Branch decomposition (Section V-B), computed once per tree
        schedule and shared by every plan over it."""
        return self._tree.branches()

    @property
    def update_path(self) -> str:
        """``"native"`` when the update stage runs the compiled walk,
        ``"numpy"`` when it runs the level walk."""
        return "numpy" if self._walk is None else "native"

    @property
    def levels(self) -> int:
        return len(self.level_pairs)

    def matches(self, cbm: "CBMMatrix") -> bool:
        """True while this plan is still valid for ``cbm``."""
        return self.fingerprint == _fingerprint(cbm)

    def workspace_bytes(self) -> int:
        return self.pool.idle_bytes()

    # ------------------------------------------------------------------
    def _scipy_handle(self):
        if self._sp is None:
            with self._sp_lock:
                if self._sp is None:
                    import scipy.sparse as sp

                    op = self.operand
                    self._sp = sp.csr_matrix(
                        (op.data, op.indices, op.indptr), shape=op.shape
                    )
        return self._sp

    def _cast_row_scale(self, dtype) -> np.ndarray:
        key = np.dtype(dtype).str
        rs = self._row_scale_cast.get(key)
        if rs is None:
            rs = self.row_scale.astype(dtype)
            self._row_scale_cast[key] = rs
        return rs

    # ------------------------------------------------------------------
    def multiply(
        self, b: np.ndarray, *, out: np.ndarray | None = None, engine: Engine | None = None
    ) -> np.ndarray:
        """Multiplication stage only: ``A′ @ b`` (or ``(AD)′ @ b``).

        The branch replay
        (:class:`~repro.parallel.executor.ThreadedUpdateExecutor`) runs
        after it and applies the update stage itself.  ``out`` must be
        C-contiguous, match the result shape/dtype, and not alias ``b``;
        when given, the product is written into it in place.
        """
        b = check_dense(b, name="b", ndim=2)
        if b.shape[0] != self.shape[1]:
            raise ShapeError.mismatch("CBM matmul", self.shape, b.shape)
        eng = engine or get_default_engine()
        op = self.operand
        if out is not None:
            if out.shape != (self.shape[0], b.shape[1]):
                raise ShapeError.mismatch(
                    "plan out buffer", (self.shape[0], b.shape[1]), out.shape
                )
            if np.shares_memory(out, b):
                raise ValueError("out buffer must not alias the operand b")
        if eng is Engine.SCIPY:
            sp_op = self._scipy_handle()
            fast = (
                _CSR_MATVECS is not None
                and out is not None
                and out.flags.c_contiguous
                and b.flags.c_contiguous
                and b.dtype == op.data.dtype
                and out.dtype == op.data.dtype
            )
            if fast:
                out[...] = 0
                _CSR_MATVECS(
                    op.shape[0],
                    op.shape[1],
                    b.shape[1],
                    sp_op.indptr,
                    sp_op.indices,
                    sp_op.data,
                    b.ravel(),
                    out.ravel(),
                )
                return out
            c = np.asarray(sp_op @ b)
        else:
            c = spmm(op, b, engine=eng)
        if out is not None:
            out[...] = c
            return out
        return c

    # ------------------------------------------------------------------
    def apply_update(self, c: np.ndarray) -> None:
        """Update stage + scaling, in place, from the precomputed schedule.

        Runs the compiled walk when the plan has one and it takes ``c``,
        else the NumPy level walk; the two give the same bits.
        """
        if self.fused_tables is not None:
            apply_level_schedule(
                c,
                self.level_pairs,
                roots=self.roots,
                root_scale=self.root_scale,
                fused_tables=self.fused_tables,
            )
            return
        row_scale = self._cast_row_scale(c.dtype) if self.row_scaled else None
        if self._walk is None or not self._walk(c, row_scale):
            apply_level_schedule(c, self.level_pairs, row_scale=row_scale)

    # ------------------------------------------------------------------
    def execute(
        self, b: np.ndarray, *, out: np.ndarray | None = None, engine: Engine | None = None
    ) -> np.ndarray:
        """Full product ``M @ b`` for a dense 2-D ``b`` (plan's variant M)."""
        c = self.multiply(b, out=out, engine=engine)
        self.apply_update(c)
        self.stats.executions += 1
        return c

    def execute_vec(
        self, v: np.ndarray, *, engine: Engine | None = None
    ) -> np.ndarray:
        """Full product ``M @ v`` for a dense 1-D vector ``v``."""
        v = check_dense(v, name="v", ndim=1)
        if v.shape[0] != self.shape[1]:
            raise ShapeError.mismatch("CBM matvec", self.shape, v.shape)
        eng = engine or get_default_engine()
        if eng is Engine.SCIPY:
            u = np.asarray(self._scipy_handle() @ v)
        else:
            u = spmv(self.operand, v, engine=eng)
        self.apply_update(u)
        self.stats.matvecs += 1
        return u

    # ------------------------------------------------------------------
    def out_buffer(self, columns: int, dtype=np.float32) -> np.ndarray:
        """Acquire a pooled output buffer shaped for this plan's products."""
        return self.pool.acquire((self.shape[0], int(columns)), dtype)

    def stacked_operand(
        self, columns: int, dtype=np.float32, *, quantum: int = 1
    ) -> np.ndarray:
        """Pooled staging buffer for a micro-batched (stacked) operand.

        Shaped ``(shape[1], quantised columns)`` — the serving layer's
        batch collector copies each member's feature block into its
        column span before one stacked :meth:`execute`.  Width
        quantisation (``quantum``) keeps the pool key space small across
        variable batch widths; padding columns come back zero-filled so
        they are inert through the multiply and update stages.
        """
        return self.pool.acquire_stacked(
            self.shape[1], int(columns), dtype, quantum=quantum
        )

    def stacked_out(
        self, columns: int, dtype=np.float32, *, quantum: int = 1
    ) -> np.ndarray:
        """Pooled output buffer matching a :meth:`stacked_operand` width."""
        return self.pool.acquire_stacked(
            self.shape[0], int(columns), dtype, quantum=quantum
        )

    def release(self, buf: np.ndarray) -> None:
        """Return a buffer obtained from :meth:`out_buffer` to the pool."""
        self.pool.release(buf)

    def scalar_ops(self, columns: int):
        """Paper-convention :class:`~repro.core.opcount.OpCount` of one
        :meth:`execute` at the given operand width.

        Priced from the *built* plan (operand nnz, scheduled tree
        edges), so it counts the work of the schedule that actually
        runs; the traced end-to-end benchmark reports it as the runtime
        layer's multiply/update op counts.
        """
        from repro.core.opcount import cbm_rows_spmm_ops

        edges = int(sum(len(lv) for lv, _ in self.level_pairs))
        return cbm_rows_spmm_ops(
            self.operand.nnz, edges, int(columns), variant=self.variant.value
        )

    def describe(self) -> dict:
        """Plan summary used by the CLI and benchmark reports."""
        return {
            "variant": self.variant.value,
            "update": self.update_path,
            "scaling": self.scaling,
            "rows": self.shape[0],
            "cols": self.shape[1],
            "operand_nnz": self.operand.nnz,
            "levels": self.levels,
            "tree_edges": int(sum(len(lv) for lv, _ in self.level_pairs)),
            "branches": len(self.branches),
            "row_scaled": self.row_scaled,
            "build_seconds": self.stats.build_seconds,
            "executions": self.stats.executions,
            "workspace_bytes": self.workspace_bytes(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KernelPlan(variant={self.variant.value}, update_path={self.update_path}, "
            f"scaling={self.scaling}, levels={self.levels}, "
            f"executions={self.stats.executions})"
        )
