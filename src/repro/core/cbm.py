"""The Compressed Binary Matrix (CBM) — public container and kernels.

A :class:`CBMMatrix` holds a binary matrix ``A`` (or its column/row scaled
forms ``AD`` / ``DAD``) as a compression tree plus a CSR delta matrix, and
multiplies with dense operands per Sections IV–V of the paper:

1. **Multiplication stage** — one sparse-dense product ``A′ @ B`` (or
   ``(AD)′ @ B``) on the shared high-performance backend.
2. **Update stage** — propagate partial results down the compression tree.
   The paper performs one ``axpy`` per tree edge in topological order;
   the planned path runs exactly that loop in C
   (:mod:`repro.runtime.native`).  Without a compiler, and on the
   per-call reference path, edges are grouped by tree depth and each
   level is applied as one vectorised batched row addition (parents of
   level-k rows live strictly above level k, so a level is
   dependency-free).  The branch-parallel execution of Section V-B lives
   in :mod:`repro.parallel`.

For ``DADX`` two update modes exist: ``"fused"`` follows Eq. 6 literally
(scale while updating), ``"deferred"`` accumulates unscaled partial sums
and applies one final row scaling — mathematically identical, fewer flops;
the ablation benchmark compares them.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from repro.core import opcount
from repro.core.deltas import reconstruct_rows, scale_delta_matrix
from repro.core.tree import CompressionTree
from repro.errors import ShapeError
from repro.runtime.plan import KernelPlan
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import Engine, spmm, spmv
from repro.utils.validation import check_dense, ensure_array

ScalingMode = Literal["deferred", "fused"]


class Variant(enum.Enum):
    """Which factorised form the CBM matrix represents."""

    A = "A"  # plain binary matrix
    AD = "AD"  # column-scaled: A @ diag(d)
    DAD = "DAD"  # row- and column-scaled: diag(d) @ A @ diag(d)
    D1AD2 = "D1AD2"  # general two-diagonal form: diag(d1) @ A @ diag(d2)


@dataclass
class CBMMatrix:
    """A binary (or diagonally scaled binary) matrix in CBM format.

    Build instances with :func:`repro.core.builder.build_cbm`; the
    constructor is public for tests and power users but performs no
    compression itself.

    Attributes
    ----------
    tree:
        The compression tree (parents, per-row delta counts).
    delta:
        The *unscaled* delta matrix A′ with entries in {+1, −1}.
    variant:
        Which product the matrix represents (A, AD, DAD).
    diag:
        The (right) diagonal vector d for AD/DAD/D1AD2 variants (None for
        A).  For DAD the same vector also scales rows.
    diag_left:
        The left diagonal d1 of the general D1AD2 form (required for that
        variant, ignored otherwise) — the paper notes the format "can be
        easily extended" to distinct diagonals; this is that extension.
    source_nnz:
        nnz of the original matrix; backs Property-1/2 checks and the
        compression-ratio computation.
    """

    tree: CompressionTree
    delta: CSRMatrix
    variant: Variant = Variant.A
    diag: np.ndarray | None = None
    diag_left: np.ndarray | None = None
    source_nnz: int = 0
    alpha: int | None = 0
    _scaled_delta: CSRMatrix | None = field(default=None, repr=False, compare=False)
    _plans: dict = field(default_factory=dict, repr=False, compare=False)
    _plan_version: int = field(default=0, repr=False, compare=False)
    _plan_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.tree.n != self.delta.shape[0]:
            raise ShapeError(
                f"tree covers {self.tree.n} rows, delta matrix has {self.delta.shape[0]}"
            )
        self.variant = Variant(self.variant)
        if self.variant is not Variant.A:
            if self.diag is None:
                raise ShapeError(f"variant {self.variant.value} requires a diagonal vector")
            self.diag = ensure_array(self.diag, dtype=np.float64, name="diag").ravel()
            if len(self.diag) != self.delta.shape[1]:
                raise ShapeError.mismatch("diag", (len(self.diag),), self.delta.shape)
            if np.any(self.diag == 0):
                raise ValueError(
                    "diagonal entries must be non-zero for AD/DAD round-trips"
                )
        if self.variant is Variant.DAD and self.delta.shape[0] != self.delta.shape[1]:
            raise ShapeError(
                "variant DAD requires a square matrix (one diagonal scales "
                "both sides); use D1AD2 for rectangular matrices"
            )
        if self.variant is Variant.D1AD2:
            if self.diag_left is None:
                raise ShapeError("variant D1AD2 requires diag_left (d1) and diag (d2)")
            self.diag_left = ensure_array(
                self.diag_left, dtype=np.float64, name="diag_left"
            ).ravel()
            if len(self.diag_left) != self.delta.shape[0]:
                raise ShapeError.mismatch(
                    "diag_left", (len(self.diag_left),), self.delta.shape
                )
            if np.any(self.diag_left == 0):
                raise ValueError("diag_left entries must be non-zero")

    def _row_diag(self) -> np.ndarray:
        """The row-scaling diagonal: d for DAD, d1 for D1AD2."""
        return self.diag_left if self.variant is Variant.D1AD2 else self.diag

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.delta.shape

    @property
    def n(self) -> int:
        return self.delta.shape[0]

    @property
    def num_deltas(self) -> int:
        """Total delta count — Property 1 bounds this by ``source_nnz``."""
        return self.delta.nnz

    def _multiply_operand(self) -> CSRMatrix:
        """The matrix fed to the multiplication stage: A′ or (AD)′ (cached)."""
        if self.variant is Variant.A:
            return self.delta
        if self._scaled_delta is None:
            self._scaled_delta = scale_delta_matrix(self.delta, self.diag)
        return self._scaled_delta

    # ------------------------------------------------------------------
    # Plan/execute runtime (repro.runtime)
    # ------------------------------------------------------------------
    @property
    def plan_version(self) -> int:
        """Monotonic counter bumped by :meth:`invalidate`; plans snapshot it."""
        return self._plan_version

    def plan(self, *, scaling: ScalingMode = "deferred") -> KernelPlan:
        """The cached :class:`~repro.runtime.plan.KernelPlan` for this config.

        Built on first use and reused by every subsequent
        :meth:`matmul`/:meth:`matvec` with the same options; rebuilt
        automatically when :meth:`invalidate` was called or the
        tree/delta/diagonal objects were replaced.
        """
        with self._plan_lock:
            pl = self._plans.get(scaling)
            if pl is None or not pl.matches(self):
                pl = KernelPlan(self, scaling=scaling)
                self._plans[scaling] = pl
            return pl

    def invalidate(self) -> None:
        """Drop every cached plan and derived operand.

        Call after mutating the tree, delta matrix, or diagonals in
        place; replacing those attributes with *new* objects is detected
        automatically, but in-place mutation is invisible to the plan
        fingerprint.
        """
        with self._plan_lock:
            self._plan_version += 1
            self._plans.clear()
            self._scaled_delta = None

    def drain_workspaces(self) -> int:
        """Free the idle workspace buffers of every cached plan.

        Returns the number of bytes released.  Used when the matrix is
        being retired (the serving layer hot-swapped its archive): the
        plans stay usable for in-flight calls, but their pooled buffers
        should not outlive the matrix's serving life.
        """
        with self._plan_lock:
            plans = list(self._plans.values())
        return sum(p.pool.drain() for p in plans)

    # ------------------------------------------------------------------
    def matmul(
        self,
        b: np.ndarray,
        *,
        scaling: ScalingMode = "deferred",
        engine: Engine | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Dense product ``M @ b`` where M is A, AD, or DAD per the variant.

        Executes through the cached :class:`KernelPlan` (plan once,
        execute per call).  ``out``, if given, receives the result and
        must be C-contiguous, correctly shaped, and must not alias ``b``.
        :meth:`matmul_unplanned` is the per-call reference path.
        """
        return self.plan(scaling=scaling).execute(b, out=out, engine=engine)

    def matmul_unplanned(
        self,
        b: np.ndarray,
        *,
        scaling: ScalingMode = "deferred",
        engine: Engine | None = None,
    ) -> np.ndarray:
        """Reference per-call path: recompute the schedule on every product.

        This is the pre-runtime behaviour — the level grouping is taken
        from the tree per call, the diagonal is re-broadcast per call, and
        the update stage is the NumPy level walk.  The test suite compares
        the planned path against it; the runtime benchmark measures the gap.
        """
        b = check_dense(b, name="b", ndim=2)
        if b.shape[0] != self.shape[1]:
            raise ShapeError.mismatch("CBM matmul", self.shape, b.shape)
        c = spmm(self._multiply_operand(), b, engine=engine)
        self._update_levels(c, scaling)
        return c

    def matvec(
        self,
        v: np.ndarray,
        *,
        scaling: ScalingMode = "deferred",
        engine: Engine | None = None,
    ) -> np.ndarray:
        """Dense product ``M @ v`` for a 1-D vector ``v`` (planned path)."""
        return self.plan(scaling=scaling).execute_vec(v, engine=engine)

    def matvec_unplanned(
        self,
        v: np.ndarray,
        *,
        scaling: ScalingMode = "deferred",
        engine: Engine | None = None,
    ) -> np.ndarray:
        """Reference per-call ``M @ v``.

        This is the paper's Section IV kernel in its native shape: one
        sparse matrix–vector product with the delta matrix, then scalar
        updates ``u_x += u_{r_x}`` down the compression tree (Eq. 5) —
        no 2-D reshaping, no column dimension.
        """
        v = check_dense(v, name="v", ndim=1)
        if v.shape[0] != self.shape[1]:
            raise ShapeError.mismatch("CBM matvec", self.shape, v.shape)
        u = spmv(self._multiply_operand(), v, engine=engine)
        parent = self.tree.parent
        row_scaled = self.variant in (Variant.DAD, Variant.D1AD2)
        if row_scaled and scaling == "fused":
            d = self._row_diag()
            roots = self.tree.roots
            u[roots] *= d[roots]
            for lv in self.tree.levels():
                ps = parent[lv]
                u[lv] = d[lv] * (u[ps] / d[ps] + u[lv])
            return u
        for lv in self.tree.levels():
            u[lv] += u[parent[lv]]
        if row_scaled:
            u *= np.asarray(self._row_diag())
        return u

    def __matmul__(self, b) -> np.ndarray:
        b = np.asarray(b)
        if b.ndim == 1:
            return self.matvec(b)
        return self.matmul(b)

    # ------------------------------------------------------------------
    def _update_levels(self, c: np.ndarray, scaling: ScalingMode) -> None:
        """Vectorised level-schedule update, mutating ``c`` in place."""
        parent = self.tree.parent
        row_scaled = self.variant in (Variant.DAD, Variant.D1AD2)
        if row_scaled and scaling == "fused":
            d = self._row_diag()
            roots = self.tree.roots
            c[roots] *= d[roots, None]
            for lv in self.tree.levels():
                ps = parent[lv]
                c[lv] = d[lv, None] * (c[ps] / d[ps, None] + c[lv])
            return
        for lv in self.tree.levels():
            c[lv] += c[parent[lv]]
        if row_scaled:
            c *= np.asarray(self._row_diag())[:, None]

    # ------------------------------------------------------------------
    def tocsr(self) -> CSRMatrix:
        """Decompress back to CSR (binary for A; scaled values for AD/DAD)."""
        binary = reconstruct_rows(self.delta, self.tree)
        if self.variant is Variant.A:
            return binary
        scaled = binary.scale_columns(np.asarray(self.diag, dtype=np.float64))
        if self.variant in (Variant.DAD, Variant.D1AD2):
            scaled = scaled.scale_rows(np.asarray(self._row_diag(), dtype=np.float64))
        return scaled

    def todense(self) -> np.ndarray:
        return self.tocsr().toarray()

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Paper-convention CBM footprint (delta CSR + tree edges)."""
        return opcount.cbm_memory_bytes(self.delta, self.tree)

    def compression_ratio(self) -> float:
        """``S_CSR / S_CBM`` against the paper's CSR accounting of the source."""
        n = self.n
        s_csr = 8 * self.source_nnz + 4 * (n + 1)
        return s_csr / self.memory_bytes()

    def scalar_ops(self, p: int) -> opcount.OpCount:
        """Scalar operations of one ``matmul`` against p dense columns."""
        return opcount.cbm_spmm_ops(self.delta, self.tree, p, variant=self.variant.value)

    def stats(self) -> dict:
        """Compression summary for reports: deltas, tree shape, footprint."""
        out = self.tree.stats()
        out.update(
            {
                "variant": self.variant.value,
                "alpha": self.alpha,
                "source_nnz": self.source_nnz,
                "deltas": self.num_deltas,
                "memory_bytes": self.memory_bytes(),
                "compression_ratio": self.compression_ratio() if self.source_nnz else None,
            }
        )
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CBMMatrix(variant={self.variant.value}, shape={self.shape}, "
            f"deltas={self.num_deltas}, tree_edges={self.tree.num_tree_edges}, "
            f"alpha={self.alpha})"
        )
