"""Delta-set extraction and the delta matrix A′ (paper Sections III & V-A).

Given a compression tree, row ``x`` is represented by the two delta sets

* ``Δ⁺(x) = row(x) \\ row(parent(x))`` — columns switched on, and
* ``Δ⁻(x) = row(parent(x)) \\ row(x)`` — columns switched off,

which the multiplication kernels consume as a single CSR *matrix of
deltas* ``A′`` whose x-th row is ``indicator(Δ⁺) − indicator(Δ⁻)``.  Rows
parented by the virtual node store their full adjacency list (Δ⁺ = row,
Δ⁻ = ∅).  For the AD and DAD variants the delta matrix is column-scaled
by the diagonal vector — see :func:`scale_delta_matrix`.

Delta rows come from one sparse subtraction ``R·A − P·A`` on the 0/1
pattern of ``A`` (``R`` picks the wanted rows, ``P`` their parent rows or
the empty row): SciPy merges every row with its parent's row in compiled
code, a column present in both cancels to zero and is dropped, and the
entries left are the ±1 deltas, already in column order.
:func:`delta_rows` gathers only the rows it is given and their parents'
rows, so :func:`build_delta_matrix` (every row) and a streaming patch (a
few rows) share one path.  :func:`delta_sets` keeps the per-row
set-difference definition as the reference.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.tree import VIRTUAL, CompressionTree
from repro.errors import CompressionError
from repro.sparse.csr import CSRMatrix


def delta_sets(a: CSRMatrix, tree: CompressionTree, x: int) -> tuple[np.ndarray, np.ndarray]:
    """(Δ⁺, Δ⁻) column-index arrays for row ``x`` under ``tree``.

    Rows are sorted-unique in CSR, so both differences are exact set
    operations.  This is the definition the tests hold
    :func:`build_delta_matrix` to; bulk construction goes through
    :func:`delta_rows`.
    """
    row_x = np.asarray(a.row(x))
    p = int(tree.parent[x])
    if p == VIRTUAL:
        return row_x.copy(), np.empty(0, dtype=np.int64)
    row_p = np.asarray(a.row(p))
    plus = np.setdiff1d(row_x, row_p, assume_unique=True)
    minus = np.setdiff1d(row_p, row_x, assume_unique=True)
    return plus, minus


def _gather(a: CSRMatrix, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``indptr`` and column indices of rows ``rows`` of ``a``;
    :data:`VIRTUAL` picks the empty row.

    The rows are read through :meth:`CSRMatrix.extract_rows`, one ragged
    gather, so the cost is the picked rows' nnz, whatever the size of
    ``a``; a CSR that keeps some rows apart from its flat arrays (a
    patched streaming snapshot) answers without building them.
    """
    real = rows != VIRTUAL
    picked = a.extract_rows(rows[real])
    indptr = picked.indptr
    if not real.all():
        length = np.zeros(len(rows), dtype=np.int64)
        length[real] = np.diff(indptr)
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(length, out=indptr[1:])
    return indptr, picked.indices


def delta_rows(a: CSRMatrix, parent: np.ndarray, rows: np.ndarray) -> CSRMatrix:
    """Delta rows ``rows`` of ``a`` under the parent array ``parent``,
    reading only those rows and their parents' rows (in one gather): the
    cost is their nnz, not the matrix's.

    Returns a ``len(rows) × m`` CSR whose i-th row holds +1 at the Δ⁺ and
    −1 at the Δ⁻ columns of row ``rows[i]``, sorted by column.  Values of
    ``a`` are ignored: every stored entry counts as a one.
    """
    rows = np.asarray(rows, dtype=np.int64)
    k, shape = len(rows), (len(rows), a.shape[1])
    indptr, indices = _gather(a, np.concatenate([rows, parent[rows]]))
    mid = indptr[k]
    ones = np.ones(len(indices), dtype=np.float32)
    own = sp.csr_array((ones[:mid], indices[:mid], indptr[: k + 1]), shape=shape)
    par = sp.csr_array((ones[mid:], indices[mid:], indptr[k:] - mid), shape=shape)
    d = own - par
    return CSRMatrix(d.indptr, d.indices, d.data, d.shape, check=False)


def build_delta_matrix(a: CSRMatrix, tree: CompressionTree) -> CSRMatrix:
    """Construct the CSR matrix of deltas A′ for ``a`` under ``tree``.

    Row x holds +1 at Δ⁺ columns and −1 at Δ⁻ columns, with column indices
    sorted — ready for the sparse-dense multiplication stage.  Also
    verifies the per-row delta counts against ``tree.weight`` (they were
    computed from overlaps during construction; a mismatch means the
    distance graph lied).
    """
    n = a.shape[0]
    if tree.n != n:
        raise CompressionError(
            f"tree has {tree.n} rows but the matrix has {n}"
        )
    delta = delta_rows(a, tree.parent, np.arange(n))
    counts = delta.row_nnz()
    bad = np.flatnonzero((tree.weight != 0) & (counts != tree.weight))
    if len(bad):
        x = int(bad[0])
        raise CompressionError(
            f"row {x}: expected {tree.weight[x]} deltas, extracted {counts[x]}"
        )
    return delta


def scale_delta_matrix(delta: CSRMatrix, d: np.ndarray) -> CSRMatrix:
    """Column-scale A′ by the diagonal vector: the (AD)′ matrix of Section V-A.

    Same sparsity pattern as A′ — the paper leans on this to predict (and
    we confirm) that AX and ADX kernels cost the same.
    """
    return delta.scale_columns(np.asarray(d, dtype=delta.data.dtype))


def reconstruct_rows(delta: CSRMatrix, tree: CompressionTree) -> CSRMatrix:
    """Invert the compression: rebuild the original binary CSR from A′.

    Walks the tree in topological order applying delta sets to the parent's
    reconstructed column set.  Used by round-trip tests and by
    :meth:`repro.core.cbm.CBMMatrix.tocsr`.
    """
    n = tree.n
    rows: list[np.ndarray | None] = [None] * n
    for x in tree.topological_order():
        x = int(x)
        lo, hi = delta.indptr[x], delta.indptr[x + 1]
        idx = delta.indices[lo:hi]
        val = delta.data[lo:hi]
        plus = idx[val > 0]
        minus = idx[val < 0]
        p = int(tree.parent[x])
        if p == VIRTUAL:
            if len(minus):
                raise CompressionError(f"virtual-parent row {x} has negative deltas")
            rows[x] = plus.copy()
        else:
            base = rows[p]
            if base is None:
                raise CompressionError(f"row {x} visited before its parent {p}")
            merged = np.setdiff1d(
                np.union1d(base, plus), minus, assume_unique=False
            )
            rows[x] = merged
    indptr = np.zeros(n + 1, dtype=np.int64)
    for x in range(n):
        indptr[x + 1] = indptr[x] + len(rows[x])  # type: ignore[arg-type]
    indices = np.concatenate(rows) if n else np.empty(0, dtype=np.int64)
    data = np.ones(len(indices), dtype=np.float32)
    return CSRMatrix(indptr, indices, data, delta.shape, check=False)
