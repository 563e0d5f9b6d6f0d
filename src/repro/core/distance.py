"""Distance-graph construction for CBM compression (paper Section III).

The distance graph has one node per matrix row plus a virtual node for the
empty row.  The weight of edge (y, x) is the Hamming distance between rows
y and x — the number of deltas needed to turn row y into row x:

    w(y, x) = nnz(x) + nnz(y) - 2 * |row(x) ∩ row(y)|

The virtual node connects to every row x with weight ``nnz(x)`` (compress
against the empty row = store the adjacency list).

Two construction strategies are provided:

* :func:`candidate_edges` — the production path.  Row overlaps are the
  entries of ``A·Aᵀ`` (the paper's approach, Section VIII); pairs with
  zero overlap are never candidates because their edge can never beat
  the virtual edge.  Pruning (Section V-C) and the MST-safety filter are
  applied here, so downstream algorithms see a small edge set.  The
  product is never formed: ``runtime/candidates.c`` counts each row's
  overlaps in int32 counters by walking the rows of ``Aᵀ``, and applies
  the weights and the filter in the same pass, on the calling thread.
  Without the compiled library, or on input the C code does not take,
  :func:`_scipy_candidates` forms ``A @ Aᵀ`` with SciPy and filters its
  entries with NumPy passes.  Both give the same arrays, edges ordered
  by destination, then source.  CSR arrays that neither may read raise
  :class:`~repro.errors.FormatError` first.
* :func:`brute_force_distance_graph` — an O(n² · deg) reference used by
  the test suite to validate the production path on small matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CompressionError, FormatError, NotBinaryError
from repro.runtime import native
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import sparse_sparse_matmul

# The longest row walk an int32 counter is sure to hold.
_MAX_WALK = np.iinfo(np.int32).max


@dataclass
class DistanceGraph:
    """Candidate compression edges of a binary matrix.

    ``src``/``dst``/``weight`` are parallel arrays of directed edges
    y → x meaning "compress row x with respect to row y" at a cost of
    ``weight`` deltas.  Virtual-node edges are *implicit*: every row can
    always be compressed against the empty row at cost ``row_nnz[x]``.

    ``directed`` records whether pruning made the edge set asymmetric
    (requiring an arborescence instead of an MST).
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    row_nnz: np.ndarray
    directed: bool
    alpha: int | None

    @property
    def num_edges(self) -> int:
        return len(self.src)

    def validate(self) -> None:
        """Raise :class:`~repro.errors.CompressionError` unless the arrays
        are equally long, every edge joins two distinct rows ``0 <= src,
        dst < n`` at a weight ``>= 0``, and ``row_nnz`` holds n counts
        ``>= 0``."""
        if not len(self.src) == len(self.dst) == len(self.weight):
            raise CompressionError(
                f"distance graph arrays differ in length: {len(self.src)} sources, "
                f"{len(self.dst)} destinations, {len(self.weight)} weights"
            )
        # Each bound is written so that a NaN fails it.
        if len(self.row_nnz) != self.n:
            raise CompressionError(f"{len(self.row_nnz)} row counts for {self.n} rows")
        if self.n and not self.row_nnz.min() >= 0:
            raise CompressionError("negative row count")
        if not self.num_edges:
            return
        lo = np.minimum(self.src.min(), self.dst.min())
        hi = np.maximum(self.src.max(), self.dst.max())
        if not (lo >= 0 and hi < self.n):
            raise CompressionError(f"edge endpoint outside rows 0..{self.n - 1}")
        if not self.weight.min() >= 0:
            raise CompressionError("negative edge weight")
        if np.any(self.src == self.dst):
            raise CompressionError("self-loop edge")


def candidate_edges(a: CSRMatrix, alpha: int | None = 0) -> DistanceGraph:
    """Build the pruned distance graph of binary matrix ``a``.

    ``alpha=None`` requests the un-pruned symmetric graph of Section III
    (alpha = 0 in the paper's experiments): all overlapping pairs survive a
    *safety filter* — an undirected edge is kept only when it can possibly
    appear in an MST of the virtual-node-extended graph, i.e. when
    ``w(x, y) < max(nnz(x), nnz(y))`` (cycle property through the virtual
    node).  This filter never changes the MST weight and keeps the edge
    count near-linear in practice.

    ``alpha >= 0`` applies the paper's pruning rule: a directed edge y → x
    survives only when compressing x against y *saves more than alpha
    deltas*, i.e. ``nnz(x) - w(y, x) > alpha``, equivalently
    ``2·overlap - nnz(y) > alpha``.  (The paper's Example 1 states the
    sign the other way round, but its measured behaviour — Table II's
    compression ratios falling and the virtual root's out-degree growing
    as alpha rises, with fewer candidate edges — pins this orientation.)
    The result is directed and must be spanned by a minimum-cost
    arborescence.

    Edges come out by destination x, then source y, ascending.  Raises
    :class:`~repro.errors.FormatError` on CSR arrays neither path may
    read (see :func:`_require_structure`).  The compiled pass gives the
    edges unless the library is unavailable or the input is one it does
    not take; SciPy's ``A @ Aᵀ`` gives the same arrays then.
    """
    if not a.is_binary():
        raise NotBinaryError("CBM compression requires a binary matrix")
    if alpha is not None and alpha < 0:
        raise ValueError(f"alpha must be >= 0 or None, got {alpha}")
    _require_structure(a)
    g = _compiled_candidates(a, alpha)
    return g if g is not None else _scipy_candidates(a, alpha)


def _require_structure(a: CSRMatrix) -> None:
    """Raise :class:`~repro.errors.FormatError` unless ``indptr`` has n + 1
    entries rising from 0 to ``len(indices)``, the data is as long as the
    indices and every column index is in range.  Both paths read out of
    bounds otherwise: SciPy's kernels crash or return garbage on such an
    unchecked matrix (``check=False``).  Unlike
    :meth:`~repro.sparse.csr.CSRMatrix.check_format`, this does not
    require sorted columns, which neither path needs."""
    n, m = a.shape
    nnz = len(a.indices)
    if len(a.indptr) != n + 1:
        raise FormatError(f"indptr has length {len(a.indptr)}, expected {n + 1}")
    if len(a.data) != nnz:
        raise FormatError(f"indices ({nnz}) and data ({len(a.data)}) differ in length")
    if a.indptr[0] != 0 or a.indptr[-1] != nnz:
        raise FormatError("indptr must start at 0 and end at nnz")
    if np.any(a.indptr[1:] < a.indptr[:-1]):
        raise FormatError("indptr must be non-decreasing")
    if nnz and (a.indices.min() < 0 or a.indices.max() >= m):
        raise FormatError(f"column index out of range for {a.shape}")


def _compiled_candidates(
    a: CSRMatrix, alpha: int | None, *, capacity: int | None = None
) -> DistanceGraph | None:
    """:func:`candidate_edges` from the compiled pass, for a matrix that
    passed :func:`_require_structure`; None when the library is
    unavailable, ``alpha`` is neither None nor an integer below 2**62, or
    a row's walk (the summed lengths of its columns) could overflow an
    int32 counter.  ``capacity`` (edges per call) does not change the
    output; its default, max(n, nnz / 4), holds any one row's edges, and
    a last call's unused room stays small."""
    lib = native.load()
    if lib is None:
        return None
    if alpha is not None and not (isinstance(alpha, (int, np.integer)) and alpha < 2**62):
        return None
    n = a.shape[0]
    indptr = np.ascontiguousarray(a.indptr, dtype=np.int64)
    indices = np.ascontiguousarray(a.indices, dtype=np.int64)
    at = a.transpose()
    tptr = np.ascontiguousarray(at.indptr, dtype=np.int64)
    trows = np.ascontiguousarray(at.indices, dtype=np.int64)
    del at
    # walked[k]: the counter increments of the entries before entry k.
    walked = np.zeros(len(indices) + 1, dtype=np.int64)
    np.cumsum(np.diff(tptr)[indices], out=walked[1:])
    if n and np.diff(walked[indptr]).max() > _MAX_WALK:
        return None
    del walked
    row_nnz = a.row_nnz().astype(np.int64)
    counters = np.zeros(n, dtype=np.int32)
    touched = np.empty(n, dtype=np.int64)
    bits = np.zeros((n + 63) // 64, dtype=np.uint64)
    args = (
        indptr.ctypes.data, indices.ctypes.data, tptr.ctypes.data, trows.ctypes.data,
        row_nnz.ctypes.data, -1 if alpha is None else int(alpha),
        counters.ctypes.data, touched.ctypes.data, bits.ctypes.data,
    )
    segments = _emit(lib, n, args, max(n, len(indices) // 4) if capacity is None else capacity)
    src, dst, weight = _join(segments)
    return DistanceGraph(
        n=n,
        src=src,
        dst=dst,
        weight=weight,
        row_nnz=row_nnz,
        directed=alpha is not None,
        alpha=None if alpha is None else int(alpha),
    )


def _emit(lib, n: int, args: tuple, capacity: int) -> list:
    """The edges of rows ``0..n`` as [src, dst, weight] segments, one per
    call.  A call stops before a row its buffers may not hold, and the
    next resumes there with fresh buffers."""
    segments = []
    lo = 0
    next_row = np.empty(1, dtype=np.int64)
    while lo < n:
        out = [np.empty(capacity, dtype=np.int64) for _ in range(3)]
        count = lib.cbm_candidates(
            lo, n, *args, capacity, *(o.ctypes.data for o in out), next_row.ctypes.data
        )
        if next_row[0] == lo:  # one row may have more edges than this
            capacity *= 2
            continue
        lo = int(next_row[0])
        segments.append([o[:count] for o in out])
    return segments


def _join(segments: list) -> list[np.ndarray]:
    """The segments' sources, destinations and weights, each array joined
    in order and cut to size; each segment array is dropped once copied,
    so the peak is the segments plus one joined array."""
    joined = []
    for k in range(3):
        joined.append(np.concatenate([s[k] for s in segments] or [np.empty(0, dtype=np.int64)]))
        for s in segments:
            s[k] = None
    return joined


def _overlaps(a: CSRMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Off-diagonal entries of A @ Aᵀ as (x, y, overlap) triplets.

    The product runs on the 0/1 pattern in float64: SciPy sums in the
    data's dtype, which for bool data is a logical or and for int8 wraps.
    """
    pattern = CSRMatrix(
        a.indptr, a.indices, np.ones_like(a.data, dtype=np.float64), a.shape, check=False
    )
    aat = sparse_sparse_matmul(pattern, pattern.transpose())
    coo = aat.tocoo()
    off = coo.rows != coo.cols
    return coo.rows[off], coo.cols[off], coo.data[off].astype(np.int64)


def _scipy_candidates(a: CSRMatrix, alpha: int | None = 0) -> DistanceGraph:
    """:func:`candidate_edges` from SciPy's ``A @ Aᵀ`` and NumPy passes over
    its entries: the path without the compiled library, and for input the
    C code does not take."""
    if not a.is_binary():
        raise NotBinaryError("CBM compression requires a binary matrix")
    n = a.shape[0]
    row_nnz = a.row_nnz().astype(np.int64)
    xs, ys, ov = _overlaps(a)
    # weight of edge y -> x (same as x -> y):
    w = row_nnz[xs] + row_nnz[ys] - 2 * ov
    if alpha is None:
        # One record per undirected pair (src > dst by convention).
        keep = (w < np.maximum(row_nnz[xs], row_nnz[ys])) & (ys > xs)
        return DistanceGraph(
            n=n,
            src=ys[keep],
            dst=xs[keep],
            weight=w[keep],
            row_nnz=row_nnz,
            directed=False,
            alpha=None,
        )
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0 or None, got {alpha}")
    # Pruning rule, Section V-C: keep y -> x iff it saves > alpha deltas.
    keep = (2 * ov - row_nnz[ys]) > alpha
    return DistanceGraph(
        n=n,
        src=ys[keep],
        dst=xs[keep],
        weight=w[keep],
        row_nnz=row_nnz,
        directed=True,
        alpha=int(alpha),
    )


def brute_force_distance_graph(a: CSRMatrix, alpha: int | None = 0) -> DistanceGraph:
    """Reference construction comparing every row pair explicitly.

    Quadratic in n — test-only.  Produces the same edge set as
    :func:`candidate_edges` (up to ordering) including the safety filter /
    pruning rule, so the two can be compared edge-for-edge.
    """
    if not a.is_binary():
        raise NotBinaryError("CBM compression requires a binary matrix")
    n = a.shape[0]
    row_nnz = a.row_nnz().astype(np.int64)
    rows = [np.asarray(a.row(i)) for i in range(n)]
    src, dst, wts = [], [], []
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            ov = len(np.intersect1d(rows[x], rows[y], assume_unique=True))
            if ov == 0:
                continue
            w = int(row_nnz[x] + row_nnz[y] - 2 * ov)
            if alpha is None:
                if x < y and w < max(row_nnz[x], row_nnz[y]):
                    src.append(y)
                    dst.append(x)
                    wts.append(w)
            else:
                if 2 * ov - row_nnz[y] > alpha:
                    src.append(y)
                    dst.append(x)
                    wts.append(w)
    return DistanceGraph(
        n=n,
        src=np.asarray(src, dtype=np.int64),
        dst=np.asarray(dst, dtype=np.int64),
        weight=np.asarray(wts, dtype=np.int64),
        row_nnz=row_nnz,
        directed=alpha is not None,
        alpha=alpha,
    )
