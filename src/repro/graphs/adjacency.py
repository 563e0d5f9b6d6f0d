"""Building and checking binary adjacency matrices."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import ShapeError
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import sparse_sparse_matmul
from repro.utils.validation import ensure_array


def adjacency_from_edges(
    edges,
    n: int,
    *,
    undirected: bool = True,
    remove_self_loops: bool = True,
    dtype=np.float32,
) -> CSRMatrix:
    """Build a simple binary adjacency matrix from an (E, 2) edge array.

    Duplicate edges are collapsed to a single 1 (the matrix stays binary),
    self-loops are dropped unless ``remove_self_loops=False``, and with
    ``undirected=True`` both orientations are stored.
    """
    e = ensure_array(edges, dtype=np.int64, name="edges")
    if e.size == 0:
        e = e.reshape(0, 2)
    if e.ndim != 2 or e.shape[1] != 2:
        raise ShapeError(f"edges must be (E, 2), got {e.shape}")
    if remove_self_loops:
        e = e[e[:, 0] != e[:, 1]]
    coo = COOMatrix.from_edges(e, (n, n), symmetric=undirected, dtype=dtype)
    csr = coo.tocsr()
    # Collapse duplicates back to binary.
    csr.data.fill(1)
    csr.data = csr.data.astype(dtype, copy=False)
    return csr


def add_self_loops(a: CSRMatrix) -> CSRMatrix:
    """Return ``A + I`` with existing self-loops left at 1 (binary result).

    This is the ``(A + I)`` of the GCN normalisation; the paper notes that
    for an unweighted graph it is again a binary matrix.  Every stored
    entry of ``a`` counts, whatever its value (a stored zero or a weight
    becomes 1): SciPy's compiled sparse add merges the 0/1 pattern of
    ``a`` with the identity, and the result holds ones in ``a``'s dtype.
    """
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"add_self_loops requires a square matrix, got {a.shape}")
    pattern = sp.csr_array((np.ones(a.nnz, dtype=np.int8), a.indices, a.indptr), shape=a.shape)
    merged = pattern + sp.eye_array(n, dtype=np.int8, format="csr")
    return CSRMatrix(
        merged.indptr, merged.indices, np.ones(merged.nnz, dtype=a.data.dtype), a.shape, check=False
    )


def is_symmetric(a: CSRMatrix) -> bool:
    """True when the sparsity pattern and values equal those of ``aᵀ``."""
    t = a.transpose()
    return (
        np.array_equal(a.indptr, t.indptr)
        and np.array_equal(a.indices, t.indices)
        and np.allclose(a.data, t.data)
    )


def is_undirected_simple(a: CSRMatrix) -> bool:
    """True for a square, binary, symmetric matrix with a zero diagonal."""
    if a.shape[0] != a.shape[1] or not a.is_binary():
        return False
    rows = np.repeat(np.arange(a.shape[0]), a.row_nnz())
    if np.any(rows == a.indices):
        return False
    return is_symmetric(a)


def overlap_matrix(a: CSRMatrix) -> CSRMatrix:
    """Row-overlap matrix ``A @ Aᵀ`` for a binary ``a``.

    Entry (x, y) counts the shared non-zero columns of rows x and y — the
    quantity from which row Hamming distances are derived during CBM
    construction (Section VIII notes this is the memory hot spot of the
    paper's implementation; :mod:`repro.core.builder` offers a clustered
    variant to bound it).
    """
    a.require_binary()
    return sparse_sparse_matmul(a, a.transpose())
