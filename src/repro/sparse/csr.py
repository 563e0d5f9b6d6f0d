"""Compressed Sparse Row (CSR) matrix.

This is the baseline format of the paper: the graph adjacency matrix is
held in CSR and multiplied with dense matrices by MKL.  Here the container
is implemented from scratch on NumPy arrays; the multiplication kernels
live in :mod:`repro.sparse.ops` so the same container can be driven by
either the reference or the SciPy engine.

Memory accounting follows the paper's convention (single-precision values,
32-bit indices): ``S_CSR = 4*nnz (values) + 4*nnz (column indices) +
4*(n+1) (row pointers)`` which reproduces the ``S_CSR`` column of Table I
exactly for all eight datasets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from repro.errors import FormatError, NotBinaryError, ShapeError
from repro.utils.validation import ensure_array

if TYPE_CHECKING:  # pragma: no cover
    from repro.sparse.coo import COOMatrix
    from repro.sparse.csc import CSCMatrix


class CSRMatrix:
    """Sparse matrix in CSR format: ``indptr``, ``indices``, ``data``.

    Rows are stored contiguously; row ``i`` occupies the slice
    ``indices[indptr[i]:indptr[i+1]]``.  Column indices within a row are
    kept sorted and unique (enforced by :meth:`check_format`), which the
    delta-extraction code in :mod:`repro.core.deltas` relies on for its
    merge-based set operations.
    """

    __slots__ = ("indptr", "indices", "data", "shape")

    def __init__(self, indptr, indices, data, shape: tuple[int, int], *, check: bool = True):
        self.indptr = ensure_array(indptr, dtype=np.int64, name="indptr").ravel()
        self.indices = ensure_array(indices, dtype=np.int64, name="indices").ravel()
        self.data = ensure_array(data, name="data").ravel()
        if len(shape) != 2 or shape[0] < 0 or shape[1] < 0:
            raise ShapeError(f"invalid CSR shape {shape}")
        self.shape = (int(shape[0]), int(shape[1]))
        if check:
            self.check_format()

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return len(self.data)

    def check_format(self) -> None:
        """Validate all CSR structural invariants.

        Checks pointer monotonicity and bounds, index ranges, array length
        agreement, and per-row sorted-unique column indices.
        """
        n, m = self.shape
        if len(self.indptr) != n + 1:
            raise FormatError(f"indptr has length {len(self.indptr)}, expected {n + 1}")
        if len(self.indices) != len(self.data):
            raise FormatError(
                f"indices ({len(self.indices)}) and data ({len(self.data)}) differ in length"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise FormatError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise FormatError("indptr must be non-decreasing")
        if self.nnz:
            if self.indices.min() < 0 or self.indices.max() >= m:
                raise FormatError(f"column index out of range for {self.shape}")
            # Sorted-unique within each row: strictly increasing except at
            # row boundaries.
            diffs = np.diff(self.indices)
            boundary = np.zeros(len(diffs), dtype=bool)
            inner = self.indptr[1:-1]
            boundary[inner[(inner > 0) & (inner < len(self.indices))] - 1] = True
            if np.any((diffs <= 0) & ~boundary):
                raise FormatError("column indices must be sorted and unique within rows")

    # ------------------------------------------------------------------
    def row(self, i: int) -> np.ndarray:
        """Column indices of row ``i`` (a view, do not mutate)."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def row_values(self, i: int) -> np.ndarray:
        return self.data[self.indptr[i] : self.indptr[i + 1]]

    def row_nnz(self) -> np.ndarray:
        """Vector of per-row non-zero counts."""
        return np.diff(self.indptr)

    def is_binary(self) -> bool:
        return bool(np.all(self.data == 1))

    def require_binary(self) -> None:
        if not self.is_binary():
            raise NotBinaryError("matrix has values outside {0, 1}")

    # ------------------------------------------------------------------
    def tocoo(self) -> "COOMatrix":
        from repro.sparse.coo import COOMatrix

        rows = np.repeat(np.arange(self.shape[0], dtype=np.int64), self.row_nnz())
        return COOMatrix(rows, self.indices.copy(), self.data.copy(), self.shape)

    def tocsc(self) -> "CSCMatrix":
        """Column-major copy via SciPy's compiled CSR → CSC pass (O(nnz)).

        Row indices come out sorted within each column and the values keep
        their dtype.
        """
        from repro.sparse.csc import CSCMatrix

        csc = sp.csr_array((self.data, self.indices, self.indptr), shape=self.shape).tocsc()
        return CSCMatrix(csc.indptr, csc.indices, csc.data, self.shape, check=False)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        rows = np.repeat(np.arange(self.shape[0]), self.row_nnz())
        out[rows, self.indices] = self.data
        return out

    def transpose(self) -> "CSRMatrix":
        """Transpose by reading the CSC form as the CSR form of ``selfᵀ`` (O(nnz))."""
        csc = self.tocsc()
        return CSRMatrix(
            csc.indptr, csc.indices, csc.data, (self.shape[1], self.shape[0]), check=False
        )

    def extract_rows(self, rows) -> "CSRMatrix":
        """Row submatrix (full column width) in the given row order.

        One ragged gather copies every picked row at once, so the cost is
        the picked rows' nnz, whatever the size of the matrix.
        """
        rows = ensure_array(rows, dtype=np.int64, name="rows").ravel()
        if len(rows) and (rows.min() < 0 or rows.max() >= self.shape[0]):
            raise ShapeError(f"row indices out of range for {self.shape}")
        start = self.indptr[rows]
        length = self.indptr[rows + 1] - start
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(length, out=indptr[1:])
        take = np.arange(indptr[-1]) + np.repeat(start - indptr[:-1], length)
        return CSRMatrix(
            indptr, self.indices[take], self.data[take], (len(rows), self.shape[1]), check=False
        )

    def copy(self) -> "CSRMatrix":
        return CSRMatrix(
            self.indptr.copy(), self.indices.copy(), self.data.copy(), self.shape, check=False
        )

    # ------------------------------------------------------------------
    def scale_columns(self, d: np.ndarray) -> "CSRMatrix":
        """Return ``self @ diag(d)`` — every stored (i, j) scaled by ``d[j]``."""
        d = ensure_array(d, name="d").ravel()
        if len(d) != self.shape[1]:
            raise ShapeError.mismatch("scale_columns", self.shape, (len(d),))
        return CSRMatrix(
            self.indptr, self.indices, self.data * d[self.indices], self.shape, check=False
        )

    def scale_rows(self, d: np.ndarray) -> "CSRMatrix":
        """Return ``diag(d) @ self`` — every stored (i, j) scaled by ``d[i]``."""
        d = ensure_array(d, name="d").ravel()
        if len(d) != self.shape[0]:
            raise ShapeError.mismatch("scale_rows", (len(d),), self.shape)
        rows = np.repeat(np.arange(self.shape[0]), self.row_nnz())
        return CSRMatrix(self.indptr, self.indices, self.data * d[rows], self.shape, check=False)

    # ------------------------------------------------------------------
    def memory_bytes(self, *, value_bytes: int = 4, index_bytes: int = 4) -> int:
        """Storage footprint under the paper's accounting (see module docstring)."""
        n = self.shape[0]
        return value_bytes * self.nnz + index_bytes * self.nnz + index_bytes * (n + 1)

    def __matmul__(self, other):
        from repro.sparse.ops import spmm, spmv

        other = np.asarray(other)
        if other.ndim == 1:
            return spmv(self, other)
        return spmm(self, other)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, dtype={self.data.dtype})"
