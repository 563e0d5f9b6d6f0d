"""Sparse-dense multiplication kernels and BLAS-style helpers.

Two interchangeable engines drive every kernel:

``Engine.REFERENCE``
    Pure NumPy, written for clarity: one vectorised pass per row.  This is
    the executable specification used by the test suite to validate the
    fast path.

``Engine.SCIPY``
    Delegates to SciPy's compiled CSR kernels.  This plays the role Intel
    MKL plays in the paper: a state-of-the-art compiled sparse backend
    shared by the CSR baseline *and* the CBM multiplication stage, so the
    CBM-vs-CSR comparison measures the format, not the backend.

The default engine is SciPy; :func:`set_default_engine` switches globally
(used by ablation benchmarks).
"""

from __future__ import annotations

import enum
from typing import Union

import numpy as np
import scipy.sparse as sp

from repro.errors import ShapeError
from repro.sparse.csr import CSRMatrix
from repro.utils.validation import check_dense


class Engine(enum.Enum):
    """Kernel backend selector."""

    REFERENCE = "reference"
    SCIPY = "scipy"


_default_engine = Engine.SCIPY


def get_default_engine() -> Engine:
    return _default_engine


def set_default_engine(engine: Union[Engine, str]) -> Engine:
    """Set the process-wide default engine; returns the previous one."""
    global _default_engine
    previous = _default_engine
    _default_engine = Engine(engine)
    return previous


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------

def _as_scipy(a: CSRMatrix) -> sp.csr_matrix:
    """Zero-copy view of a :class:`CSRMatrix` as a SciPy csr_matrix."""
    return sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)


def _spmm_reference(a: CSRMatrix, b: np.ndarray) -> np.ndarray:
    """Row-at-a-time CSR × dense: C[i, :] = sum_j a[i, j] * b[j, :]."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.result_type(a.data, b))
    indptr, indices, data = a.indptr, a.indices, a.data
    for i in range(a.shape[0]):
        lo, hi = indptr[i], indptr[i + 1]
        if lo == hi:
            continue
        out[i] = data[lo:hi] @ b[indices[lo:hi]]
    return out


def _spmv_reference(a: CSRMatrix, v: np.ndarray) -> np.ndarray:
    out = np.zeros(a.shape[0], dtype=np.result_type(a.data, v))
    indptr, indices, data = a.indptr, a.indices, a.data
    for i in range(a.shape[0]):
        lo, hi = indptr[i], indptr[i + 1]
        if lo != hi:
            out[i] = data[lo:hi] @ v[indices[lo:hi]]
    return out


# ----------------------------------------------------------------------
# Public kernels
# ----------------------------------------------------------------------

def spmm(a: CSRMatrix, b: np.ndarray, *, engine: Engine | None = None) -> np.ndarray:
    """Sparse-dense matrix product ``a @ b``.

    ``a`` is CSR, ``b`` is a dense 2-D array; returns a dense array of
    shape ``(a.shape[0], b.shape[1])``.
    """
    b = check_dense(b, name="b", ndim=2)
    if a.shape[1] != b.shape[0]:
        raise ShapeError.mismatch("spmm", a.shape, b.shape)
    eng = engine or _default_engine
    if eng is Engine.SCIPY:
        return np.asarray(_as_scipy(a) @ b)
    return _spmm_reference(a, b)


def spmv(a: CSRMatrix, v: np.ndarray, *, engine: Engine | None = None) -> np.ndarray:
    """Sparse matrix-vector product ``a @ v`` for a dense 1-D ``v``."""
    v = check_dense(v, name="v", ndim=1)
    if a.shape[1] != v.shape[0]:
        raise ShapeError.mismatch("spmv", a.shape, v.shape)
    eng = engine or _default_engine
    if eng is Engine.SCIPY:
        return np.asarray(_as_scipy(a) @ v)
    return _spmv_reference(a, v)


def axpy(alpha: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """In-place BLAS-1 update ``y += alpha * x``; returns ``y``.

    The CBM update stage is a sequence of these per compression-tree edge
    (Section V-A of the paper), which :mod:`repro.runtime.native` runs in
    C and the NumPy level walk batches per tree depth; this scalar form
    remains the reference.
    """
    x = np.asarray(x)
    if x.shape != y.shape:
        raise ShapeError.mismatch("axpy", x.shape, y.shape)
    if alpha == 1.0:
        y += x
    else:
        y += alpha * x
    return y


def sparse_sparse_matmul(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """Sparse × sparse product, used to form ``A @ Aᵀ`` during compression.

    Delegates to SciPy's compiled SpGEMM; the result is returned in our
    CSR container with sorted, deduplicated rows.
    """
    if a.shape[1] != b.shape[0]:
        raise ShapeError.mismatch("sparse_sparse_matmul", a.shape, b.shape)
    c = (_as_scipy(a) @ _as_scipy(b)).tocsr()
    c.sort_indices()
    c.sum_duplicates()
    return CSRMatrix(
        c.indptr.astype(np.int64),
        c.indices.astype(np.int64),
        c.data,
        c.shape,
        check=False,
    )
