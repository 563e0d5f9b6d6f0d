"""Property-based tests for the sparse containers (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.graphs.adjacency import add_self_loops
from repro.sparse.convert import from_dense
from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix


@st.composite
def dense_matrices(draw, max_dim=12, binary=False):
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    if binary:
        return draw(
            arrays(np.float32, (n, m), elements=st.sampled_from([0.0, 1.0]))
        )
    vals = draw(
        arrays(
            np.float32,
            (n, m),
            elements=st.floats(-10, 10, width=32, allow_nan=False),
        )
    )
    mask = draw(arrays(np.bool_, (n, m)))
    return np.where(mask, vals, 0.0).astype(np.float32)


@st.composite
def coo_triplets(draw, max_dim=10, max_nnz=30):
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    k = draw(st.integers(0, max_nnz))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    cols = draw(st.lists(st.integers(0, m - 1), min_size=k, max_size=k))
    vals = draw(
        st.lists(
            st.floats(-5, 5, width=32, allow_nan=False), min_size=k, max_size=k
        )
    )
    return rows, cols, np.asarray(vals, dtype=np.float32), (n, m)


@st.composite
def stored_csr(draw, square=False, max_dim=9):
    """CSR matrices holding arbitrary small values, stored zeros included.

    Rows and columns may be empty and nnz may be 0; the values are
    float32, float64, int32 or int64.  Square draws store none, some or
    all of the diagonal.
    """
    n = draw(st.integers(0, max_dim))
    m = n if square else draw(st.integers(0, max_dim))
    mask = draw(arrays(np.bool_, (n, m)))
    if square:
        diagonal = draw(st.sampled_from(["none", "some", "all"]))
        if diagonal != "some":
            np.fill_diagonal(mask, diagonal == "all")
    dtype = draw(st.sampled_from([np.float32, np.float64, np.int32, np.int64]))
    rows, cols = np.nonzero(mask)
    values = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(mask.sum(axis=1), out=indptr[1:])
    return CSRMatrix(indptr, cols, np.asarray(values, dtype=dtype), (n, m))


def reference_tocsc(a: CSRMatrix) -> CSCMatrix:
    """CSR → CSC by one lexsort of the COO triplets (column, then row)."""
    coo = a.tocoo()
    order = np.lexsort((coo.rows, coo.cols))
    rows, cols, data = coo.rows[order], coo.cols[order], coo.data[order]
    m = a.shape[1]
    counts = np.bincount(cols, minlength=m)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSCMatrix(indptr, rows, data, a.shape, check=False)


def reference_add_self_loops(a: CSRMatrix) -> CSRMatrix:
    """``A + I`` by summing COO duplicates, then resetting every value to 1."""
    n = a.shape[0]
    coo = a.tocoo()
    rows = np.concatenate([coo.rows, np.arange(n, dtype=np.int64)])
    cols = np.concatenate([coo.cols, np.arange(n, dtype=np.int64)])
    vals = np.ones(len(rows), dtype=a.data.dtype)
    out = COOMatrix(rows, cols, vals, (n, n)).tocsr()
    out.data.fill(1)
    return out


def _assert_same_arrays(ours, ref) -> None:
    assert ours.shape == ref.shape
    for field in ("indptr", "indices", "data"):
        mine, theirs = getattr(ours, field), getattr(ref, field)
        assert mine.dtype == theirs.dtype, field
        assert np.array_equal(mine, theirs), field


class TestCompiledPathsMatchReference:
    """SciPy's compiled conversions give the bytes of the NumPy definitions."""

    @given(stored_csr())
    @settings(max_examples=150, deadline=None)
    def test_tocsc(self, a):
        _assert_same_arrays(a.tocsc(), reference_tocsc(a))

    @given(stored_csr())
    @settings(max_examples=150, deadline=None)
    def test_transpose(self, a):
        csc = reference_tocsc(a)
        ref = CSRMatrix(csc.indptr, csc.indices, csc.data, a.shape[::-1], check=False)
        _assert_same_arrays(a.transpose(), ref)

    @given(stored_csr(square=True))
    @settings(max_examples=150, deadline=None)
    def test_add_self_loops(self, a):
        _assert_same_arrays(add_self_loops(a), reference_add_self_loops(a))


class TestRoundTrips:
    @given(dense_matrices())
    @settings(max_examples=60, deadline=None)
    def test_dense_csr_roundtrip(self, d):
        assert np.allclose(from_dense(d).toarray(), d)

    @given(dense_matrices())
    @settings(max_examples=60, deadline=None)
    def test_csr_coo_csr(self, d):
        a = from_dense(d)
        assert np.allclose(a.tocoo().tocsr().toarray(), d)

    @given(dense_matrices())
    @settings(max_examples=60, deadline=None)
    def test_csr_csc_roundtrip(self, d):
        a = from_dense(d)
        assert np.allclose(a.tocsc().tocsr().toarray(), d)

    @given(dense_matrices())
    @settings(max_examples=60, deadline=None)
    def test_double_transpose(self, d):
        a = from_dense(d)
        assert np.allclose(a.transpose().transpose().toarray(), d)


class TestCOOInvariants:
    @given(coo_triplets())
    @settings(max_examples=60, deadline=None)
    def test_sum_duplicates_preserves_dense(self, triplet):
        rows, cols, vals, shape = triplet
        m = COOMatrix(rows, cols, vals, shape)
        assert np.allclose(m.sum_duplicates().toarray(), m.toarray(), atol=1e-4)

    @given(coo_triplets())
    @settings(max_examples=60, deadline=None)
    def test_tocsr_preserves_dense(self, triplet):
        rows, cols, vals, shape = triplet
        m = COOMatrix(rows, cols, vals, shape)
        assert np.allclose(m.tocsr().toarray(), m.toarray(), atol=1e-4)

    @given(coo_triplets())
    @settings(max_examples=40, deadline=None)
    def test_csr_format_valid_after_conversion(self, triplet):
        rows, cols, vals, shape = triplet
        COOMatrix(rows, cols, vals, shape).tocsr().check_format()


class TestKernels:
    @given(dense_matrices(max_dim=10), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_spmm_matches_dense(self, d, p, seed):
        from repro.sparse.ops import Engine, spmm

        a = from_dense(d)
        b = np.random.default_rng(seed).random((d.shape[1], p)).astype(np.float32)
        ref = d.astype(np.float64) @ b.astype(np.float64)
        assert np.allclose(spmm(a, b, engine=Engine.REFERENCE), ref, rtol=1e-3, atol=1e-4)
        assert np.allclose(spmm(a, b, engine=Engine.SCIPY), ref, rtol=1e-3, atol=1e-4)

    @given(dense_matrices(max_dim=8), dense_matrices(max_dim=8))
    @settings(max_examples=40, deadline=None)
    def test_scale_rows_cols_commute_with_dense(self, d, _other):
        a = from_dense(d)
        r = np.arange(1, d.shape[0] + 1, dtype=np.float64)
        c = np.arange(1, d.shape[1] + 1, dtype=np.float64)
        assert np.allclose(
            a.scale_rows(r).scale_columns(c).toarray(),
            d * r[:, None] * c,
            rtol=1e-5,
        )
