"""Unit tests for delta extraction and the delta matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import build_cbm
from repro.core.deltas import (
    build_delta_matrix,
    delta_rows,
    delta_sets,
    reconstruct_rows,
    scale_delta_matrix,
)
from repro.core.distance import candidate_edges
from repro.core.mst import kruskal_mst
from repro.core.tree import VIRTUAL, CompressionTree
from repro.errors import CompressionError
from repro.sparse.convert import from_dense
from repro.sparse.csr import CSRMatrix

from tests.conftest import random_adjacency_csr, random_binary_csr


def tree_for(a):
    return kruskal_mst(candidate_edges(a, None))


class TestDeltaSets:
    def test_virtual_parent_is_full_row(self):
        a = random_binary_csr(10, seed=0)
        tree = CompressionTree(parent=np.full(10, VIRTUAL), weight=a.row_nnz())
        for x in range(10):
            plus, minus = delta_sets(a, tree, x)
            assert np.array_equal(plus, a.row(x))
            assert minus.size == 0

    def test_real_parent_set_semantics(self):
        d = np.array([[1, 1, 0, 0], [1, 0, 1, 0]], dtype=np.float32)
        a = from_dense(d)
        tree = CompressionTree(parent=np.array([VIRTUAL, 0]), weight=np.array([2, 2]))
        plus, minus = delta_sets(a, tree, 1)
        assert plus.tolist() == [2]
        assert minus.tolist() == [1]


class TestBuildDeltaMatrix:
    def test_row_semantics(self):
        a = random_binary_csr(15, density=0.4, seed=1)
        tree = tree_for(a)
        delta = build_delta_matrix(a, tree)
        dense = a.toarray()
        dd = delta.toarray()
        for x in range(15):
            p = tree.parent[x]
            ref = dense[x] - (dense[p] if p != VIRTUAL else 0)
            assert np.allclose(dd[x], ref)

    def test_delta_count_matches_tree_weight(self):
        a = random_adjacency_csr(20, seed=2)
        tree = tree_for(a)
        delta = build_delta_matrix(a, tree)
        assert delta.nnz == tree.total_weight()

    def test_property1_nnz_bound(self):
        """Property 1: nnz(A') <= nnz(A)."""
        for seed in range(5):
            a = random_adjacency_csr(25, density=0.3, seed=seed)
            delta = build_delta_matrix(a, tree_for(a))
            assert delta.nnz <= a.nnz

    def test_mismatched_tree_rejected(self):
        a = random_binary_csr(10, seed=3)
        tree = CompressionTree(parent=np.full(5, VIRTUAL))
        with pytest.raises(CompressionError):
            build_delta_matrix(a, tree)

    def test_weight_mismatch_detected(self):
        a = random_binary_csr(8, density=0.5, seed=4)
        bad = CompressionTree(
            parent=np.full(8, VIRTUAL), weight=np.full(8, 999, dtype=np.int64)
        )
        with pytest.raises(CompressionError):
            build_delta_matrix(a, bad)

    def test_columns_sorted(self):
        a = random_adjacency_csr(20, seed=5)
        delta = build_delta_matrix(a, tree_for(a))
        for x in range(20):
            row = delta.row(x)
            assert np.all(np.diff(row) > 0)


def reference_delta_matrix(a, tree):
    """A′ assembled row by row from the :func:`delta_sets` definition."""
    n = a.shape[0]
    indptr = np.zeros(n + 1, dtype=np.int64)
    idx_rows, val_rows = [], []
    for x in range(n):
        plus, minus = delta_sets(a, tree, x)
        idx = np.concatenate([plus, minus])
        val = np.concatenate(
            [np.ones(len(plus), dtype=np.float32), -np.ones(len(minus), dtype=np.float32)]
        )
        order = np.argsort(idx, kind="stable")
        idx_rows.append(idx[order])
        val_rows.append(val[order])
        indptr[x + 1] = indptr[x] + len(idx)
    indices = np.concatenate(idx_rows) if idx_rows else np.empty(0, dtype=np.int64)
    data = np.concatenate(val_rows) if val_rows else np.empty(0, dtype=np.float32)
    return CSRMatrix(indptr, indices, data, a.shape, check=False)


@st.composite
def matrices_with_trees(draw):
    """(matrix, tree) pairs: rectangular shapes, empty rows, rows copied
    from their parent, all-virtual trees, and int32 index arrays."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, 10))
    dense = np.asarray(
        draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m)), dtype=np.float32
    ).reshape(n, m)
    # Parents come earlier in a random order, so the tree is acyclic.
    rank = np.asarray(draw(st.permutations(range(n))))
    parent = np.full(n, VIRTUAL, dtype=np.int64)
    if not draw(st.booleans()):  # otherwise an all-virtual tree
        for x in range(n):
            earlier = np.flatnonzero(rank < rank[x])
            if len(earlier) and draw(st.booleans()):
                parent[x] = earlier[draw(st.integers(0, len(earlier) - 1))]
    for x in np.argsort(rank):  # parents first, so copies chain correctly
        if parent[x] != VIRTUAL and draw(st.booleans()):
            dense[x] = dense[parent[x]]
    a = from_dense(dense)
    if draw(st.booleans()):
        a.indptr = a.indptr.astype(np.int32)
        a.indices = a.indices.astype(np.int32)
    tree = CompressionTree(parent=parent)
    if draw(st.booleans()):
        tree = CompressionTree(parent=parent, weight=reference_delta_matrix(a, tree).row_nnz())
    return a, tree


class TestBuildDeltaMatrixMatchesReference:
    @given(matrices_with_trees())
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_per_row_definition(self, case):
        a, tree = case
        ours, ref = build_delta_matrix(a, tree), reference_delta_matrix(a, tree)
        assert ours.shape == ref.shape
        for name in ("indptr", "indices", "data"):
            got, want = getattr(ours, name), getattr(ref, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name

    @given(matrices_with_trees(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_doctored_weight_names_first_bad_row(self, case, data):
        a, tree = case
        counts = reference_delta_matrix(a, tree).row_nnz()
        bad = data.draw(st.lists(st.integers(0, a.shape[0] - 1), min_size=1, unique=True))
        weight = counts.copy()
        weight[bad] = counts[bad] + 1
        doctored = CompressionTree(parent=tree.parent, weight=weight)
        with pytest.raises(CompressionError, match=rf"^row {min(bad)}: expected"):
            build_delta_matrix(a, doctored)


def picked_rows(m: CSRMatrix, rows) -> CSRMatrix:
    """Rows ``rows`` of ``m``, in that order, as a CSR of the same dtypes."""
    rows = list(rows)
    indptr = np.zeros(len(rows) + 1, dtype=m.indptr.dtype)
    np.cumsum([len(m.row(x)) for x in rows], out=indptr[1:])
    indices = np.concatenate([m.row(x) for x in rows] + [m.indices[:0]])
    data = np.concatenate([m.row_values(x) for x in rows] + [m.data[:0]])
    return CSRMatrix(indptr, indices, data, (len(rows), m.shape[1]), check=False)


def assert_bitwise_equal(got: CSRMatrix, want: CSRMatrix) -> None:
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        assert np.array_equal(g, w), name


class TestDeltaRows:
    """delta_rows gathers only the rows it is asked for; each must equal
    the same row of the full build."""

    def test_virtual_empty_and_copied_rows(self):
        dense = np.array(
            [
                [1, 1, 0, 0],  # 0: virtual parent
                [1, 1, 0, 0],  # 1: identical to its parent 0
                [0, 0, 0, 0],  # 2: empty, parent 0 (all minus)
                [0, 1, 1, 0],  # 3: virtual parent
                [0, 0, 0, 0],  # 4: empty, virtual parent
                [0, 1, 1, 1],  # 5: parent 3
            ],
            dtype=np.float32,
        )
        a = from_dense(dense)
        tree = CompressionTree(parent=np.array([VIRTUAL, 0, 0, VIRTUAL, VIRTUAL, 3]))
        full = build_delta_matrix(a, tree)
        for rows in ([5, 1, 2, 4, 0], [1], [4], [2, 2], []):
            got = delta_rows(a, tree.parent, np.array(rows, dtype=np.int64))
            assert_bitwise_equal(got, picked_rows(full, rows))
        assert delta_rows(a, tree.parent, np.array([1, 4])).nnz == 0

    @given(matrices_with_trees(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_rows_of_full_build(self, case, data):
        a, tree = case
        rows = data.draw(st.lists(st.integers(0, a.shape[0] - 1), max_size=6))
        got = delta_rows(a, tree.parent, np.array(rows, dtype=np.int64))
        assert_bitwise_equal(got, picked_rows(build_delta_matrix(a, tree), rows))


class TestScaleDeltaMatrix:
    def test_same_sparsity(self):
        a = random_adjacency_csr(15, seed=6)
        delta = build_delta_matrix(a, tree_for(a))
        d = np.random.default_rng(0).random(15) + 0.5
        scaled = scale_delta_matrix(delta, d)
        assert np.array_equal(scaled.indices, delta.indices)
        assert np.array_equal(scaled.indptr, delta.indptr)

    def test_values_scaled_by_column(self):
        a = random_adjacency_csr(12, seed=7)
        delta = build_delta_matrix(a, tree_for(a))
        d = np.arange(1, 13, dtype=np.float32)
        scaled = scale_delta_matrix(delta, d)
        assert np.allclose(scaled.toarray(), delta.toarray() * d, rtol=1e-6)


class TestReconstruct:
    @pytest.mark.parametrize("seed", range(4))
    def test_roundtrip(self, seed):
        a = random_adjacency_csr(20, density=0.35, seed=seed)
        tree = tree_for(a)
        delta = build_delta_matrix(a, tree)
        back = reconstruct_rows(delta, tree)
        assert np.allclose(back.toarray(), a.toarray())

    def test_roundtrip_via_builder(self):
        a = random_adjacency_csr(25, seed=11)
        cbm, _ = build_cbm(a, alpha=2)
        assert np.allclose(cbm.tocsr().toarray(), a.toarray())

    def test_virtual_row_with_negative_delta_rejected(self):
        delta = from_dense(np.array([[-1.0, 1.0]], dtype=np.float32))
        tree = CompressionTree(parent=np.array([VIRTUAL]), weight=np.array([2]))
        with pytest.raises(CompressionError):
            reconstruct_rows(delta, tree)
