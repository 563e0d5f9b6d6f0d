"""Property-based tests for the CBM format: Properties 1–3 and kernel
correctness on arbitrary binary matrices (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.arborescence import minimum_arborescence
from repro.core.builder import build_cbm, build_clustered
from repro.core.distance import candidate_edges
from repro.core.mst import kruskal_mst
from repro.core.opcount import csr_spmm_ops
from repro.sparse.convert import from_dense

from tests.conftest import prim_mst


@st.composite
def binary_matrices(draw, max_n=14):
    n = draw(st.integers(1, max_n))
    return draw(arrays(np.float32, (n, n), elements=st.sampled_from([0.0, 1.0])))


@st.composite
def binary_with_alpha(draw, max_n=14):
    return draw(binary_matrices(max_n)), draw(st.integers(0, 6))


class TestCompressionInvariants:
    @given(binary_with_alpha())
    @settings(max_examples=60, deadline=None)
    def test_property1_deltas_bounded(self, case):
        """Property 1: deltas never exceed nnz(A), for any alpha."""
        d, alpha = case
        a = from_dense(d)
        cbm, _ = build_cbm(a, alpha=alpha)
        assert cbm.num_deltas <= a.nnz

    @given(binary_with_alpha())
    @settings(max_examples=60, deadline=None)
    def test_property2_multiply_ops_bounded(self, case):
        """Property 2: multiply-stage ops never exceed the CSR SpMM ops."""
        d, alpha = case
        a = from_dense(d)
        cbm, _ = build_cbm(a, alpha=alpha)
        p = 4
        assert cbm.scalar_ops(p).multiply_stage <= csr_spmm_ops(a, p).total

    @given(binary_with_alpha())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_reconstruction(self, case):
        d, alpha = case
        a = from_dense(d)
        cbm, _ = build_cbm(a, alpha=alpha)
        assert np.allclose(cbm.tocsr().toarray(), d)

    @given(binary_matrices())
    @settings(max_examples=40, deadline=None)
    def test_mst_oracles_agree(self, d):
        a = from_dense(d)
        g = candidate_edges(a, None)
        assert kruskal_mst(g).total_weight() == prim_mst(g).total_weight()

    @given(binary_matrices())
    @settings(max_examples=40, deadline=None)
    def test_mca_alpha0_equals_mst(self, d):
        a = from_dense(d)
        mst = kruskal_mst(candidate_edges(a, None))
        mca = minimum_arborescence(candidate_edges(a, 0))
        assert mca.total_weight() == mst.total_weight()


class TestKernelCorrectness:
    @given(binary_with_alpha(), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matmul_matches_dense(self, case, p, seed):
        d, alpha = case
        a = from_dense(d)
        cbm, _ = build_cbm(a, alpha=alpha)
        x = np.random.default_rng(seed).random((d.shape[0], p)).astype(np.float32)
        ref = d.astype(np.float64) @ x
        assert np.allclose(cbm.matmul(x), ref, rtol=1e-3, atol=1e-4)
        assert np.allclose(cbm.matmul_unplanned(x), ref, rtol=1e-3, atol=1e-4)

    @given(binary_matrices(max_n=10), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_dad_variants_match_dense(self, d, seed):
        rng = np.random.default_rng(seed)
        n = d.shape[0]
        diag = rng.random(n) + 0.5
        a = from_dense(d)
        cbm, _ = build_cbm(a, alpha=1, variant="DAD", diag=diag)
        x = rng.random((n, 3)).astype(np.float32)
        ref = (diag[:, None] * d.astype(np.float64) * diag) @ x
        for scaling in ("deferred", "fused"):
            assert np.allclose(cbm.matmul(x, scaling=scaling), ref, rtol=1e-3, atol=1e-4)

    @given(binary_matrices(max_n=12), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_clustered_build_correct(self, d, cluster_size):
        a = from_dense(d)
        cbm, _ = build_clustered(a, cluster_size=cluster_size)
        x = np.random.default_rng(0).random((d.shape[0], 3)).astype(np.float32)
        assert np.allclose(cbm.matmul(x), d.astype(np.float64) @ x, rtol=1e-3, atol=1e-4)

    @given(binary_matrices(max_n=12))
    @settings(max_examples=30, deadline=None)
    def test_parallel_executor_matches_sequential(self, d):
        from repro.parallel.executor import ThreadedUpdateExecutor

        a = from_dense(d)
        cbm, _ = build_cbm(a, alpha=0)
        plan = cbm.plan()
        x = np.random.default_rng(1).random((d.shape[0], 3)).astype(np.float32)
        c = plan.multiply(x)
        ThreadedUpdateExecutor(3).run_update(cbm.tree, c, branches=plan.branches)
        assert np.allclose(c, plan.execute(x), rtol=1e-5, atol=1e-6)
