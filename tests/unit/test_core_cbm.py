"""Unit tests for the CBMMatrix container and its kernels."""

import numpy as np
import pytest

from repro.core.builder import build_cbm
from repro.core.cbm import CBMMatrix, Variant
from repro.core.deltas import build_delta_matrix
from repro.core.distance import candidate_edges
from repro.core.mst import kruskal_mst
from repro.errors import ShapeError
from repro.sparse.ops import Engine

from tests.conftest import pin_update_path, random_adjacency_csr


def build(seed=0, n=30, density=0.3, alpha=0, variant="A", diag=None):
    a = random_adjacency_csr(n, density=density, seed=seed)
    cbm, _ = build_cbm(a, alpha=alpha, variant=variant, diag=diag)
    return a, cbm


class TestConstruction:
    def test_variant_requires_diag(self):
        a = random_adjacency_csr(10, seed=1)
        tree = kruskal_mst(candidate_edges(a, None))
        delta = build_delta_matrix(a, tree)
        with pytest.raises(ShapeError):
            CBMMatrix(tree=tree, delta=delta, variant="AD")

    def test_diag_wrong_length(self):
        a = random_adjacency_csr(10, seed=2)
        tree = kruskal_mst(candidate_edges(a, None))
        delta = build_delta_matrix(a, tree)
        with pytest.raises(ShapeError):
            CBMMatrix(tree=tree, delta=delta, variant="AD", diag=np.ones(3))

    def test_zero_diag_rejected(self):
        a = random_adjacency_csr(10, seed=3)
        tree = kruskal_mst(candidate_edges(a, None))
        delta = build_delta_matrix(a, tree)
        with pytest.raises(ValueError):
            CBMMatrix(tree=tree, delta=delta, variant="DAD", diag=np.zeros(10))

    def test_variant_accepts_string(self):
        _, cbm = build(variant="AD", diag=np.ones(30))
        assert cbm.variant is Variant.AD


class TestMatmulA:
    @pytest.mark.parametrize("alpha", [0, 1, 4, 16])
    def test_matches_dense(self, alpha):
        a, cbm = build(seed=4, alpha=alpha)
        x = np.random.default_rng(0).random((30, 9)).astype(np.float32)
        assert np.allclose(cbm.matmul(x), a.toarray() @ x, rtol=1e-4)

    @pytest.mark.parametrize("update", ["level", "edge"])
    def test_update_modes_agree(self, monkeypatch, update):
        pin_update_path(monkeypatch, update)
        a, cbm = build(seed=5)
        x = np.random.default_rng(1).random((30, 5)).astype(np.float32)
        assert np.allclose(cbm.matmul(x), a.toarray() @ x, rtol=1e-4)

    def test_reference_engine(self):
        a, cbm = build(seed=6)
        x = np.random.default_rng(2).random((30, 4)).astype(np.float32)
        assert np.allclose(cbm.matmul(x, engine=Engine.REFERENCE), a.toarray() @ x, rtol=1e-4)

    def test_matvec(self):
        a, cbm = build(seed=7)
        v = np.random.default_rng(3).random(30).astype(np.float32)
        assert np.allclose(cbm.matvec(v), a.toarray() @ v, rtol=1e-4)

    def test_matmul_operator_dispatch(self):
        a, cbm = build(seed=8)
        x = np.random.default_rng(4).random((30, 3)).astype(np.float32)
        assert np.allclose(cbm @ x, a.toarray() @ x, rtol=1e-4)
        assert np.allclose(cbm @ x[:, 0], a.toarray() @ x[:, 0], rtol=1e-4)

    def test_shape_mismatch(self):
        _, cbm = build(seed=9)
        with pytest.raises(ShapeError):
            cbm.matmul(np.ones((7, 2), dtype=np.float32))
        with pytest.raises(ShapeError):
            cbm.matvec(np.ones(7, dtype=np.float32))


class TestScaledVariants:
    def test_ad_matches_dense(self):
        rng = np.random.default_rng(5)
        d = rng.random(30) + 0.5
        a, cbm = build(seed=11, variant="AD", diag=d)
        x = rng.random((30, 6)).astype(np.float32)
        ref = (a.toarray() * d) @ x
        assert np.allclose(cbm.matmul(x), ref, rtol=1e-4)

    @pytest.mark.parametrize("scaling", ["deferred", "fused"])
    @pytest.mark.parametrize("update", ["level", "edge"])
    def test_dad_matches_dense(self, monkeypatch, scaling, update):
        pin_update_path(monkeypatch, update)
        rng = np.random.default_rng(6)
        d = rng.random(30) + 0.5
        a, cbm = build(seed=12, variant="DAD", diag=d)
        x = rng.random((30, 6)).astype(np.float32)
        ref = (d[:, None] * a.toarray() * d) @ x
        assert np.allclose(cbm.matmul(x, scaling=scaling), ref, rtol=1e-4)

    def test_negative_diag_supported(self):
        rng = np.random.default_rng(7)
        d = rng.random(30) - 0.5
        d[d == 0] = 0.1
        a, cbm = build(seed=13, variant="DAD", diag=d)
        x = rng.random((30, 4)).astype(np.float32)
        ref = (d[:, None] * a.toarray() * d) @ x
        assert np.allclose(cbm.matmul(x), ref, rtol=1e-3, atol=1e-5)

    def test_tocsr_scaled(self):
        rng = np.random.default_rng(8)
        d = rng.random(20) + 0.5
        a = random_adjacency_csr(20, seed=14)
        cbm, _ = build_cbm(a, alpha=0, variant="DAD", diag=d)
        ref = d[:, None] * a.toarray() * d
        assert np.allclose(cbm.tocsr().toarray(), ref, rtol=1e-5)


class TestAccounting:
    def test_property1_deltas_bounded(self):
        for seed in range(4):
            a, cbm = build(seed=seed, density=0.25)
            assert cbm.num_deltas <= a.nnz

    def test_property2_ops_bounded(self):
        """CBM scalar ops never exceed the CSR baseline's."""
        for seed in range(4):
            a, cbm = build(seed=20 + seed, density=0.3)
            from repro.core.opcount import csr_spmm_ops

            p = 64
            assert cbm.scalar_ops(p).total <= csr_spmm_ops(a, p).total + cbm.tree.num_tree_edges * p

    def test_memory_bytes_composition(self):
        a, cbm = build(seed=30)
        expected = cbm.delta.memory_bytes() + 8 * cbm.tree.num_tree_edges
        assert cbm.memory_bytes() == expected

    def test_compression_ratio_clustered_graph(self, clustered_adjacency):
        cbm, rep = build_cbm(clustered_adjacency, alpha=0)
        assert rep.compression_ratio > 2.0

    def test_stats_keys(self):
        _, cbm = build(seed=31)
        st = cbm.stats()
        for key in ("variant", "alpha", "deltas", "memory_bytes", "compression_ratio"):
            assert key in st

    def test_todense(self):
        a, cbm = build(seed=32)
        assert np.allclose(cbm.todense(), a.toarray())
