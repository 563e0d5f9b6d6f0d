"""Unit tests for the D1AD2 variant and the R-MAT generator."""

import numpy as np
import pytest

from repro.core.builder import build_cbm
from repro.errors import ShapeError
from repro.graphs.adjacency import is_undirected_simple
from repro.graphs.generators import rmat_graph
from repro.graphs.stats import average_clustering_coefficient

from tests.conftest import pin_update_path, random_adjacency_csr


class TestD1AD2:
    @pytest.fixture
    def setup(self):
        rng = np.random.default_rng(0)
        a = random_adjacency_csr(30, density=0.3, seed=1)
        d1 = rng.random(30) + 0.5
        d2 = rng.random(30) + 0.5
        return rng, a, d1, d2

    def test_requires_both_diagonals(self, setup):
        _, a, d1, d2 = setup
        with pytest.raises(ShapeError):
            build_cbm(a, variant="D1AD2", diag=d2)  # missing diag_left

    def test_diag_left_wrong_length(self, setup):
        _, a, _, d2 = setup
        with pytest.raises(ShapeError):
            build_cbm(a, variant="D1AD2", diag=d2, diag_left=np.ones(3))

    def test_zero_diag_left_rejected(self, setup):
        _, a, _, d2 = setup
        with pytest.raises(ValueError):
            build_cbm(a, variant="D1AD2", diag=d2, diag_left=np.zeros(30))

    @pytest.mark.parametrize("scaling", ["deferred", "fused"])
    @pytest.mark.parametrize("update", ["level", "edge"])
    def test_matches_dense(self, monkeypatch, setup, scaling, update):
        pin_update_path(monkeypatch, update)
        rng, a, d1, d2 = setup
        cbm, _ = build_cbm(a, alpha=2, variant="D1AD2", diag=d2, diag_left=d1)
        x = rng.random((30, 5)).astype(np.float32)
        ref = (d1[:, None] * a.toarray() * d2) @ x
        assert np.allclose(cbm.matmul(x, scaling=scaling), ref, rtol=1e-4)

    def test_reduces_to_dad_when_diagonals_equal(self, setup):
        rng, a, d1, _ = setup
        general, _ = build_cbm(a, alpha=0, variant="D1AD2", diag=d1, diag_left=d1)
        dad, _ = build_cbm(a, alpha=0, variant="DAD", diag=d1)
        x = rng.random((30, 4)).astype(np.float32)
        assert np.allclose(general.matmul(x), dad.matmul(x), rtol=1e-6)

    def test_tocsr(self, setup):
        _, a, d1, d2 = setup
        cbm, _ = build_cbm(a, alpha=0, variant="D1AD2", diag=d2, diag_left=d1)
        ref = d1[:, None] * a.toarray() * d2
        assert np.allclose(cbm.tocsr().toarray(), ref, rtol=1e-5)

    def test_scalar_ops_match_dad(self, setup):
        _, a, d1, d2 = setup
        general, _ = build_cbm(a, alpha=0, variant="D1AD2", diag=d2, diag_left=d1)
        dad, _ = build_cbm(a, alpha=0, variant="DAD", diag=d1)
        assert general.scalar_ops(8).total == dad.scalar_ops(8).total


class TestRmat:
    def test_basic_properties(self):
        a = rmat_graph(9, 12.0, seed=0)
        assert a.shape == (512, 512)
        assert is_undirected_simple(a)

    def test_deterministic(self):
        a, b = rmat_graph(8, 8.0, seed=3), rmat_graph(8, 8.0, seed=3)
        assert np.array_equal(a.indices, b.indices)

    def test_heavy_tail(self):
        """Skewed quadrants concentrate edges on low ids (power-law-ish)."""
        a = rmat_graph(10, 16.0, seed=1)
        deg = a.row_nnz()
        assert deg.max() > 8 * deg.mean()

    def test_uniform_quadrants_look_like_er(self):
        a = rmat_graph(9, 10.0, a=0.25, b=0.25, c=0.25, seed=2)
        deg = a.row_nnz()
        assert deg.max() < 5 * max(deg.mean(), 1)

    def test_low_clustering(self):
        a = rmat_graph(9, 10.0, seed=4)
        assert average_clustering_coefficient(a) < 0.3

    def test_bad_probabilities(self):
        with pytest.raises(ValueError):
            rmat_graph(5, 4.0, a=0.7, b=0.3, c=0.3)

    def test_cbm_on_rmat_is_safe(self):
        """Property 1 on a hostile (clique-free) input: CBM never loses
        more than the tree bookkeeping."""
        a = rmat_graph(9, 10.0, seed=5)
        cbm, rep = build_cbm(a, alpha=0)
        assert cbm.num_deltas <= a.nnz
        assert rep.compression_ratio > 0.95
        x = np.random.default_rng(0).random((a.shape[0], 4)).astype(np.float32)
        assert np.allclose(cbm.matmul(x), a @ x, rtol=1e-4, atol=1e-4)
