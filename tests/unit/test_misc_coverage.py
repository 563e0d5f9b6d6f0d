"""Cross-cutting coverage: error hierarchy, matvec variants, experiment
constants, and protocol conformance."""

import numpy as np
import pytest

from repro import errors
from repro.bench.experiments import (
    PAPER_AX_SPEEDUPS,
    PAPER_BEST_ALPHA,
    PAPER_GCN_SPEEDUPS,
    run_training_table,
)
from repro.core.builder import build_cbm
from repro.gnn.adjacency import AdjacencyOp, CBMAdjacency, CSRAdjacency
from repro.graphs.datasets import REGISTRY

from tests.conftest import pin_update_path, random_adjacency_csr


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in (
            "ShapeError",
            "DTypeError",
            "NotBinaryError",
            "FormatError",
            "CompressionError",
            "TreeError",
            "DatasetError",
            "ConvergenceError",
            "ParallelError",
            "GNNError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_dual_inheritance(self):
        """Library errors also subclass the matching builtin, so callers
        catching ValueError/TypeError/KeyError keep working."""
        assert issubclass(errors.ShapeError, ValueError)
        assert issubclass(errors.DTypeError, TypeError)
        assert issubclass(errors.DatasetError, KeyError)
        assert issubclass(errors.CompressionError, RuntimeError)

    def test_shape_mismatch_helper(self):
        e = errors.ShapeError.mismatch("op", (2, 3), (4, 5))
        assert "op" in str(e) and "(2, 3)" in str(e)


class TestMatvecVariants:
    """The dedicated 1-D kernel across variants, update walks, and scalings."""

    @pytest.mark.parametrize("update", ["level", "edge"])
    @pytest.mark.parametrize("scaling", ["deferred", "fused"])
    def test_dad_matvec(self, monkeypatch, update, scaling):
        pin_update_path(monkeypatch, update)
        rng = np.random.default_rng(0)
        a = random_adjacency_csr(30, seed=1)
        d = rng.random(30) + 0.5
        cbm, _ = build_cbm(a, alpha=2, variant="DAD", diag=d)
        v = rng.random(30).astype(np.float32)
        ref = (d[:, None] * a.toarray() * d) @ v
        got = cbm.matvec(v, scaling=scaling)
        assert got.shape == (30,)
        assert np.allclose(got, ref, rtol=1e-4)

    def test_d1ad2_matvec(self):
        rng = np.random.default_rng(1)
        a = random_adjacency_csr(25, seed=2)
        d1, d2 = rng.random(25) + 0.5, rng.random(25) + 0.5
        cbm, _ = build_cbm(a, alpha=0, variant="D1AD2", diag=d2, diag_left=d1)
        v = rng.random(25).astype(np.float32)
        ref = (d1[:, None] * a.toarray() * d2) @ v
        assert np.allclose(cbm.matvec(v), ref, rtol=1e-4)

    def test_matvec_matches_matmul_column(self):
        a = random_adjacency_csr(20, seed=3)
        cbm, _ = build_cbm(a, alpha=0)
        v = np.random.default_rng(2).random(20).astype(np.float32)
        assert np.allclose(cbm.matvec(v), cbm.matmul(v[:, None])[:, 0], rtol=1e-6)

    def test_matvec_bad_mode(self):
        a = random_adjacency_csr(10, seed=4)
        cbm, _ = build_cbm(a)
        with pytest.raises(ValueError):
            cbm.matvec(np.ones(10, dtype=np.float32), scaling="nope")


class TestExperimentConstants:
    def test_alpha_tables_cover_all_datasets(self):
        for table in (PAPER_BEST_ALPHA, PAPER_AX_SPEEDUPS, PAPER_GCN_SPEEDUPS):
            assert set(table) == set(REGISTRY)

    def test_best_alphas_are_valid(self):
        for seq, par in PAPER_BEST_ALPHA.values():
            assert seq >= 0 and par >= 0

    def test_training_table_runner(self):
        rows, text = run_training_table(datasets=("Cora",), feature_dim=16, hidden=16)
        assert len(rows) == 1
        assert float(rows[0]["Speedup"]) > 0
        assert "Training extension" in text


class TestAdjacencyProtocol:
    def test_runtime_checkable(self):
        a = random_adjacency_csr(15, seed=5)
        assert isinstance(CSRAdjacency.from_graph(a), AdjacencyOp)
        assert isinstance(CBMAdjacency.from_graph(a), AdjacencyOp)

    def test_csr_from_prebuilt_a_hat(self):
        from repro.graphs.laplacian import normalized_adjacency

        a = random_adjacency_csr(15, seed=6)
        op = CSRAdjacency(normalized_adjacency(a))
        x = np.random.default_rng(3).random((15, 4)).astype(np.float32)
        ref = normalized_adjacency(a).toarray() @ x
        assert np.allclose(op.matmul(x), ref, rtol=1e-5)
