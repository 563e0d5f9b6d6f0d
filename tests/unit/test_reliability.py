"""Reliability suite: every injected fault ends in a correct fallback or
a typed error — never a silently wrong product.

Grown out of the original failure-injection tests (corrupted structures
fail loudly), this suite is driven by the deterministic chaos harness in
:mod:`repro.reliability.chaos`: corrupted archives, NaN feature
matrices, corrupted trees/deltas, and diverging training runs, plus a
dying branch-replay worker.  Chaos-driven classes carry the ``chaos``
marker so CI can run them as a dedicated job
(``pytest -m chaos``).
"""

import itertools
import warnings

import numpy as np
import pytest

from repro.core.builder import build_cbm
from repro.core.cbm import CBMMatrix
from repro.core.io import load_cbm, save_cbm
from repro.core.tree import VIRTUAL, CompressionTree
from repro.core.verify import verify_cbm
from repro.errors import (
    CheckpointError,
    CompressionError,
    ConvergenceError,
    DatasetError,
    FormatError,
    IntegrityError,
    NumericalError,
    ParallelError,
    ReproError,
    TreeError,
)
from repro.parallel.executor import ThreadedUpdateExecutor
from repro.reliability import FallbackWarning, GuardedAdjacency, GuardedKernel
from repro.reliability.chaos import (
    corrupt_archive,
    corrupt_deltas,
    corrupt_tree_parents,
    inject_nan,
    read_archive_meta,
)
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import spmm

from tests.conftest import random_adjacency_csr


def _guarded_setup(n=30, alpha=0, seed=5, p=6):
    """(adjacency, healthy CBM, operand, CSR reference product)."""
    a = random_adjacency_csr(n, density=0.25, seed=seed)
    cbm, _ = build_cbm(a, alpha=alpha)
    x = np.random.default_rng(seed).random((n, p)).astype(np.float32)
    return a, cbm, x, spmm(a, x)


# ---------------------------------------------------------------------------
# Migrated failure-injection coverage: corrupted structures fail loudly.
# ---------------------------------------------------------------------------


class TestCorruptCSR:
    def test_truncated_indices(self):
        a = random_adjacency_csr(10, seed=0)
        with pytest.raises(FormatError):
            CSRMatrix(a.indptr, a.indices[:-1], a.data, a.shape)

    def test_indptr_overflow(self):
        a = random_adjacency_csr(10, seed=1)
        bad = a.indptr.copy()
        bad[-1] += 5
        with pytest.raises(FormatError):
            CSRMatrix(bad, a.indices, a.data, a.shape)

    def test_shuffled_columns_detected(self):
        a = random_adjacency_csr(10, seed=2)
        if a.row_nnz().max() < 2:
            pytest.skip("need a row with 2+ entries")
        bad = a.indices.copy()
        # Reverse the first multi-entry row's columns.
        x = int(np.argmax(a.row_nnz() >= 2))
        lo, hi = a.indptr[x], a.indptr[x + 1]
        bad[lo:hi] = bad[lo:hi][::-1]
        with pytest.raises(FormatError):
            CSRMatrix(a.indptr, bad, a.data, a.shape)


class TestCorruptTree:
    def test_two_cycle(self):
        with pytest.raises(TreeError):
            CompressionTree(parent=np.array([1, 0]))

    def test_mixed_forest_with_cycle(self):
        with pytest.raises(TreeError):
            CompressionTree(parent=np.array([VIRTUAL, 2, 1, 0]))

    def test_tree_delta_size_mismatch(self):
        a = random_adjacency_csr(10, seed=3)
        cbm, _ = build_cbm(a, alpha=0)
        small_tree = CompressionTree(parent=np.full(5, VIRTUAL))
        with pytest.raises(ReproError):
            CBMMatrix(tree=small_tree, delta=cbm.delta)

    @pytest.mark.chaos
    @pytest.mark.parametrize("mode", ["cycle", "out_of_range"])
    def test_chaos_corrupted_parents_rejected(self, mode):
        a = random_adjacency_csr(20, seed=9)
        cbm, _ = build_cbm(a, alpha=0)
        bad = corrupt_tree_parents(cbm.tree.parent, mode=mode, seed=3)
        with pytest.raises(TreeError):
            CompressionTree(parent=bad)


class TestCorruptDeltas:
    def test_wrong_sign_caught_by_verify(self):
        a = random_adjacency_csr(20, seed=4)
        cbm, _ = build_cbm(a, alpha=0)
        cbm.delta.data[:] = np.abs(cbm.delta.data)  # erase all negatives
        report = verify_cbm(cbm, a, runs=2, columns=8)
        # Either numerically wrong or structurally unreconstructable.
        if cbm.tree.num_tree_edges > 0 and (cbm.delta.data < 0).sum() == 0:
            assert not report.passed or cbm.num_deltas == a.nnz

    def test_reconstruction_rejects_orphan_negative(self):
        from repro.core.deltas import reconstruct_rows
        from repro.sparse.convert import from_dense

        delta = from_dense(np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=np.float32))
        tree = CompressionTree(parent=np.array([VIRTUAL, VIRTUAL]), weight=np.array([1, 1]))
        with pytest.raises(CompressionError):
            reconstruct_rows(delta, tree)


class TestScheduleGuards:
    def test_nan_cost_rejected(self):
        from repro.parallel.schedule import simulate_dynamic_schedule

        with pytest.raises(ParallelError):
            simulate_dynamic_schedule(np.array([1.0, -2.0]), 2)


# ---------------------------------------------------------------------------
# Error rendering (satellite): DatasetError must not repr-quote its message.
# ---------------------------------------------------------------------------


class TestErrorRendering:
    def test_dataset_error_renders_verbatim(self):
        msg = "unknown dataset 'nope'; available: Cora, COLLAB"
        err = DatasetError(msg)
        assert str(err) == msg  # KeyError.__str__ would add quotes
        assert isinstance(err, KeyError)

    def test_registry_miss_message_readable(self):
        from repro.graphs.datasets import load_dataset

        with pytest.raises(DatasetError) as exc_info:
            load_dataset("definitely-not-a-dataset")
        rendered = str(exc_info.value)
        assert not rendered.startswith(("'", '"'))


# ---------------------------------------------------------------------------
# Executor: a failed run invalidates its buffer; pill capping.
# ---------------------------------------------------------------------------


class _DiesOnSecondBranch(ThreadedUpdateExecutor):
    """A worker dies after one branch has been replayed into ``c``."""

    def __init__(self, threads):
        super().__init__(threads)
        self._picked = itertools.count()

    def _replay_branch(self, branch, parent, c):
        if next(self._picked) == 1:
            raise RuntimeError("injected worker death")
        super()._replay_branch(branch, parent, c)


@pytest.mark.chaos
class TestExecutorFailures:
    def _plan_and_buffer(self, n=40, seed=5, p=4):
        a = random_adjacency_csr(n, density=0.3, seed=seed)
        cbm, _ = build_cbm(a, alpha=0)
        if cbm.tree.num_tree_edges == 0:
            pytest.skip("no update work on this graph")
        plan = cbm.plan()
        x = np.random.default_rng(seed).random((n, p)).astype(np.float32)
        return a, cbm, plan, x, plan.multiply(x)

    def test_worker_exception_propagates(self):
        """A failure inside a worker thread surfaces as ParallelError."""
        a = random_adjacency_csr(20, seed=5)
        cbm, _ = build_cbm(a, alpha=0)
        if cbm.tree.num_tree_edges == 0:
            pytest.skip("no update work on this graph")
        c = np.zeros((5, 3), dtype=np.float32)  # too few rows -> IndexError
        with pytest.raises(ParallelError):
            ThreadedUpdateExecutor(2).run_update(cbm.tree, c)
        assert np.isnan(c).all(), "a failed run must poison its buffer"

    def test_worker_death_invalidates_buffer(self):
        _, cbm, plan, _, c = self._plan_and_buffer()
        if len(plan.branches) < 2:
            pytest.skip("need a second branch to fail after a replayed one")
        with pytest.raises(ParallelError) as exc_info:
            _DiesOnSecondBranch(2).run_update(cbm.tree, c, branches=plan.branches)
        assert isinstance(exc_info.value.__cause__, RuntimeError)
        assert np.isnan(c).all(), "a failed run must never leave a half-updated buffer"

    def test_pool_capped_when_threads_exceed_branches(self):
        """threads >> branches: exactly one pill per started worker, and the
        oversized pool still produces the correct product."""
        a, cbm, plan, x, c = self._plan_and_buffer()
        n_branches = len(plan.branches)
        ThreadedUpdateExecutor(n_branches + 61).run_update(
            cbm.tree, c, branches=plan.branches
        )
        np.testing.assert_allclose(c, spmm(a, x), rtol=1e-4, atol=1e-4)


# ---------------------------------------------------------------------------
# Archive integrity: checksummed save/load.
# ---------------------------------------------------------------------------


@pytest.mark.chaos
class TestArchiveIntegrity:
    def _saved(self, tmp_path, variant_kwargs=None):
        a = random_adjacency_csr(25, density=0.25, seed=11)
        cbm, _ = build_cbm(a, alpha=2, **(variant_kwargs or {}))
        path = tmp_path / "m.npz"
        save_cbm(path, cbm)
        return a, cbm, path

    def test_round_trip_is_checksummed(self, tmp_path):
        _, cbm, path = self._saved(tmp_path)
        meta = read_archive_meta(path)
        assert meta["version"] == 2
        assert set(meta["checksums"]) >= {"delta_data", "tree_parent"}
        loaded = load_cbm(path)
        np.testing.assert_allclose(loaded.todense(), cbm.todense())

    @pytest.mark.parametrize(
        "array", ["delta_data", "delta_indices", "tree_parent", "tree_weight"]
    )
    def test_perturbed_payload_raises_integrity_error(self, tmp_path, array):
        _, _, path = self._saved(tmp_path)
        corrupt_archive(path, array=array, mode="perturb", seed=1)
        with pytest.raises(IntegrityError):
            load_cbm(path)

    def test_zeroed_payload_raises_integrity_error(self, tmp_path):
        _, _, path = self._saved(tmp_path)
        corrupt_archive(path, array="delta_data", mode="zero")
        with pytest.raises(IntegrityError):
            load_cbm(path)

    def test_dropped_payload_raises_integrity_error(self, tmp_path):
        _, _, path = self._saved(tmp_path)
        corrupt_archive(path, array="tree_weight", mode="drop")
        with pytest.raises(IntegrityError):
            load_cbm(path)

    def test_integrity_error_is_format_error(self):
        assert issubclass(IntegrityError, FormatError)

    def test_version1_archive_without_checksums_still_loads(self, tmp_path):
        import json

        _, cbm, path = self._saved(tmp_path)
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = json.loads(bytes(arrays.pop("meta")).decode("utf-8"))
        meta["version"] = 1
        del meta["checksums"]
        arrays["meta"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        np.savez_compressed(path, **arrays)
        loaded = load_cbm(path)
        np.testing.assert_allclose(loaded.todense(), cbm.todense())


# ---------------------------------------------------------------------------
# GuardedKernel: validation + CSR fallback.
# ---------------------------------------------------------------------------


@pytest.mark.chaos
class TestGuardedKernel:
    def test_healthy_path_no_fallback(self):
        a, cbm, x, ref = _guarded_setup()
        guard = GuardedKernel(cbm, source=a)
        np.testing.assert_allclose(guard.matmul(x), ref, rtol=1e-4, atol=1e-4)
        assert guard.stats.calls == 1
        assert guard.stats.fallbacks == 0

    def test_nan_input_raises_typed_error(self):
        a, cbm, x, _ = _guarded_setup()
        guard = GuardedKernel(cbm, source=a)
        with pytest.raises(NumericalError):
            guard.matmul(inject_nan(x, seed=2))
        assert guard.stats.input_rejections == 1
        assert guard.stats.fallbacks == 0  # garbage in is not recoverable

    def test_corrupt_deltas_fall_back_to_csr(self):
        a, cbm, x, ref = _guarded_setup()
        corrupt_deltas(cbm, mode="nan", seed=1)
        guard = GuardedKernel(cbm, source=a)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            c = guard.matmul(x)
        np.testing.assert_allclose(c, ref, rtol=1e-4, atol=1e-4)
        assert guard.stats.fallbacks == 1
        assert guard.stats.reasons == {"NumericalError": 1}
        assert any(issubclass(w.category, FallbackWarning) for w in caught)

    def test_strict_mode_raises_instead_of_falling_back(self):
        a, cbm, x, _ = _guarded_setup()
        corrupt_deltas(cbm, mode="nan", seed=1)
        guard = GuardedKernel(cbm, source=a, strict=True)
        with pytest.raises(NumericalError):
            guard.matmul(x)
        assert guard.stats.fallbacks == 0

    def test_guarded_matvec_falls_back(self):
        a, cbm, _, _ = _guarded_setup()
        v = np.random.default_rng(3).random(cbm.shape[1]).astype(np.float32)
        ref = spmm(a, v[:, None])[:, 0]
        corrupt_deltas(cbm, mode="nan", seed=2)
        guard = GuardedKernel(cbm, source=a)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FallbackWarning)
            u = guard.matvec(v)
        np.testing.assert_allclose(u, ref, rtol=1e-4, atol=1e-4)
        assert guard.stats.fallbacks == 1

    def test_no_source_reraises_when_unrecoverable(self):
        _, cbm, x, _ = _guarded_setup()
        corrupt_deltas(cbm, mode="nan", seed=1)
        guard = GuardedKernel(cbm)  # no CSR reference available
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FallbackWarning)
            with pytest.raises(NumericalError):
                guard.matmul(x)

    def test_guarded_adjacency_matches_csr_operator(self):
        from repro.gnn.adjacency import CSRAdjacency
        from repro.gnn.gcn import two_layer_gcn_inference

        a = random_adjacency_csr(30, density=0.25, seed=8)
        rng = np.random.default_rng(8)
        x = rng.random((30, 6)).astype(np.float32)
        w0 = rng.random((6, 5)).astype(np.float32)
        w1 = rng.random((5, 3)).astype(np.float32)
        guarded = GuardedAdjacency.from_graph(a, alpha=2)
        baseline = CSRAdjacency.from_graph(a)
        np.testing.assert_allclose(
            two_layer_gcn_inference(guarded, x, w0, w1),
            two_layer_gcn_inference(baseline, x, w0, w1),
            rtol=1e-3,
            atol=1e-3,
        )
        assert guarded.guard.stats.fallbacks == 0

    def test_guarded_adjacency_survives_corruption(self):
        from repro.gnn.adjacency import CSRAdjacency
        from repro.gnn.gcn import two_layer_gcn_inference

        a = random_adjacency_csr(30, density=0.25, seed=8)
        rng = np.random.default_rng(8)
        x = rng.random((30, 6)).astype(np.float32)
        w0 = rng.random((6, 5)).astype(np.float32)
        w1 = rng.random((5, 3)).astype(np.float32)
        guarded = GuardedAdjacency.from_graph(a, alpha=2)
        corrupt_deltas(guarded.guard.cbm, mode="nan", seed=4)
        baseline = CSRAdjacency.from_graph(a)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FallbackWarning)
            z = two_layer_gcn_inference(guarded, x, w0, w1)
        np.testing.assert_allclose(
            z, two_layer_gcn_inference(baseline, x, w0, w1), rtol=1e-3, atol=1e-3
        )
        assert guarded.guard.stats.fallbacks >= 1


# ---------------------------------------------------------------------------
# Training reliability: divergence detection + checkpoint/resume.
# ---------------------------------------------------------------------------


@pytest.mark.chaos
class TestTrainingReliability:
    def _setup(self, n=30, f=6, classes=3, seed=1):
        from repro.gnn.adjacency import CSRAdjacency
        from repro.gnn.gcn import GCN

        a = random_adjacency_csr(n, density=0.25, seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.random((n, f)).astype(np.float32)
        labels = rng.integers(0, classes, n)
        mask = np.ones(n, dtype=bool)
        adj = CSRAdjacency.from_graph(a)

        def fresh():
            return GCN([f, 8, classes], seed=7, requires_grad=True)

        return adj, x, labels, mask, fresh

    def test_divergence_raises_convergence_error(self):
        from repro.gnn.train import train_gcn

        adj, x, labels, mask, fresh = self._setup()
        model = fresh()
        with np.errstate(all="ignore"), pytest.raises(ConvergenceError) as exc_info:
            train_gcn(
                model, adj, x, labels, train_mask=mask, epochs=10, lr=float("inf")
            )
        # Blows up on the very first step: no healthy state to roll back to.
        assert exc_info.value.last_good is None

    def test_nan_features_diverge_with_typed_error(self):
        from repro.gnn.train import train_gcn

        adj, x, labels, mask, fresh = self._setup()
        with pytest.raises(ConvergenceError):
            train_gcn(
                fresh(), adj, inject_nan(x, seed=5), labels,
                train_mask=mask, epochs=3, lr=0.05,
            )

    def test_checkpoint_resume_reproduces_run(self, tmp_path):
        from repro.gnn.train import train_gcn

        adj, x, labels, mask, fresh = self._setup()
        full = train_gcn(fresh(), adj, x, labels, train_mask=mask, epochs=10, lr=0.05)
        ck_path = tmp_path / "train.ck.npz"
        train_gcn(
            fresh(), adj, x, labels, train_mask=mask, epochs=5, lr=0.05,
            checkpoint_every=5, checkpoint_path=ck_path,
        )
        resumed = train_gcn(
            fresh(), adj, x, labels, train_mask=mask, epochs=10, lr=0.05,
            resume_from=ck_path,
        )
        assert len(resumed.losses) == 10
        np.testing.assert_allclose(resumed.losses, full.losses, rtol=1e-6, atol=1e-8)

    def test_divergence_after_resume_rolls_back_to_checkpoint(self, tmp_path):
        from repro.gnn.train import load_checkpoint, train_gcn

        adj, x, labels, mask, fresh = self._setup()
        ck_path = tmp_path / "train.ck.npz"
        model = fresh()
        train_gcn(
            model, adj, x, labels, train_mask=mask, epochs=4, lr=0.05,
            checkpoint_every=4, checkpoint_path=ck_path,
        )
        ck = load_checkpoint(ck_path)
        with np.errstate(all="ignore"), pytest.raises(ConvergenceError) as exc_info:
            train_gcn(
                model, adj, x, labels, train_mask=mask, epochs=8,
                lr=float("inf"), resume_from=ck,
            )
        assert exc_info.value.last_good is ck
        for p, saved in zip(model.parameters(), ck.params, strict=True):
            np.testing.assert_array_equal(p, saved)

    def test_checkpoint_requires_path(self):
        from repro.gnn.train import train_gcn

        adj, x, labels, mask, fresh = self._setup()
        with pytest.raises(CheckpointError):
            train_gcn(
                fresh(), adj, x, labels, train_mask=mask, epochs=2, lr=0.05,
                checkpoint_every=1,
            )

    def test_load_checkpoint_rejects_garbage(self, tmp_path):
        from repro.gnn.train import load_checkpoint

        bad = tmp_path / "bad.npz"
        np.savez_compressed(bad, junk=np.arange(3))
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)
