"""Unit tests for the streaming tier: patches, drift, rebuilds, pins."""

from pathlib import Path

import numpy as np
import pytest

from repro.core.builder import build_cbm
from repro.core.deltas import build_delta_matrix
from repro.core.tree import CompressionTree
from repro.errors import CompressionError, RecoveryError, ShapeError, StalenessError
from repro.recovery import GenerationStore
from repro.serving import AdjacencySlot, InferenceService
from repro.soak import patched_budget
from repro.sparse.ops import spmm
from repro.staticcheck import audit_archive, audit_cbm
from repro.streaming import (
    BackgroundRebuilder,
    DriftPolicy,
    DriftTracker,
    EdgeBatch,
    MutableAdjacency,
    patch_cbm,
    publish_snapshot,
)

from tests.conftest import random_adjacency_csr


def toggle_reference(a, batch):
    """Dense reference of the graph after applying ``batch``."""
    d = a.toarray().copy()
    for u, v in batch.inserts:
        d[u, v] = 1.0
    for u, v in batch.deletes:
        d[u, v] = 0.0
    return d


class TestEdgeBatch:
    def test_random_inserts_are_new_edges(self):
        a = random_adjacency_csr(30, density=0.2, seed=1)
        b = EdgeBatch.random(a, inserts=5, deletes=5, seed=3)
        d = a.toarray()
        for u, v in b.inserts:
            assert d[u, v] == 0.0 and u != v
        for u, v in b.deletes:
            assert d[u, v] == 1.0

    def test_symmetric_batches_mirror(self):
        a = random_adjacency_csr(30, density=0.2, seed=2)
        b = EdgeBatch.random(a, inserts=4, deletes=4, seed=5, symmetric=True)
        ins = {(int(u), int(v)) for u, v in b.inserts}
        for u, v in ins:
            assert (v, u) in ins

    def test_num_edges(self):
        a = random_adjacency_csr(20, density=0.3, seed=3)
        b = EdgeBatch.random(a, inserts=2, deletes=3, seed=1, symmetric=False)
        assert b.num_edges == len(b.inserts) + len(b.deletes)


class TestPatchCBM:
    def test_patched_matches_toggled_reference(self):
        a = random_adjacency_csr(50, density=0.15, seed=4)
        cbm, _ = build_cbm(a, alpha=0)
        b = EdgeBatch.random(a, inserts=6, deletes=6, seed=9)
        cbm2, src2, _ = patch_cbm(cbm, a, b)
        ref = toggle_reference(a, b)
        assert np.array_equal(src2.toarray(), ref)
        assert np.array_equal(cbm2.tocsr().toarray(), ref)

    def test_product_matches_csr(self):
        a = random_adjacency_csr(40, density=0.2, seed=5)
        cbm, _ = build_cbm(a, alpha=2)
        b = EdgeBatch.random(a, inserts=4, deletes=4, seed=2)
        cbm2, src2, _ = patch_cbm(cbm, a, b)
        x = np.random.default_rng(0).random((40, 3)).astype(np.float32)
        assert np.allclose(cbm2.matmul(x), spmm(src2, x), rtol=1e-4)

    def test_original_pair_untouched(self):
        a = random_adjacency_csr(30, density=0.2, seed=6)
        cbm, _ = build_cbm(a, alpha=0)
        before = a.toarray().copy()
        deltas = cbm.num_deltas
        b = EdgeBatch.random(a, inserts=3, deletes=3, seed=4)
        patch_cbm(cbm, a, b)
        assert np.array_equal(a.toarray(), before)
        assert cbm.num_deltas == deltas

    def test_noop_edges_counted(self):
        a = random_adjacency_csr(20, density=0.3, seed=7)
        cbm, _ = build_cbm(a, alpha=0)
        d = a.toarray()
        u, v = map(int, np.argwhere(d > 0)[0])
        missing = map(int, np.argwhere((d == 0) & ~np.eye(20, dtype=bool))[0])
        mu, mv = missing
        batch = EdgeBatch(
            inserts=np.array([[u, v]]),  # already present -> no-op
            deletes=np.array([[mu, mv]]),  # already absent -> no-op
        )
        cbm2, src2, stats = patch_cbm(cbm, a, batch)
        assert stats["noops"] == 2
        assert np.array_equal(src2.toarray(), d)

    def test_repeats_inside_a_batch_are_noops(self):
        """At-least-once feeds resend edges: the repeat is a counted no-op,
        so every edge of the batch lands in exactly one counter."""
        a = random_adjacency_csr(20, density=0.3, seed=12)
        cbm, _ = build_cbm(a, alpha=0)
        d = a.toarray()
        u, v = map(int, np.argwhere(d > 0)[0])
        mu, mv = map(int, np.argwhere((d == 0) & ~np.eye(20, dtype=bool))[0])
        batch = EdgeBatch(
            inserts=np.array([[mu, mv], [mu, mv]]),
            deletes=np.array([[u, v], [u, v]]),
        )
        _, src2, stats = patch_cbm(cbm, a, batch)
        assert (stats["inserted"], stats["deleted"], stats["noops"]) == (1, 1, 2)
        assert stats["inserted"] + stats["deleted"] + stats["noops"] == batch.num_edges
        report = MutableAdjacency(cbm, a).apply(batch)
        assert report.inserted + report.deleted + report.noops == batch.num_edges
        d[mu, mv], d[u, v] = 1.0, 0.0
        assert np.array_equal(src2.toarray(), d)

    def test_patched_audit_passes_with_budget(self):
        a = random_adjacency_csr(40, density=0.2, seed=8)
        cbm, _ = build_cbm(a, alpha=0)
        src = a
        for j in range(4):
            b = EdgeBatch.random(src, inserts=4, deletes=4, seed=20 + j)
            cbm, src, _ = patch_cbm(cbm, src, b)
        budget = max(1, 2 * int(cbm.num_deltas))
        rep = audit_cbm(cbm, subject="patched", staleness_budget=budget)
        assert rep.ok, [f"{f.code}: {f.message}" for f in rep.findings]

    def test_rejects_non_variant_a(self):
        a = random_adjacency_csr(20, density=0.3, seed=9)
        d = np.random.default_rng(1).random(20) + 0.5
        cbm, _ = build_cbm(a, alpha=0, variant="DAD", diag=d)
        b = EdgeBatch.random(a, inserts=2, deletes=2, seed=1)
        with pytest.raises(CompressionError):
            patch_cbm(cbm, a, b)

    def test_rejects_out_of_range_edges(self):
        a = random_adjacency_csr(20, density=0.3, seed=10)
        cbm, _ = build_cbm(a, alpha=0)
        with pytest.raises(ShapeError):
            patch_cbm(cbm, a, EdgeBatch(inserts=np.array([[0, 99]])))

    def test_rejects_insert_delete_conflict(self):
        a = random_adjacency_csr(20, density=0.3, seed=11)
        cbm, _ = build_cbm(a, alpha=0)
        edge = np.array([[1, 2]])
        with pytest.raises(CompressionError):
            patch_cbm(cbm, a, EdgeBatch(inserts=edge, deletes=edge))


class TestPatchContract:
    """A patched snapshot is bitwise what a fresh extraction under the same
    tree gives, and it reuses the tree's frozen parent array and schedule."""

    @pytest.mark.parametrize("alpha", [0, 2])
    def test_patched_deltas_equal_fresh_extraction(self, alpha, monkeypatch):
        a = random_adjacency_csr(120, density=0.08, seed=30 + alpha)
        cbm, _ = build_cbm(a, alpha=alpha)
        depth_calls = []
        depth = CompressionTree.depth
        monkeypatch.setattr(
            CompressionTree, "depth", lambda self: depth_calls.append(1) or depth(self)
        )
        mutable = MutableAdjacency(cbm, a, journal_limit=10**6)
        for seed in range(120):
            _, _, src = mutable.snapshot()
            mutable.apply(EdgeBatch.random(src, inserts=4, deletes=4, seed=seed))
            if seed % 20 == 19:
                self.assert_fresh(*mutable.snapshot()[1:])
        _, patched, src = mutable.snapshot()
        assert not np.array_equal(src.toarray(), a.toarray())
        assert depth_calls == []
        tree = patched.tree
        assert tree.parent is cbm.tree.parent
        pairs = zip(tree.level_pairs(), cbm.tree.level_pairs(), strict=True)
        for (lv, ps), (lv0, ps0) in pairs:
            assert lv is lv0 and ps is ps0

    @staticmethod
    def assert_fresh(patched, src):
        fresh = build_delta_matrix(src, patched.tree)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(patched.delta, name), getattr(fresh, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        want_weight = fresh.row_nnz()
        assert patched.tree.weight.dtype == want_weight.dtype
        assert np.array_equal(patched.tree.weight, want_weight)
        assert np.array_equal(patched.tocsr().toarray(), src.toarray())


class TestMutableAdjacency:
    def test_versions_and_exactness(self):
        a = random_adjacency_csr(40, density=0.2, seed=12)
        m = MutableAdjacency.from_graph(a)
        assert m.version == 0
        for j in range(3):
            _, _, src = m.snapshot()
            m.apply(EdgeBatch.random(src, inserts=3, deletes=3, seed=j))
        v, cbm, src = m.snapshot()
        assert v == 3
        assert np.array_equal(cbm.tocsr().toarray(), src.toarray())

    def test_snapshots_are_immutable(self):
        a = random_adjacency_csr(30, density=0.2, seed=13)
        m = MutableAdjacency.from_graph(a)
        v0, cbm0, src0 = m.snapshot()
        before = src0.toarray().copy()
        _, _, src = m.snapshot()
        m.apply(EdgeBatch.random(src, inserts=3, deletes=3, seed=1))
        assert np.array_equal(src0.toarray(), before)
        assert np.array_equal(cbm0.tocsr().toarray(), before)

    def test_journal_overflow_raises_staleness(self):
        a = random_adjacency_csr(30, density=0.2, seed=14)
        m = MutableAdjacency.from_graph(a, journal_limit=2)
        for j in range(2):
            _, _, src = m.snapshot()
            m.apply(EdgeBatch.random(src, inserts=2, deletes=2, seed=j))
        _, _, src = m.snapshot()
        with pytest.raises(StalenessError):
            m.apply(EdgeBatch.random(src, inserts=2, deletes=2, seed=9))

    def test_rebase_replays_concurrent_batches(self):
        a = random_adjacency_csr(40, density=0.2, seed=15)
        m = MutableAdjacency.from_graph(a)
        _, _, src = m.snapshot()
        m.apply(EdgeBatch.random(src, inserts=3, deletes=3, seed=1))
        # A rebuild starts from version 1...
        built_version, _, built_src = m.snapshot()
        fresh, _ = build_cbm(built_src, alpha=0)
        # ...while two more batches land mid-build.
        for j in (2, 3):
            _, _, src = m.snapshot()
            m.apply(EdgeBatch.random(src, inserts=3, deletes=3, seed=j))
        version, cbm, src, replayed = m.rebase(
            fresh, built_version=built_version, source=built_src
        )
        assert replayed == 2
        assert version == m.version == 3
        assert np.array_equal(cbm.tocsr().toarray(), src.toarray())

    def test_rebase_rejects_future_version(self):
        a = random_adjacency_csr(20, density=0.3, seed=16)
        m = MutableAdjacency.from_graph(a)
        fresh, _ = build_cbm(a, alpha=0)
        with pytest.raises(CompressionError):
            m.rebase(fresh, built_version=5)


class TestDriftTracker:
    def _mutated(self, n_batches, policy=None):
        a = random_adjacency_csr(40, density=0.2, seed=17)
        tracker = DriftTracker(policy)
        m = MutableAdjacency.from_graph(a, tracker=tracker)
        for j in range(n_batches):
            _, _, src = m.snapshot()
            m.apply(EdgeBatch.random(src, inserts=4, deletes=4, seed=j))
        return m, tracker

    def test_fresh_build_has_zero_drift(self):
        _, tracker = self._mutated(0)
        assert tracker.drift() == 0.0
        assert tracker.staleness() == 0
        assert not tracker.should_rebuild()

    def test_staleness_counts_batches(self):
        _, tracker = self._mutated(3)
        assert tracker.staleness() == 3
        assert tracker.drift() >= 0.0

    def test_budget_triggers_rebuild(self):
        _, tracker = self._mutated(4, DriftPolicy(staleness_budget=4, max_drift=10.0))
        assert tracker.should_rebuild()

    def test_enforce_raises_staleness_error(self):
        policy = DriftPolicy(staleness_budget=2, enforce=True)
        with pytest.raises(StalenessError) as exc_info:
            self._mutated(3, policy)
        assert exc_info.value.staleness == 2
        assert exc_info.value.budget == 2

    def test_rebase_resets_counters(self):
        m, tracker = self._mutated(3)
        _, _, src = m.snapshot()
        fresh, _ = build_cbm(src, alpha=0)
        m.rebase(fresh, built_version=m.version, source=src)
        assert tracker.staleness() == 0
        assert tracker.drift() == 0.0
        assert tracker.snapshot()["rebuilds"] == 1

    def test_rebase_over_a_journaled_batch(self):
        """After a rebase that replays a batch, the baseline prices the
        fresh build and the live counts the installed matrix; the batch
        count that triggers rebuilds restarts at 0, and the soak's audit
        budget covers the replayed patch."""
        a = random_adjacency_csr(40, density=0.2, seed=17)
        tracker = DriftTracker()
        m = MutableAdjacency.from_graph(a, tracker=tracker)
        built_version, _, built_src = m.snapshot()
        fresh, _ = build_cbm(built_src, alpha=0)
        batch = EdgeBatch.random(built_src, inserts=4, deletes=4, seed=3)
        m.apply(batch)
        _, _, _, replayed = m.rebase(fresh, built_version=built_version, source=built_src)
        assert replayed == 1
        _, live, _ = m.snapshot()
        snap = tracker.snapshot()
        assert live.num_deltas != fresh.num_deltas
        assert snap["baseline_deltas"] == fresh.num_deltas
        assert snap["live_deltas"] == live.num_deltas
        assert snap["edges_since_rebuild"] == batch.num_edges
        assert snap["replayed_total"] == 1
        assert tracker.staleness() == 0
        assert audit_cbm(live, staleness_budget=patched_budget(snap)).ok

    @pytest.mark.parametrize("max_drift, expected", [(0.01, True), (0.5, False)])
    def test_replayed_drift_counts_toward_the_trigger(self, max_drift, expected):
        """A rebase whose replayed batch drifts the installed matrix past
        ``max_drift`` leaves the rebuild trigger set, though staleness
        restarts at 0; below ``max_drift`` it does not."""
        a = random_adjacency_csr(40, density=0.2, seed=17)
        tracker = DriftTracker(DriftPolicy(max_drift=max_drift, staleness_budget=64))
        m = MutableAdjacency.from_graph(a, tracker=tracker)
        built_version, _, built_src = m.snapshot()
        fresh, _ = build_cbm(built_src, alpha=0)
        m.apply(EdgeBatch.random(built_src, inserts=12, deletes=0, seed=3))
        m.rebase(fresh, built_version=built_version, source=built_src)
        assert 0.01 < tracker.drift() < 0.5
        assert tracker.staleness() == 0
        assert tracker.should_rebuild() is expected

    def test_snapshot_keys(self):
        _, tracker = self._mutated(1)
        snap = tracker.snapshot()
        for key in (
            "drift", "staleness", "staleness_budget", "version",
            "rebuilt_version", "rebuilds", "baseline_ops", "live_ops",
        ):
            assert key in snap

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            DriftPolicy(max_drift=-0.1)
        with pytest.raises(ValueError):
            DriftPolicy(staleness_budget=0)


class TestGenerationPins:
    def _store_with_gens(self, tmp_path, count, retain=None):
        store = GenerationStore(tmp_path / "store", retain=retain)
        for i in range(count):
            with store.begin(meta={"kind": "blob"}) as txn:
                Path(txn.path(f"payload-{i}.bin")).write_bytes(b"x" * 16)
        return store

    def test_pin_is_refcounted(self, tmp_path):
        store = self._store_with_gens(tmp_path, 1)
        assert store.pin(1) == 1
        assert store.pin(1) == 2
        assert store.release(1) == 1
        assert store.pinned() == {1}
        assert store.release(1) == 0
        assert store.pinned() == set()

    def test_release_without_pin_raises(self, tmp_path):
        store = self._store_with_gens(tmp_path, 1)
        with pytest.raises(RecoveryError):
            store.release(1)

    def test_prune_skips_pinned(self, tmp_path):
        store = self._store_with_gens(tmp_path, 5)
        store.pin(1)
        removed = store.prune(keep=2)
        assert 1 not in removed
        assert (store.root / "gen-000001").is_dir()
        assert not (store.root / "gen-000002").exists()
        # Once released, the next prune may reclaim it.
        store.release(1)
        assert 1 in store.prune(keep=2)

    def test_retention_commit_never_reclaims_pinned(self, tmp_path):
        store = self._store_with_gens(tmp_path, 1, retain=2)
        store.pin(1)
        for i in range(4):
            with store.begin(meta={"kind": "blob"}) as txn:
                Path(txn.path(f"p{i}.bin")).write_bytes(b"y" * 8)
        assert (store.root / "gen-000001").is_dir()
        assert [g.index for g in store.generations()][-2:] == [4, 5]


def _make_service_store(tmp_path, n=40, seed=18, retain=None):
    a = random_adjacency_csr(n, density=0.2, seed=seed)
    cbm, _ = build_cbm(a, alpha=0)
    store = GenerationStore(tmp_path / "store", retain=retain)
    from repro.core.io import save_cbm

    with store.begin(meta={"kind": "cbm-archive", "graph_version": 7}) as txn:
        save_cbm(txn.path("adjacency.npz", kind="cbm"), cbm)
    service = InferenceService(AdjacencySlot(cbm, a))
    return a, cbm, store, service


class TestServiceIntegration:
    def test_swap_generation_pins_and_retire_releases(self, tmp_path):
        a, cbm, store, service = _make_service_store(tmp_path)
        with service:
            summary = service.swap_generation(store)
            assert summary["store_generation"] == 1
            assert store.pinned() == {1}
            assert service._slot.graph_version == 7
            # Swapping again retires the pinned slot and releases it.
            service.swap_slot(AdjacencySlot(cbm, a))
            assert store.pinned() == set()

    def test_health_exposes_streaming_counters(self, tmp_path):
        a = random_adjacency_csr(30, density=0.2, seed=19)
        tracker = DriftTracker()
        m = MutableAdjacency.from_graph(a, tracker=tracker)
        v, cbm, src = m.snapshot()
        slot = AdjacencySlot(cbm, src, tracker=tracker)
        slot.graph_version = v
        with InferenceService(slot) as service:
            _, _, src = m.snapshot()
            m.apply(EdgeBatch.random(src, inserts=3, deletes=3, seed=1))
            health = service.health()
            streaming = health["streaming"]
            assert streaming["staleness"] == 1
            assert streaming["graph_version"] == 0
            assert streaming["pinned_store_generation"] is None

    def test_publish_snapshot_bumps_generation(self):
        a = random_adjacency_csr(30, density=0.2, seed=20)
        m = MutableAdjacency.from_graph(a)
        v, cbm, src = m.snapshot()
        with InferenceService(AdjacencySlot(cbm, src)) as service:
            _, _, src = m.snapshot()
            m.apply(EdgeBatch.random(src, inserts=3, deletes=3, seed=2))
            version, gen, slot = publish_snapshot(m, service)
            assert version == 1 and gen == 1
            x = np.random.default_rng(2).random((30, 2)).astype(np.float32)
            y = service.submit(x).result(10.0)
            assert np.array_equal(y, slot.cbm.matmul(x))


class TestBackgroundRebuilder:
    def test_rebuild_once_commits_and_publishes(self, tmp_path):
        a = random_adjacency_csr(40, density=0.2, seed=21)
        tracker = DriftTracker(DriftPolicy(staleness_budget=2))
        m = MutableAdjacency.from_graph(a, tracker=tracker)
        v, cbm, src = m.snapshot()
        store = GenerationStore(tmp_path / "store")
        with InferenceService(AdjacencySlot(cbm, src)) as service:
            for j in range(3):
                _, _, src = m.snapshot()
                m.apply(EdgeBatch.random(src, inserts=3, deletes=3, seed=j))
            rebuilder = BackgroundRebuilder(m, store, service)
            report = rebuilder.rebuild_once()
            assert report.built_version == 3
            assert report.published
            assert tracker.staleness() == 0
            # The committed artifact is fresh: strict audit, no budget.
            gen = store.latest()
            assert gen.index == report.store_generation
            assert gen.manifest["meta"]["graph_version"] == 3
            audit = audit_archive(gen.file("adjacency.npz"))
            assert audit.ok, [f.code for f in audit.findings]
            # The served slot is the rebased current version.
            assert service._slot.graph_version == 3
            x = np.random.default_rng(3).random((40, 2)).astype(np.float32)
            _, live_cbm, _ = m.snapshot()
            assert np.array_equal(
                service.submit(x).result(10.0), live_cbm.matmul(x)
            )

    def test_threaded_loop_fires_on_drift_trigger(self, tmp_path):
        import time

        a = random_adjacency_csr(40, density=0.2, seed=22)
        tracker = DriftTracker(DriftPolicy(staleness_budget=2, max_drift=10.0))
        m = MutableAdjacency.from_graph(a, tracker=tracker)
        store = GenerationStore(tmp_path / "store")
        rebuilder = BackgroundRebuilder(m, store, None, poll_interval_s=0.005)
        rebuilder.start()
        try:
            for j in range(4):
                _, _, src = m.snapshot()
                m.apply(EdgeBatch.random(src, inserts=3, deletes=3, seed=j))
            deadline = time.monotonic() + 10.0
            while not rebuilder.reports and time.monotonic() < deadline:
                rebuilder.trigger()
                time.sleep(0.01)
        finally:
            rebuilder.stop()
        assert rebuilder.reports, rebuilder.errors
        assert not rebuilder.errors
        assert store.latest() is not None

    def test_start_twice_raises(self, tmp_path):
        a = random_adjacency_csr(20, density=0.3, seed=23)
        m = MutableAdjacency.from_graph(a)
        rebuilder = BackgroundRebuilder(m, GenerationStore(tmp_path / "s"))
        rebuilder.start()
        try:
            with pytest.raises(RecoveryError):
                rebuilder.start()
        finally:
            rebuilder.stop()


@pytest.mark.chaos
class TestMutationSoak:
    def test_mini_storm_is_clean(self):
        from repro.soak import stream

        report = stream(clients=2, requests=8, mutations=5, trials=1)
        assert report["ok"], (report["checks"], report["violations"])
        assert report["checks"]["zero_wrong"]
        assert sum(ph["requests"] for ph in report["phases"]) >= 20
        assert report["rebuilds"] >= 1
        assert all(t["killed"] for t in report["crash"])

    def test_crashsim_streaming_workload_recovers(self):
        from repro.recovery.crashsim import run_trial

        trial = run_trial("streaming", crash_at=9, seed=3, iterations=2)
        assert trial.killed
        assert trial.ok, trial.violations
