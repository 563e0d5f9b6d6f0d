"""Unit tests for the crash-safe persistence tier (:mod:`repro.recovery`).

Covers the atomic write primitive (protocol, sync hook, failure
cleanup), the journaled :class:`GenerationStore` (commit marker,
quarantine-not-delete recovery, rollback, retention), the serving
layer's generation swap with fallback, and the kill-9 crash harness —
including the end-to-end "SIGKILL a training run, relaunch, resume from
the last committed epoch" scenario and the negative control proving the
harness detects a broken commit protocol.
"""

import json
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.core.builder import build_cbm
from repro.core.io import save_cbm
from repro.errors import IntegrityError, RecoveryError
from repro.gnn.adjacency import make_operator
from repro.gnn.gcn import GCN
from repro.gnn.train import (
    CHECKPOINT_PAYLOAD,
    TrainCheckpoint,
    load_latest_checkpoint,
    train_gcn,
)
from repro.recovery import GenerationStore, atomic_write, set_sync_hook
from repro.recovery.atomic import TMP_SUFFIX, is_tmp_debris
from repro.recovery.crashsim import run_trial
from repro.serving import AdjacencySlot, InferenceService
from repro.soak import crash

from tests.conftest import random_adjacency_csr


# ---------------------------------------------------------------------------
# atomic_write
# ---------------------------------------------------------------------------

class TestAtomicWrite:
    def test_replaces_destination_on_clean_exit(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with atomic_write(path, mode="w", encoding="utf-8") as fh:
            fh.write("new")
        assert path.read_text() == "new"
        assert list(tmp_path.iterdir()) == [path]  # no temp debris

    def test_exception_leaves_destination_untouched(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_write(path, mode="w", encoding="utf-8") as fh:
                fh.write("half-")
                raise RuntimeError("boom")
        assert path.read_text() == "old"
        assert list(tmp_path.iterdir()) == [path]

    def test_binary_mode_roundtrip(self, tmp_path):
        path = tmp_path / "blob.bin"
        with atomic_write(path) as fh:
            fh.write(b"\x00\x01\x02")
        assert path.read_bytes() == b"\x00\x01\x02"

    @pytest.mark.parametrize("mode", ["r", "a", "r+", "w+"])
    def test_rejects_non_write_modes(self, tmp_path, mode):
        with pytest.raises(ValueError):
            with atomic_write(tmp_path / "x", mode=mode):
                pass  # pragma: no cover - must raise before entering

    def test_sync_hook_sees_protocol_points_in_order(self, tmp_path):
        points = []
        previous = set_sync_hook(lambda point, path: points.append(point))
        try:
            with atomic_write(tmp_path / "x", mode="w", encoding="utf-8") as fh:
                fh.write("y")
        finally:
            assert set_sync_hook(previous) is not None
        assert points == ["wrote", "replace", "renamed"]

    def test_hook_abort_before_rename_keeps_old_file(self, tmp_path):
        """A crash simulated before os.replace leaves the old bytes."""
        path = tmp_path / "x"
        path.write_text("old")

        def bomb(point, _path):
            if point == "replace":
                raise KeyboardInterrupt  # stand-in for process death

        previous = set_sync_hook(bomb)
        try:
            with pytest.raises(KeyboardInterrupt):
                with atomic_write(path, mode="w", encoding="utf-8") as fh:
                    fh.write("new")
        finally:
            set_sync_hook(previous)
        assert path.read_text() == "old"

    def test_tmp_debris_naming(self):
        assert is_tmp_debris(f"foo.npz.abc{TMP_SUFFIX}")
        assert not is_tmp_debris("foo.npz")


# ---------------------------------------------------------------------------
# GenerationStore
# ---------------------------------------------------------------------------

def _commit_blob(store, payload=b"payload", name="blob.bin", **meta):
    with store.begin(meta=meta) as txn:
        with atomic_write(txn.path(name)) as fh:
            fh.write(payload)
    return txn.generation


class TestGenerationStore:
    def test_commit_then_latest(self, tmp_path):
        store = GenerationStore(tmp_path / "store")
        gen = _commit_blob(store, kind="test")
        assert gen.index == 1
        latest = store.latest()
        assert latest is not None and latest.index == 1
        assert latest.meta == {"kind": "test"}
        assert latest.file("blob.bin").read_bytes() == b"payload"
        latest.verify()

    def test_empty_store_has_no_latest(self, tmp_path):
        store = GenerationStore(tmp_path / "store")
        assert store.latest() is None
        assert store.generations() == []

    def test_indices_are_monotonic(self, tmp_path):
        store = GenerationStore(tmp_path / "store")
        assert [_commit_blob(store).index for _ in range(3)] == [1, 2, 3]

    def test_uncommitted_generation_is_invisible(self, tmp_path):
        store = GenerationStore(tmp_path / "store")
        _commit_blob(store)
        # A crashed writer's directory: payload present, no manifest.
        torn = store.root / "gen-000002"
        torn.mkdir()
        (torn / "blob.bin").write_bytes(b"half")
        assert store.latest().index == 1

    def test_aborted_txn_is_quarantined(self, tmp_path):
        store = GenerationStore(tmp_path / "store")
        with pytest.raises(RuntimeError):
            with store.begin() as txn:
                with atomic_write(txn.path("blob.bin")) as fh:
                    fh.write(b"x")
                raise RuntimeError("builder failed")
        assert store.latest() is None
        assert any(
            p.name.startswith("gen-000001--aborted")
            for p in store.quarantine_dir.iterdir()
        )

    def test_empty_generation_rejected(self, tmp_path):
        store = GenerationStore(tmp_path / "store")
        with pytest.raises(RecoveryError, match="no payload"):
            with store.begin():
                pass

    def test_payload_name_validation(self, tmp_path):
        store = GenerationStore(tmp_path / "store")
        txn = store.begin()
        with pytest.raises(RecoveryError):
            txn.path(os.path.join("sub", "x"))
        with pytest.raises(RecoveryError):
            txn.path("MANIFEST.json")

    def test_unlisted_payload_rejected(self, tmp_path):
        store = GenerationStore(tmp_path / "store")
        gen = _commit_blob(store)
        with pytest.raises(RecoveryError, match="no payload"):
            gen.file("other.bin")

    def test_verify_detects_post_commit_corruption(self, tmp_path):
        store = GenerationStore(tmp_path / "store")
        gen = _commit_blob(store, payload=b"payload-bytes")
        path = gen.file("blob.bin")
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError, match="CRC-32"):
            gen.verify()

    def test_rollback_quarantines_newest(self, tmp_path):
        store = GenerationStore(tmp_path / "store")
        for _ in range(3):
            _commit_blob(store)
        latest = store.rollback(1)
        assert latest.index == 2
        assert [g.index for g in store.generations()] == [1, 2]
        assert any(
            "rolled-back" in p.name for p in store.quarantine_dir.iterdir()
        )

    def test_rollback_too_deep_rejected(self, tmp_path):
        store = GenerationStore(tmp_path / "store")
        _commit_blob(store)
        with pytest.raises(RecoveryError):
            store.rollback(2)

    def test_retention_prunes_old_generations(self, tmp_path):
        store = GenerationStore(tmp_path / "store", retain=2)
        for _ in range(5):
            _commit_blob(store)
        assert [g.index for g in store.generations()] == [4, 5]
        # Pruned generations are deleted (superseded), not quarantined.
        assert not store.quarantine_dir.exists()


class TestRecovery:
    def test_recover_keeps_good_quarantines_bad(self, tmp_path):
        store = GenerationStore(tmp_path / "store")
        for _ in range(2):
            _commit_blob(store)
        # Torn uncommitted dir + stray temp file + corrupted committed gen.
        torn = store.root / "gen-000003"
        torn.mkdir()
        (torn / f"blob.bin.abc{TMP_SUFFIX}").write_bytes(b"half")
        (store.root / f"stray{TMP_SUFFIX}").write_bytes(b"x")
        bad = store.generations()[0].file("blob.bin")
        bad.write_bytes(b"rewritten to the wrong bytes")

        report = GenerationStore(tmp_path / "store").recover()
        assert report.kept == [2]
        reasons = dict(report.quarantined)
        assert reasons["gen-000003"] == "uncommitted"
        assert "stray_tmp" not in reasons  # counted separately
        assert report.stray_tmp == 1
        assert any("gen-000001" in name for name in reasons)
        # Nothing was deleted: every failure is preserved in quarantine/.
        qnames = [p.name for p in store.quarantine_dir.iterdir()]
        assert any(n.startswith("gen-000003") for n in qnames)
        assert any(n.startswith("gen-000001") for n in qnames)
        log = (store.quarantine_dir / "QUARANTINE.log").read_text()
        assert "uncommitted" in log

    def test_recover_sweeps_debris_inside_committed_generation(self, tmp_path):
        store = GenerationStore(tmp_path / "store")
        gen = _commit_blob(store)
        (gen.path / f"blob.bin.xyz{TMP_SUFFIX}").write_bytes(b"torn")
        report = store.recover()
        assert report.kept == [1]
        assert report.stray_tmp == 1
        assert store.latest().index == 1

    def test_recover_quarantines_unreadable_manifest(self, tmp_path):
        store = GenerationStore(tmp_path / "store")
        gen = _commit_blob(store)
        (gen.path / "MANIFEST.json").write_text("{not json", encoding="utf-8")
        report = store.recover()
        assert report.kept == []
        assert dict(report.quarantined)["gen-000001"] == "manifest-unreadable"

    def test_recover_quarantines_unknown_store_format(self, tmp_path):
        store = GenerationStore(tmp_path / "store")
        gen = _commit_blob(store)
        manifest = json.loads((gen.path / "MANIFEST.json").read_text())
        manifest["store_format"] = 99
        (gen.path / "MANIFEST.json").write_text(json.dumps(manifest))
        report = store.recover()
        assert report.kept == []
        assert "unknown-store-format" in dict(report.quarantined)["gen-000001"]

    def test_recover_audits_cbm_archives(self, tmp_path):
        """A CRC-clean but structurally broken CBM archive is caught by
        the staticcheck artifact audit wired into recovery."""
        a = random_adjacency_csr(20, seed=1)
        cbm, _ = build_cbm(a, alpha=2)
        store = GenerationStore(tmp_path / "store")
        with store.begin() as txn:
            # Not a CBM archive at all, but committed with a valid CRC.
            with atomic_write(txn.path("adjacency.npz", kind="cbm")) as fh:
                np.savez_compressed(fh, junk=np.ones(3))
        report = store.recover()
        assert report.kept == []
        assert report.quarantined
        # And a genuine archive passes the same audit.
        with store.begin() as txn:
            save_cbm(txn.path("adjacency.npz", kind="cbm"), cbm)
        report = store.recover()
        assert len(report.kept) == 1

    def test_report_to_dict_roundtrips(self, tmp_path):
        store = GenerationStore(tmp_path / "store")
        _commit_blob(store)
        d = store.recover().to_dict()
        assert d["kept"] == [1] and d["examined"] == 1
        json.dumps(d)  # must be JSON-serialisable for the soak report


# ---------------------------------------------------------------------------
# Serving swap from a generation store
# ---------------------------------------------------------------------------

def _commit_archive(store, seed=1):
    a = random_adjacency_csr(24, seed=seed)
    cbm, _ = build_cbm(a, alpha=2)
    with store.begin(meta={"seed": seed}) as txn:
        save_cbm(txn.path("adjacency.npz", kind="cbm"), cbm)
    return txn.generation


class TestSwapGeneration:
    def _service(self):
        slot = AdjacencySlot.from_graph(random_adjacency_csr(24, seed=0), alpha=2)
        return InferenceService(slot)

    def test_swaps_to_newest_committed(self, tmp_path):
        store = GenerationStore(tmp_path / "store")
        _commit_archive(store, seed=1)
        newest = _commit_archive(store, seed=2)
        with self._service() as svc:
            summary = svc.swap_generation(store)
        assert summary["store_generation"] == newest.index
        assert summary["fallbacks"] == 0

    def test_falls_back_past_corrupt_newest(self, tmp_path):
        store = GenerationStore(tmp_path / "store")
        good = _commit_archive(store, seed=1)
        bad = _commit_archive(store, seed=2)
        payload = bad.file("adjacency.npz")
        blob = payload.read_bytes()
        payload.write_bytes(blob[: len(blob) // 2])  # torn after commit
        with self._service() as svc:
            summary = svc.swap_generation(store)
        assert summary["store_generation"] == good.index
        assert summary["fallbacks"] == 1
        # The rejected generation went to quarantine with its reason.
        assert any(
            "swap-rejected" in p.name for p in store.quarantine_dir.iterdir()
        )
        assert [g.index for g in store.generations()] == [good.index]

    def test_empty_store_raises_recovery_error(self, tmp_path):
        store = GenerationStore(tmp_path / "store")
        with self._service() as svc:
            with pytest.raises(RecoveryError):
                svc.swap_generation(store)

    def test_all_generations_bad_raises_integrity_error(self, tmp_path):
        store = GenerationStore(tmp_path / "store")
        for seed in (1, 2):
            gen = _commit_archive(store, seed=seed)
            gen.file("adjacency.npz").write_bytes(b"garbage")
        with self._service() as svc:
            with pytest.raises(IntegrityError, match="no loadable"):
                svc.swap_generation(store)


# ---------------------------------------------------------------------------
# Durable training checkpoints
# ---------------------------------------------------------------------------

def _train_fixture(seed=0):
    a = random_adjacency_csr(24, seed=7)
    rng = np.random.default_rng(seed)
    x = rng.random((24, 6)).astype(np.float32)
    labels = rng.integers(0, 3, 24)
    mask = np.ones(24, dtype=bool)
    return a, x, labels, mask


class TestDurableCheckpoints:
    def test_periodic_commits_and_latest_resume(self, tmp_path):
        a, x, labels, mask = _train_fixture()
        store = GenerationStore(tmp_path / "ckpt", retain=3)
        model = GCN([6, 6, 3], requires_grad=True, seed=1)
        train_gcn(
            model, make_operator(a, "csr"), x, labels, train_mask=mask,
            epochs=5, checkpoint_every=1, checkpoint_store=store,
        )
        assert [g.index for g in store.generations()] == [3, 4, 5]
        ck = load_latest_checkpoint(store, model=model)
        assert isinstance(ck, TrainCheckpoint) and ck.epoch == 5

        # Resuming "latest" with a higher epoch budget continues, and the
        # resumed history matches an uninterrupted run of the same seeds.
        result = train_gcn(
            model, make_operator(a, "csr"), x, labels, train_mask=mask,
            epochs=8, checkpoint_every=1, checkpoint_store=store,
            resume_from="latest",
        )
        assert len(result.losses) == 8

    def test_resume_latest_on_empty_store_starts_fresh(self, tmp_path):
        a, x, labels, mask = _train_fixture()
        store = GenerationStore(tmp_path / "ckpt")
        model = GCN([6, 6, 3], requires_grad=True, seed=1)
        result = train_gcn(
            model, make_operator(a, "csr"), x, labels, train_mask=mask,
            epochs=2, checkpoint_every=1, checkpoint_store=store,
            resume_from="latest",
        )
        assert len(result.losses) == 2

    def test_load_latest_skips_corrupt_newest(self, tmp_path):
        a, x, labels, mask = _train_fixture()
        store = GenerationStore(tmp_path / "ckpt")
        model = GCN([6, 6, 3], requires_grad=True, seed=1)
        train_gcn(
            model, make_operator(a, "csr"), x, labels, train_mask=mask,
            epochs=3, checkpoint_every=1, checkpoint_store=store,
        )
        newest = store.generations()[-1]
        payload = newest.file(CHECKPOINT_PAYLOAD)
        payload.write_bytes(payload.read_bytes()[:40])  # torn after commit
        ck = load_latest_checkpoint(store, model=model)
        assert ck is not None and ck.epoch == 2


# ---------------------------------------------------------------------------
# Kill-9 crash harness
# ---------------------------------------------------------------------------

class TestCrashHarness:
    def test_trial_kills_at_first_sync_point(self):
        trial = run_trial("archive", crash_at=1, seed=3, iterations=1)
        assert trial.killed
        assert trial.ok, trial.violations
        assert trial.announced == []  # died before any commit returned
        assert trial.root is None  # clean trials delete their root

    def test_trial_completes_past_all_sync_points(self):
        trial = run_trial("archive", crash_at=10_000, seed=3, iterations=2)
        assert not trial.killed
        assert trial.ok, trial.violations
        assert trial.announced == [1, 2]
        assert trial.kept == [1, 2]

    def test_broken_protocol_trial_detects_lost_commit(self):
        trial = run_trial("archive", crash_at=1, seed=3, iterations=1,
                          break_protocol=True)
        assert trial.killed
        assert not trial.ok
        assert any("lost after recovery" in v for v in trial.violations)
        assert trial.root is not None and os.path.isdir(trial.root)
        import shutil

        shutil.rmtree(trial.root, ignore_errors=True)

    def test_small_soak_holds_invariants(self):
        report = crash(trials=4, seed=5, workloads=("archive", "multi"), iterations=2)
        assert report["ok"], report["violations"]
        assert report["killed"] >= 1  # at least one trial actually died

    @pytest.mark.chaos
    def test_full_soak_all_workloads(self):
        report = crash(trials=12, seed=0, iterations=2)
        assert report["ok"], report["violations"]
        assert report["killed"] >= 6
        assert report["commits_observed"] >= 1
        assert report["max_recovery_s"] < 10.0

    @pytest.mark.chaos
    def test_negative_control_soak_fails(self):
        report = crash(trials=3, seed=0, workloads=("archive",), iterations=2,
                       break_protocol=True)
        assert not report["ok"]
        assert report["checks"]["committed_generations_kept"] is False
        assert any("lost after recovery" in v for v in report["violations"])
        import shutil

        for v in report["violations"]:
            marker = "root="
            if marker in v:
                root = v.split(marker, 1)[1].split("]", 1)[0]
                shutil.rmtree(root, ignore_errors=True)


class TestKilledTrainerResumesEndToEnd:
    """SIGKILL a real training subprocess, then resume it to completion."""

    @pytest.mark.chaos
    def test_resume_after_kill9(self, tmp_path):
        root = tmp_path / "ckpt"
        code = (
            "from repro.recovery.crashsim import run_worker\n"
            f"run_worker('trainer', {str(root)!r}, crash_at={{crash_at}}, "
            "seed=5, iterations=6)\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        # First launch dies mid-run at a sync point inside epoch ~3.
        proc = subprocess.run(
            [sys.executable, "-c", code.format(crash_at=20)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr

        store = GenerationStore(root)
        report = store.recover()
        killed_at = store.latest()
        assert killed_at is not None, report.to_dict()
        resumed_from = killed_at.meta["epoch"]
        assert 0 < resumed_from < 6

        # Relaunching the *same command* (crash point far beyond the run)
        # resumes from the last committed epoch and finishes all 6.
        proc = subprocess.run(
            [sys.executable, "-c", code.format(crash_at=10_000)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "DONE" in proc.stdout
        final = GenerationStore(root).latest()
        assert final.meta["epoch"] == 6
        ck = load_latest_checkpoint(store)
        assert ck.epoch == 6
        assert len(ck.losses) == 6
