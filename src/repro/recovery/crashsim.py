"""Kill-9 chaos harness: prove the persistence tier crash-safe.

The harness runs real writer workloads in a *subprocess* and sends it an
uncatchable ``SIGKILL`` at a randomized durability sync point — the hook
installed via :func:`repro.recovery.atomic.set_sync_hook` fires at every
protocol step of every :func:`~repro.recovery.atomic.atomic_write`
(``wrote`` / ``replace`` / ``renamed``) and at the store's ``commit``
marker write, so process death lands in every window: mid-payload,
between payload durability and commit, mid-``os.replace`` of the
manifest, and between the rename and the directory sync.

After each kill the parent re-opens the store, runs
:meth:`~repro.recovery.store.GenerationStore.recover`, and asserts the
durability invariants:

1. **No committed generation is ever lost** — every generation the
   worker announced as committed (after its commit returned) is still
   present.
2. **Every surviving generation validates.**
3. **latest() is never corrupt** — after recovery the newest committed
   generation loads end-to-end (``load_cbm`` for archives,
   ``load_checkpoint`` for training state).
4. **All torn temp files are quarantined** — no ``*.tmp-atomic`` debris
   survives outside ``quarantine/``.
5. **Recovery time is bounded** (:data:`RECOVERY_BUDGET_S`).
6. **The worker was killed or exited clean** — a worker that hangs or
   fails on its own is a finding.

``break_protocol`` deliberately runs a *buggy* writer that puts the
commit marker before the payload (the classic torn-write bug this tier
exists to prevent); the harness must then detect a lost committed
generation — proving the invariant checks have teeth.

:func:`run_trial` runs one such cycle; ``repro soak crash``
(:func:`repro.soak.crash`) draws randomized trials over every workload
and ``repro soak stream`` kills rebuild workers on its live store.  Each
invariant is named in :data:`TRIAL_CHECKS`.  The worker entry point is
this module itself::

    python -m repro.recovery.crashsim --worker archive --root DIR \
        --crash-at 5 --seed 1
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field

from repro.recovery import atomic
from repro.recovery.store import GenerationStore

WORKLOADS = ("archive", "trainer", "multi", "streaming")

#: Seconds one recovery may take, and one worker may run.
RECOVERY_BUDGET_S = 10.0
WORKER_TIMEOUT_S = 120.0

#: The invariants a trial checks, as named in :attr:`TrialResult.failed`.
TRIAL_CHECKS = (
    "committed_generations_kept",
    "survivors_verify",
    "latest_loads",
    "torn_tmp_quarantined",
    "recovery_within_budget",
    "worker_killed_or_clean",
)

#: Sync points per store commit: one payload ``atomic_write`` (3) + the
#: ``commit`` marker point (1) + the manifest ``atomic_write`` (3).
_POINTS_PER_COMMIT = 7


# ---------------------------------------------------------------------------
# Worker side (runs in the subprocess that gets killed)
# ---------------------------------------------------------------------------

def _install_kill_hook(crash_at: int) -> None:
    """SIGKILL ourselves at the ``crash_at``-th durability sync point."""
    state = {"count": 0}

    def hook(point: str, path: str) -> None:
        state["count"] += 1
        if state["count"] == crash_at:
            sys.stdout.flush()
            os.kill(os.getpid(), signal.SIGKILL)

    atomic.set_sync_hook(hook)


class _AnnouncingStore(GenerationStore):
    """Store that reports each commit on stdout *after* it is durable.

    The parent treats every announced generation as a durability
    promise: if recovery cannot validate it later, the harness flags a
    lost committed generation.
    """

    def _commit(self, txn):
        gen = super()._commit(txn)
        print(f"COMMITTED {gen.index}", flush=True)
        return gen


def _tiny_adjacency():
    import numpy as np

    from repro.sparse.convert import from_dense

    rng = np.random.default_rng(11)
    d = (rng.random((24, 24)) < 0.25).astype(np.float32)
    d = np.maximum(d, d.T)
    np.fill_diagonal(d, 0.0)
    return from_dense(d)


def _worker_archive(store: GenerationStore, iterations: int, seed: int) -> None:
    from repro.core.builder import build_cbm
    from repro.core.io import save_cbm

    cbm, _ = build_cbm(_tiny_adjacency(), alpha=2)
    for _ in range(iterations):
        with store.begin(meta={"kind": "cbm-archive"}) as txn:
            save_cbm(txn.path("adjacency.npz", kind="cbm"), cbm)


def _worker_trainer(store: GenerationStore, iterations: int, seed: int) -> None:
    import numpy as np

    from repro.gnn.adjacency import make_operator
    from repro.gnn.gcn import GCN
    from repro.gnn.train import train_gcn

    a = _tiny_adjacency()
    rng = np.random.default_rng(seed)
    x = rng.random((a.shape[0], 6)).astype(np.float32)
    labels = rng.integers(0, 3, a.shape[0])
    mask = np.ones(a.shape[0], dtype=bool)
    model = GCN([6, 6, 3], requires_grad=True, seed=seed)
    train_gcn(
        model,
        make_operator(a, "csr"),
        x,
        labels,
        train_mask=mask,
        epochs=iterations,
        checkpoint_every=1,
        checkpoint_store=store,
        resume_from="latest",
    )


def _worker_multi(store: GenerationStore, iterations: int, seed: int) -> None:
    """Several payloads per generation — stresses the multi-file commit."""
    import numpy as np

    rng = np.random.default_rng(seed)
    for _ in range(iterations):
        with store.begin(meta={"kind": "bundle"}) as txn:
            for name in ("part-a.json", "part-b.json", "part-c.json"):
                with atomic.atomic_write(
                    txn.path(name), mode="w", encoding="utf-8"
                ) as fh:
                    json.dump({"values": rng.integers(0, 100, 32).tolist()}, fh)


def _worker_streaming(
    store: GenerationStore, iterations: int, seed: int, graph: str | None = None
) -> None:
    """The streaming rebuilder's commit path: patch, recompress, commit.

    Each iteration applies one random edge batch to a
    :class:`~repro.streaming.MutableAdjacency`, rebuilds a fresh CBM
    from the patched adjacency, and commits it as a new generation
    (``graph_version`` in the manifest meta records which mutation step
    the artifact represents).  Sync-point span per iteration is the same
    7 as the archive workload: one atomic payload write (3) + the commit
    marker (1) + the manifest write (3) — a kill anywhere in between
    must leave the previous generation as the loadable latest.
    """
    from repro.core.builder import build_cbm
    from repro.core.io import load_cbm, save_cbm
    from repro.streaming.mutable import EdgeBatch, MutableAdjacency

    if graph is not None:
        cbm0 = load_cbm(graph)
        a = cbm0.tocsr()
    else:
        a = _tiny_adjacency()
    mutable = MutableAdjacency.from_graph(a)
    for i in range(iterations):
        _, _, source = mutable.snapshot()
        batch = EdgeBatch.random(
            source, inserts=3, deletes=2, seed=seed * 1009 + i
        )
        mutable.apply(batch)
        version, _, patched_source = mutable.snapshot()
        fresh, _ = build_cbm(patched_source, alpha=0)
        with store.begin(
            meta={"kind": "cbm-archive", "streaming": True, "graph_version": version}
        ) as txn:
            save_cbm(txn.path("adjacency.npz", kind="cbm"), fresh)


def _worker_broken_protocol(store: GenerationStore, iterations: int, seed: int) -> None:
    """Deliberately buggy writer: commit marker BEFORE the payload.

    Announces the generation as committed, then writes the payload
    non-atomically with a sync point in the middle — a kill there leaves
    a committed manifest pointing at torn bytes, which the harness must
    detect as a lost committed generation.
    """
    import zlib

    payload = (b"0123456789abcdef" * 512)
    for _ in range(iterations):
        txn = store.begin(meta={"kind": "broken"})
        manifest = {
            "store_format": 1,
            "generation": txn.index,
            "committed": True,
            "meta": txn.meta,
            "files": {
                "blob.bin": {"bytes": len(payload), "crc32": zlib.crc32(payload)}
            },
        }
        with open(txn.dir / "MANIFEST.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        print(f"COMMITTED {txn.index}", flush=True)
        half = len(payload) // 2
        with open(txn.dir / "blob.bin", "wb") as fh:
            fh.write(payload[:half])
            fh.flush()
            atomic._checkpoint("buggy-mid-payload", str(txn.dir / "blob.bin"))
            fh.write(payload[half:])
        txn._open = False  # bypass the safe commit entirely


def run_worker(
    workload: str,
    root: str,
    *,
    crash_at: int,
    seed: int,
    iterations: int,
    break_protocol: bool = False,
    graph: str | None = None,
) -> None:
    """Subprocess entry point: run the workload until killed (or done)."""
    _install_kill_hook(crash_at)
    store = _AnnouncingStore(root, audit_archives=False)
    if break_protocol:
        _worker_broken_protocol(store, iterations, seed)
    elif workload == "archive":
        _worker_archive(store, iterations, seed)
    elif workload == "trainer":
        _worker_trainer(store, iterations, seed)
    elif workload == "multi":
        _worker_multi(store, iterations, seed)
    elif workload == "streaming":
        _worker_streaming(store, iterations, seed, graph=graph)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    print("DONE", flush=True)


# ---------------------------------------------------------------------------
# Parent side (spawns, kills, recovers, asserts)
# ---------------------------------------------------------------------------

@dataclass
class TrialResult:
    """One spawn/kill/recover cycle and the invariants it checked."""

    workload: str
    crash_at: int
    killed: bool = False
    announced: list = field(default_factory=list)
    kept: list = field(default_factory=list)
    quarantined: int = 0
    stray_tmp: int = 0
    recovery_s: float = 0.0
    violations: list = field(default_factory=list)
    failed: list = field(default_factory=list)  # the TRIAL_CHECKS violated
    root: str | None = None  # preserved store root of a violating trial

    @property
    def ok(self) -> bool:
        return not self.violations

    def fail(self, check: str, message: str) -> None:
        """Record a violation of the invariant ``check`` (a TRIAL_CHECKS name)."""
        self.failed.append(check)
        self.violations.append(message)


def _find_tmp_debris(root: str) -> list[str]:
    """Every ``*.tmp-atomic`` file under ``root`` outside quarantine/."""
    debris = []
    for dirpath, dirnames, filenames in os.walk(root):
        if os.path.basename(dirpath) == "quarantine":
            dirnames[:] = []
            continue
        dirnames[:] = [d for d in dirnames if d != "quarantine"]
        debris.extend(
            os.path.join(dirpath, f) for f in filenames if atomic.is_tmp_debris(f)
        )
    return debris


def _check_latest_loads(store: GenerationStore, workload: str) -> str | None:
    """Load the newest committed generation end-to-end; return an error."""
    gen = store.latest()
    if gen is None:
        return None
    try:
        if workload == "trainer":
            from repro.gnn.train import CHECKPOINT_PAYLOAD, load_checkpoint

            load_checkpoint(gen.file(CHECKPOINT_PAYLOAD))
        elif workload in ("archive", "streaming"):
            from repro.core.io import load_cbm

            load_cbm(gen.file("adjacency.npz"))
        else:
            gen.verify()
    except Exception as exc:  # noqa: BLE001 - any load failure is the finding
        return f"latest() generation {gen.index} failed to load: {exc}"
    return None


def run_trial(
    workload: str,
    *,
    crash_at: int,
    seed: int,
    iterations: int = 3,
    root: str | None = None,
    break_protocol: bool = False,
    graph: str | None = None,
) -> TrialResult:
    """Spawn one worker, let the hook SIGKILL it, recover, assert.

    A root created by the trial itself is deleted when every invariant
    holds and preserved (``result.root``) when any is violated, so a
    failing soak leaves its evidence on disk.  ``graph`` (streaming
    workload only) points the worker at a saved CBM archive to mutate,
    so a parent soak can crash rebuilds of *its own* live graph.
    """
    owned = root is None
    if owned:
        root = tempfile.mkdtemp(prefix="crashsim-")
    result = TrialResult(workload=workload, crash_at=crash_at)
    try:
        return _run_trial_inner(
            result,
            workload,
            root,
            crash_at=crash_at,
            seed=seed,
            iterations=iterations,
            break_protocol=break_protocol,
            graph=graph,
        )
    finally:
        if owned:
            if result.violations:
                result.root = root
            else:
                import shutil

                shutil.rmtree(root, ignore_errors=True)


def _run_trial_inner(
    result: TrialResult,
    workload: str,
    root: str,
    *,
    crash_at: int,
    seed: int,
    iterations: int,
    break_protocol: bool,
    graph: str | None = None,
) -> TrialResult:
    cmd = [
        sys.executable,
        "-m",
        "repro.recovery.crashsim",
        "--worker",
        workload,
        "--root",
        root,
        "--crash-at",
        str(crash_at),
        "--seed",
        str(seed),
        "--iterations",
        str(iterations),
    ]
    if break_protocol:
        cmd.append("--break-protocol")
    if graph is not None:
        cmd.extend(["--graph", graph])
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, env=env
        )
    except subprocess.TimeoutExpired:
        result.fail(
            "worker_killed_or_clean", f"worker hung past {WORKER_TIMEOUT_S}s and was killed"
        )
        return result
    result.killed = proc.returncode == -signal.SIGKILL
    if not result.killed and proc.returncode != 0:
        result.fail(
            "worker_killed_or_clean",
            f"worker failed with exit {proc.returncode} (not a kill): "
            f"{proc.stderr.strip()[-400:]}"
        )
        return result
    for line in proc.stdout.splitlines():
        if line.startswith("COMMITTED "):
            result.announced.append(int(line.split()[1]))

    store = GenerationStore(root)
    report = store.recover()
    result.kept = list(report.kept)
    result.quarantined = len(report.quarantined)
    result.stray_tmp = report.stray_tmp
    result.recovery_s = report.elapsed_s

    lost = sorted(set(result.announced) - set(result.kept))
    if lost:
        result.fail(
            "committed_generations_kept",
            f"committed generation(s) {lost} lost after recovery "
            f"(announced {result.announced}, kept {result.kept})"
        )
    for gen in store.generations():
        try:
            gen.verify()
        except Exception as exc:  # noqa: BLE001 - any failure is the finding
            result.fail(
                "survivors_verify",
                f"generation {gen.index} survived recovery but fails "
                f"verification: {exc}"
            )
    load_error = _check_latest_loads(store, "broken" if break_protocol else workload)
    if load_error is not None:
        result.fail("latest_loads", load_error)
    debris = _find_tmp_debris(root)
    if debris:
        result.fail(
            "torn_tmp_quarantined",
            f"torn temp file(s) not quarantined: {[os.path.basename(d) for d in debris]}",
        )
    if report.elapsed_s > RECOVERY_BUDGET_S:
        result.fail(
            "recovery_within_budget",
            f"recovery took {report.elapsed_s:.3f}s > budget {RECOVERY_BUDGET_S:.3f}s",
        )
    return result


def main(argv=None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--worker", choices=WORKLOADS, help="run as the killable worker")
    ap.add_argument("--root", help="store root (worker mode)")
    ap.add_argument("--crash-at", type=int, default=0, help="sync point to die at")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--iterations", type=int, default=3)
    ap.add_argument("--break-protocol", action="store_true")
    ap.add_argument("--graph", default=None,
                    help="CBM archive to mutate (streaming workload)")
    args = ap.parse_args(argv)
    if args.worker:
        run_worker(
            args.worker,
            args.root,
            crash_at=args.crash_at,
            seed=args.seed,
            iterations=args.iterations,
            break_protocol=args.break_protocol,
            graph=args.graph,
        )
        return 0
    ap.error("this module is the worker entry point; use `repro soak crash` to drive it")
    return 2  # pragma: no cover - argparse exits above


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
