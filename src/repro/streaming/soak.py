"""Mutation-storm chaos soak: edits + batched inference + kill-9 rebuilds.

The robustness claim of the streaming tier is *serving correctness under
concurrent mutation and rebuild crashes*:

* every served result must **bitwise**-match the reference product of
  the generation that served it (the slot's CBM product — or its CSR
  reference when the breaker degraded), for *some* generation no staler
  than the configured budget;
* every rebuild killed mid-commit (SIGKILL at a randomized
  :mod:`repro.recovery.atomic` sync point) must leave the store
  recoverable: announced-committed generations all survive, torn state
  is quarantined with a logged reason, and the service swaps to a
  loadable committed generation — never a torn artifact.

The soak runs two phases over one live system (MutableAdjacency +
GenerationStore + batched InferenceService + BackgroundRebuilder):

1. **storm** — concurrent clients stream batched requests while mutator
   threads apply random edge batches (publishing each patched snapshot)
   and the background rebuilder commits + hot-swaps fresh generations;
2. **crash** — rebuild workers run as killable subprocesses against the
   *same* store (via the crashsim streaming workload), die at random
   sync points, the parent recovers, swaps to the surviving latest
   generation, and serves a verified burst from it.

Verification is post-hoc: clients record ``(generation, operand, result,
version)`` tuples and every tuple is checked against the recorded
generation → reference mapping after the phase, so the check itself
cannot race a swap.
"""

from __future__ import annotations

import random
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.builder import build_cbm
from repro.core.io import save_cbm
from repro.errors import OverloadError, ReproError, StalenessError
from repro.recovery.crashsim import _POINTS_PER_COMMIT, run_trial
from repro.recovery.store import GenerationStore
from repro.serving.batching import BatchConfig
from repro.serving.service import AdjacencySlot, InferenceService
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import spmm
from repro.staticcheck import audit_archive, audit_cbm
from repro.streaming.drift import DriftPolicy, DriftTracker
from repro.streaming.mutable import EdgeBatch, MutableAdjacency
from repro.streaming.rebuild import BackgroundRebuilder, publish_snapshot

__all__ = ["patched_budget", "run_mutation_soak"]


def _default_adjacency(n: int = 96, density: float = 0.06, seed: int = 7) -> CSRMatrix:
    from repro.sparse.convert import from_dense

    rng = np.random.default_rng(seed)
    d = (rng.random((n, n)) < density).astype(np.float32)
    d = np.maximum(d, d.T)
    np.fill_diagonal(d, 0.0)
    return from_dense(d)


class _Recorder:
    """Thread-safe sink for served results and client-side failures."""

    def __init__(self):
        self.lock = threading.Lock()
        self.records: list[tuple] = []  # (phase, gen, op_idx, y, version_done, dt)
        self.dropped = 0
        self.hung = 0
        self.errors = 0
        self.stalls = 0
        self.latencies: dict[str, list[float]] = {}
        self.violations: list[str] = []

    def note_latency(self, phase: str, dt: float) -> None:
        self.latencies.setdefault(phase, []).append(dt)


def _client(
    phase: str,
    service: InferenceService,
    operands: list[np.ndarray],
    rec: _Recorder,
    mutable: MutableAdjacency,
    *,
    offset: int,
    requests: int,
    deadline_s: float,
) -> None:
    for i in range(requests):
        x = operands[(offset + i) % len(operands)]
        t0 = time.monotonic()
        try:
            future = service.submit(x, deadline_s=deadline_s)
            y = future.result(timeout=deadline_s + 10.0)
        except OverloadError:
            with rec.lock:
                rec.dropped += 1
                rec.violations.append(
                    f"{phase}: request shed (queue overflow) — the soak is "
                    "sized to never drop"
                )
            continue
        except TimeoutError:
            with rec.lock:
                rec.hung += 1
                rec.violations.append(
                    f"{phase}: request hung past deadline+grace (offset "
                    f"{offset}, request {i})"
                )
            continue
        except ReproError as exc:
            with rec.lock:
                rec.errors += 1
                rec.violations.append(
                    f"{phase}: request failed: {type(exc).__name__}: {exc}"
                )
            continue
        dt = time.monotonic() - t0
        gen = future.generation if future.generation is not None else 0
        version_done = mutable.version
        with rec.lock:
            rec.records.append((phase, gen, (offset + i) % len(operands), y, version_done, dt))
            rec.note_latency(phase, dt)


def _verify(
    rec: _Recorder,
    refs: dict[int, tuple[int | None, object, CSRMatrix]],
    operands: list[np.ndarray],
    *,
    staleness_budget: int,
) -> tuple[int, int, int]:
    """Post-hoc check of every record; returns (ok, wrong, max_staleness)."""
    ok = wrong = 0
    max_stale = 0
    for phase, gen, op_idx, y, version_done, _dt in rec.records:
        got = refs.get(gen)
        if got is None:
            wrong += 1
            rec.violations.append(
                f"{phase}: result labelled generation {gen}, which was never "
                "published — torn or phantom swap"
            )
            continue
        version, cbm, source = got
        x = operands[op_idx]
        expected = cbm.matmul(x)
        if not np.array_equal(y, expected):
            # The breaker's degraded tier serves the exact CSR product.
            alt = spmm(source, x)
            if not np.array_equal(y, alt):
                wrong += 1
                rec.violations.append(
                    f"{phase}: result does not bitwise-match generation "
                    f"{gen}'s CBM or CSR reference (operand {op_idx})"
                )
                continue
        if version is not None:
            stale = version_done - version
            max_stale = max(max_stale, stale)
            if stale > staleness_budget:
                wrong += 1
                rec.violations.append(
                    f"{phase}: served graph version {version} is {stale} "
                    f"versions behind the live graph ({version_done}) — "
                    f"budget is {staleness_budget}"
                )
                continue
        ok += 1
    return ok, wrong, max_stale


def patched_budget(tracker_snapshot: dict) -> int:
    """The staleness budget the live patched matrix is audited with: the
    deltas it carries beyond the last rebuild plus the edges patched
    since (replayed ones included), at least 1."""
    snap = tracker_snapshot
    return max(
        1, max(0, snap["live_deltas"] - snap["baseline_deltas"]) + snap["edges_since_rebuild"]
    )


def run_mutation_soak(
    a: CSRMatrix | None = None,
    *,
    seed: int = 7,
    alpha: int = 0,
    clients: int = 4,
    requests_per_client: int = 40,
    mutator_batches: int = 18,
    edges_per_batch: int = 3,
    staleness_budget: int = 12,
    max_drift: float = 0.2,
    crash_trials: int = 3,
    crash_iterations: int = 2,
    crash_requests: int = 20,
    retain: int = 3,
    deadline_s: float = 5.0,
    max_columns: int = 32,
    min_requests: int = 200,
    root: str | None = None,
    progress=None,
) -> dict:
    """Run the full mutation-storm soak; returns a report dict with ``ok``.

    Defaults serve ``clients * requests_per_client + crash_trials *
    crash_requests`` >= ``min_requests`` requests.  ``root`` (optional)
    keeps the generation store at a caller-owned path instead of a
    temporary directory.
    """

    def _say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    if a is None:
        a = _default_adjacency(seed=seed)
    rng = random.Random(seed)
    owned_root = root is None
    root_dir = Path(root) if root is not None else Path(tempfile.mkdtemp(prefix="mutsoak-"))

    policy = DriftPolicy(
        max_drift=max_drift, staleness_budget=staleness_budget, enforce=False, columns=2
    )
    tracker = DriftTracker(policy)
    mutable = MutableAdjacency.from_graph(a, alpha=alpha, tracker=tracker)
    store = GenerationStore(root_dir / "store", retain=retain)

    n = a.shape[0]
    nprng = np.random.default_rng(seed)
    operands = [
        nprng.standard_normal((n, int(w))).astype(np.float32)
        for w in (2, 3, 4, 2, 3, 4, 2, 3, 4, 2, 3, 4)
    ]

    version0, cbm0, source0 = mutable.snapshot()
    slot0 = AdjacencySlot(cbm0, source0, tracker=tracker)
    slot0.graph_version = version0

    refs: dict[int, tuple[int | None, object, CSRMatrix]] = {0: (version0, cbm0, source0)}
    refs_lock = threading.Lock()
    rec = _Recorder()

    def _publish(svc: InferenceService, mut: MutableAdjacency) -> None:
        with refs_lock:
            version, gen, slot = publish_snapshot(mut, svc)
            refs[gen] = (version, slot.cbm, slot.source)

    service = InferenceService(
        slot0,
        queue_capacity=max(128, clients * 16),
        default_deadline_s=deadline_s,
        batch=BatchConfig(max_columns=max_columns),
        seed=seed,
    )
    rebuilder = BackgroundRebuilder(
        mutable, store, service, publisher=_publish, poll_interval_s=0.01
    )

    patch_reports = []
    t_start = time.perf_counter()
    with service:
        # Warm the plan/pool and the batch-formation path off the clock.
        for fut in [service.submit(operands[i % len(operands)]) for i in range(8)]:
            fut.result(30.0)

        # ---------------- phase 1: mutation storm -------------------
        _say("storm: concurrent edits + batched inference + rebuilds")
        rebuilder.start()

        def _mutator() -> None:
            for j in range(mutator_batches):
                _, _, src = mutable.snapshot()
                batch = EdgeBatch.random(
                    src,
                    inserts=edges_per_batch,
                    deletes=edges_per_batch,
                    seed=seed * 7919 + j,
                )
                try:
                    report = mutable.apply(batch)
                except StalenessError:
                    with rec.lock:
                        rec.stalls += 1
                    time.sleep(0.01)
                    continue
                patch_reports.append(report)
                _publish(service, mutable)
                time.sleep(0.002)

        threads = [threading.Thread(target=_mutator, name="soak-mutator")]
        threads += [
            threading.Thread(
                target=_client,
                args=("storm", service, operands, rec, mutable),
                kwargs=dict(
                    offset=k * requests_per_client,
                    requests=requests_per_client,
                    deadline_s=deadline_s,
                ),
                name=f"soak-client-{k}",
            )
            for k in range(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        rebuilder.stop()
        if not rebuilder.reports:
            # The storm was too short for the drift trigger: run one
            # synchronous cycle so the store always holds a generation.
            rebuilder.rebuild_once()

        # ---------------- phase 2: kill-9 mid-rebuild ----------------
        _say("crash: killing rebuild workers at random sync points")
        _, crash_cbm, _ = mutable.snapshot()
        graph_path = root_dir / "crash-input.npz"
        save_cbm(graph_path, crash_cbm)
        span = _POINTS_PER_COMMIT * crash_iterations
        trials = []
        for t_idx in range(crash_trials):
            trial = run_trial(
                "streaming",
                crash_at=rng.randint(1, span),
                seed=rng.randint(0, 2**31 - 1),
                iterations=crash_iterations,
                root=str(store.root),
                graph=str(graph_path),
            )
            trials.append(trial)
            with rec.lock:
                rec.violations.extend(
                    f"crash-{t_idx}: {v}" for v in trial.violations
                )
            # Swap to the surviving latest committed generation and
            # serve a verified burst from it.  Worker-produced
            # generations carry worker-local graph versions, so the
            # per-request staleness check is skipped (version=None) and
            # only the bitwise torn-artifact check applies.
            summary = service.swap_generation(store)
            slot = service._slot
            with refs_lock:
                refs[summary["generation"]] = (None, slot.cbm, slot.source)
            _client(
                f"crash-{t_idx}",
                service,
                operands,
                rec,
                mutable,
                offset=t_idx * crash_requests,
                requests=crash_requests,
                deadline_s=deadline_s,
            )

        # Retention pressure: commit enough fresh generations to push
        # the live slot's pinned generation out of the keep window.
        # The pin (not retention order) must be what keeps it on disk.
        pin = getattr(service._slot, "_pin", None)
        pinned_survives = False
        if pin is not None:
            pin_index = pin[1]
            _, _, press_source = mutable.snapshot()
            press_cbm, _ = build_cbm(press_source, alpha=alpha)
            for _ in range(retain + 1):
                with store.begin(
                    meta={"kind": "cbm-archive", "streaming": True}
                ) as txn:
                    save_cbm(txn.path("adjacency.npz", kind="cbm"), press_cbm)
            pinned_survives = (
                pin_index in store.pinned()
                and (store.root / f"gen-{pin_index:06d}").is_dir()
            )
        health = service.health()

    ok_count, wrong, max_stale = _verify(
        rec, refs, operands, staleness_budget=staleness_budget
    )

    total = len(rec.records) + rec.dropped + rec.hung + rec.errors
    committed = [g.index for g in store.generations()]
    quarantine_log = store.quarantine_dir / "QUARANTINE.log"
    quarantined_logged = (not any(t.quarantined for t in trials)) or quarantine_log.exists()

    _, live_cbm, _ = mutable.snapshot()
    patched_audit = audit_cbm(
        live_cbm, subject="patched-cbm", staleness_budget=patched_budget(tracker.snapshot())
    )
    latest = store.latest()
    rebuilt_audit = (
        audit_archive(latest.file("adjacency.npz"), subject="rebuilt-cbm")
        if latest is not None
        else None
    )

    checks = {
        "min_requests": total >= min_requests,
        "zero_wrong": wrong == 0,
        "zero_hung": rec.hung == 0,
        "zero_dropped": rec.dropped == 0,
        "zero_errors": rec.errors == 0,
        "staleness_within_budget": max_stale <= staleness_budget,
        "rebuilds_completed": len(rebuilder.reports) >= 1 and len(committed) >= 1,
        "all_crash_trials_killed": all(t.killed for t in trials),
        "crash_recovery_clean": all(t.ok for t in trials),
        "quarantine_reasons_logged": quarantined_logged,
        "pinned_generation_survives_prune": pinned_survives,
        "patched_audit_ok": patched_audit.ok,
        "rebuilt_audit_ok": rebuilt_audit is not None and rebuilt_audit.ok,
    }
    if not patched_audit.ok:
        rec.violations.extend(
            f"patched-audit: {f.code}: {f.message}" for f in patched_audit.findings
        )
    if rebuilt_audit is not None and not rebuilt_audit.ok:
        rec.violations.extend(
            f"rebuilt-audit: {f.code}: {f.message}" for f in rebuilt_audit.findings
        )

    def _pct(phase: str, q: float) -> float | None:
        lat = rec.latencies.get(phase)
        return float(np.percentile(np.asarray(lat), q) * 1e3) if lat else None

    report = {
        "benchmark": "mutation_soak",
        "workload": {
            "nodes": int(n),
            "nnz_initial": int(a.nnz),
            "clients": clients,
            "requests_per_client": requests_per_client,
            "mutator_batches": mutator_batches,
            "edges_per_batch": edges_per_batch,
            "crash_trials": crash_trials,
            "crash_requests": crash_requests,
            "staleness_budget": staleness_budget,
            "max_drift": max_drift,
            "retain": retain,
            "seed": seed,
        },
        "requests": total,
        "verified_ok": ok_count,
        "wrong": wrong,
        "hung": rec.hung,
        "dropped": rec.dropped,
        "errors": rec.errors,
        "stalls": rec.stalls,
        "max_staleness": max_stale,
        "patches_applied": len(patch_reports),
        "patch_p50_ms": _pct_of([r.seconds for r in patch_reports], 50),
        "rebuilds": len(rebuilder.reports),
        "rebuild_wall_s": [round(r.total_seconds, 4) for r in rebuilder.reports],
        "generations_committed": committed,
        "generations_published": sorted(refs),
        "crash": [
            {
                "crash_at": t.crash_at,
                "killed": t.killed,
                "announced": t.announced,
                "kept": t.kept,
                "quarantined": t.quarantined,
                "ok": t.ok,
            }
            for t in trials
        ],
        "latency_p99_ms": {k: _pct(k, 99) for k in rec.latencies},
        "tracker": tracker.snapshot(),
        "health_streaming": health.get("streaming"),
        "checks": checks,
        "violations": rec.violations,
        "elapsed_s": time.perf_counter() - t_start,
        "ok": all(checks.values()) and not rec.violations,
    }
    if owned_root and report["ok"]:
        import shutil

        shutil.rmtree(root_dir, ignore_errors=True)
    else:
        report["root"] = str(root_dir)
    return report


def _pct_of(values: list[float], q: float) -> float | None:
    if not values:
        return None
    return float(np.percentile(np.asarray(values), q) * 1e3)
