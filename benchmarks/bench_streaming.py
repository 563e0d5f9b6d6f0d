"""Streaming-mutation benchmark — patch latency, rebuild cost, swap-storm p99.

Drives a batched :class:`~repro.serving.InferenceService` over a
:class:`~repro.streaming.MutableAdjacency` at several concurrency
levels, twice per level:

* **steady** — no mutations, the PR 6 serving fast path;
* **storm**  — a mutator thread applies random edge batches and
  publishes every patched snapshot (one generation swap per batch)
  while a :class:`~repro.streaming.BackgroundRebuilder` recompresses
  and swaps fresh builds, so clients measure latency *through* a
  continuous swap storm.

The record (``BENCH_PR7.json``) carries patch-latency percentiles,
rebuild wall-clock, and per-level steady vs storm p50/p99/rps.  The
acceptance bar is storm p99 within ``p99_factor`` (2x, full mode) of
steady p99 — zero-downtime swaps must not meaningfully dent tail
latency.  ``calibration_rps`` and the ``batched`` key of each level
(the storm numbers — the guarded configuration) keep the record
compatible with ``benchmarks/check_regression.py``.

Run standalone::

    python benchmarks/bench_streaming.py            # full (COLLAB)
    python benchmarks/bench_streaming.py --smoke    # CI-sized (Cora)

or under pytest-benchmark like the other ``bench_*`` modules.
"""

import argparse
import json
import pathlib
import platform
import tempfile
import threading
import time

import numpy as np

from repro.errors import StalenessError
from repro.graphs.datasets import load_dataset
from repro.recovery import GenerationStore
from repro.serving import AdjacencySlot, BatchConfig, InferenceService
from repro.sparse.ops import spmm
from repro.streaming import (
    BackgroundRebuilder,
    DriftPolicy,
    DriftTracker,
    EdgeBatch,
    MutableAdjacency,
    publish_snapshot,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_JSON = REPO_ROOT / "BENCH_PR7.json"

# Narrow per-request operands (p=2), as in bench_serving_batch: each
# request pays the fixed structure-streaming cost that batching
# amortises, which is also the cost a swap perturbs (the first request
# after a swap runs on a cold plan).  The storm publishes one snapshot
# per mutation batch — far more swaps per second than any production
# deployment — so the p99 factor is measured under deliberately brutal
# churn.
FULL = dict(
    dataset="PubMed", alpha=2, concurrency=(4, 16), requests_per_client=100,
    p=2, deadline_s=2.0, workers=2, passes=3, max_columns=64,
    mutation_edges=4, mutation_period_s=0.025,
    staleness_budget=32, max_drift=0.10, p99_factor=2.0, p99_level=4, seed=11,
)
SMOKE = dict(
    dataset="Cora", alpha=0, concurrency=(4, 16), requests_per_client=25,
    p=2, deadline_s=2.0, workers=2, passes=3, max_columns=64,
    mutation_edges=4, mutation_period_s=0.002,
    staleness_budget=6, max_drift=0.10, p99_factor=None, p99_level=4, seed=11,
)


def _calibrate(source, *, repeats: int = 20) -> float:
    """Ops/sec of a fixed reference SpMM (same estimator as PR 6)."""
    x = np.random.default_rng(0).standard_normal((source.shape[1], 16))
    x = x.astype(np.float32)
    spmm(source, x)  # warm
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        spmm(source, x)
        times.append(time.perf_counter() - t0)
    return 1.0 / min(times)


def _drive(
    service: InferenceService,
    operands: list,
    *,
    clients: int,
    requests_per_client: int,
    deadline_s: float,
) -> dict:
    """Closed-loop load: each client submits, waits, repeats."""
    lock = threading.Lock()
    latencies: list[float] = []
    errors = [0]
    barrier = threading.Barrier(clients + 1)

    def client(k: int) -> None:
        barrier.wait()
        for i in range(requests_per_client):
            x = operands[(k * requests_per_client + i) % len(operands)]
            t0 = time.perf_counter()
            try:
                service.submit(x, deadline_s=deadline_s).result(deadline_s + 10.0)
            except Exception:
                with lock:
                    errors[0] += 1
                continue
            dt = time.perf_counter() - t0
            with lock:
                latencies.append(dt)

    threads = [
        threading.Thread(target=client, args=(k,), name=f"bench-client-{k}")
        for k in range(clients)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    t_start = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t_start
    lat = np.asarray(latencies, dtype=np.float64)
    return {
        "clients": clients,
        "completed": int(lat.size),
        "errors": errors[0],
        "elapsed_s": elapsed,
        "rps": float(lat.size / elapsed) if elapsed > 0 else 0.0,
        "p50_ms": float(np.percentile(lat, 50) * 1e3) if lat.size else None,
        "p99_ms": float(np.percentile(lat, 99) * 1e3) if lat.size else None,
    }


def run_workload(cfg: dict, *, root: str | None = None) -> dict:
    cfg = dict(cfg)
    dataset = cfg.pop("dataset")
    a = load_dataset(dataset)
    rng = np.random.default_rng(cfg["seed"])
    n = a.shape[0]
    operands = [
        rng.standard_normal((n, cfg["p"])).astype(np.float32) for _ in range(16)
    ]
    calibration_rps = _calibrate(a)
    tmpdir = root or tempfile.mkdtemp(prefix="bench-streaming-")

    levels = []
    patch_seconds: list[float] = []
    rebuild_walls: list[float] = []
    total_rebuilds = 0
    for clients in cfg["concurrency"]:
        tracker = DriftTracker(
            DriftPolicy(
                max_drift=cfg["max_drift"],
                staleness_budget=cfg["staleness_budget"],
                columns=cfg["p"],
            )
        )
        mutable = MutableAdjacency.from_graph(a, alpha=cfg["alpha"], tracker=tracker)
        version, cbm, source = mutable.snapshot()
        slot = AdjacencySlot(cbm, source, tracker=tracker)
        slot.graph_version = version
        store = GenerationStore(
            pathlib.Path(tmpdir) / f"store-{clients}", retain=3
        )
        service = InferenceService(
            slot,
            workers=cfg["workers"],
            queue_capacity=max(128, 2 * clients),
            default_deadline_s=cfg["deadline_s"],
            batch=BatchConfig(max_columns=cfg["max_columns"]),
            seed=cfg["seed"],
        )
        rebuilder = BackgroundRebuilder(
            mutable, store, service, poll_interval_s=0.005,
            warm_width=cfg["max_columns"],
        )
        with service:
            warm = [service.submit(operands[i % len(operands)]) for i in range(32)]
            for fut in warm:
                fut.result(60.0)

            steady_passes = [
                _drive(
                    service,
                    operands,
                    clients=clients,
                    requests_per_client=cfg["requests_per_client"],
                    deadline_s=cfg["deadline_s"],
                )
                for _ in range(cfg["passes"])
            ]
            steady = max(steady_passes, key=lambda r: r["rps"])
            steady["errors"] = sum(r["errors"] for r in steady_passes)

            stop_evt = threading.Event()
            level_patches: list[float] = []

            def mutator(
                mut=mutable, reb=rebuilder, stop=stop_evt, out=level_patches
            ) -> None:
                j = 0
                while not stop.is_set():
                    _, _, src = mut.snapshot()
                    batch = EdgeBatch.random(
                        src,
                        inserts=cfg["mutation_edges"],
                        deletes=cfg["mutation_edges"],
                        seed=cfg["seed"] * 6151 + j,
                    )
                    j += 1
                    try:
                        report = mut.apply(batch)
                    except StalenessError:
                        time.sleep(cfg["mutation_period_s"])
                        continue
                    out.append(report.seconds)
                    # Warm the batch-width workspace before the swap so
                    # the first post-swap batch does not pay allocation.
                    publish_snapshot(mut, service, warm_width=cfg["max_columns"])
                    reb.trigger()
                    time.sleep(cfg["mutation_period_s"])

            rebuilder.start()
            mut_thread = threading.Thread(target=mutator, name="bench-mutator")
            mut_thread.start()
            storm_passes = [
                _drive(
                    service,
                    operands,
                    clients=clients,
                    requests_per_client=cfg["requests_per_client"],
                    deadline_s=cfg["deadline_s"],
                )
                for _ in range(cfg["passes"])
            ]
            stop_evt.set()
            mut_thread.join()
            rebuilder.stop()
            storm = max(storm_passes, key=lambda r: r["rps"])
            storm["errors"] = sum(r["errors"] for r in storm_passes)
            swaps = service.stats.snapshot()["swaps"]

        patch_seconds.extend(level_patches)
        rebuild_walls.extend(r.total_seconds for r in rebuilder.reports)
        total_rebuilds += len(rebuilder.reports)
        # The ratio uses the minimum-noise estimator on BOTH sides (best
        # p99 across passes): a single pass's p99 lands on whichever
        # requests happened to collide with a background rebuild, so
        # per-pass ratios swing 2x run to run while the best-pass ratio
        # isolates the steady swap-churn cost the check is about.
        steady_p99s = [r["p99_ms"] for r in steady_passes if r["p99_ms"]]
        storm_p99s = [r["p99_ms"] for r in storm_passes if r["p99_ms"]]
        p99_ratio = (
            min(storm_p99s) / min(steady_p99s)
            if storm_p99s and steady_p99s
            else None
        )
        levels.append(
            {
                "concurrency": clients,
                "steady": steady,
                # The storm numbers sit under "batched" so the
                # regression gate reads the guarded configuration.
                "batched": storm,
                "p99_ratio": p99_ratio,
                "swaps": swaps,
                "patches": len(level_patches),
                "rebuilds": len(rebuilder.reports),
                "rebuild_errors": len(rebuilder.errors),
                "tracker": tracker.snapshot(),
            }
        )

    patch = np.asarray(patch_seconds, dtype=np.float64)
    factor = cfg["p99_factor"]
    # The p99 bound is asserted at the unsaturated operating level
    # (p99_level) — at saturation every added millisecond of mutator
    # work lands on queue wait and the tail measures the queue, not the
    # swap.  The other levels are still recorded.
    gate_level = next(
        (lv for lv in levels if lv["concurrency"] == cfg["p99_level"]),
        levels[0],
    )
    checks = {
        "zero_errors": all(
            lv["steady"]["errors"] + lv["batched"]["errors"] == 0 for lv in levels
        ),
        # Self-normalised throughput floor: the storm must retain at
        # least 40% of the SAME run's steady throughput per level.
        # Absolute rps through the threaded service swings ~3x run to
        # run on a loaded single-core box (scheduler noise the spmm
        # calibration cannot see), but storm/steady within one run is
        # stable (measured 0.5-1.0) — a broken patch/swap path tanks it.
        "storm_keeps_throughput": all(
            lv["steady"]["rps"] > 0
            and lv["batched"]["rps"] / lv["steady"]["rps"] >= 0.4
            for lv in levels
        ),
        "swaps_under_load": all(lv["swaps"] > 0 for lv in levels),
        "rebuild_completed": total_rebuilds >= 1,
        "zero_rebuild_errors": all(lv["rebuild_errors"] == 0 for lv in levels),
        "p99_within_factor": (
            True
            if factor is None
            else (
                gate_level["p99_ratio"] is not None
                and gate_level["p99_ratio"] <= factor
            )
        ),
    }
    return {
        "benchmark": "streaming",
        "workload": {
            "dataset": dataset,
            "nodes": n,
            "nnz": a.nnz,
            **cfg,
            "concurrency": list(cfg["concurrency"]),
        },
        "calibration_rps": calibration_rps,
        "levels": levels,
        "patch_ms": {
            "count": int(patch.size),
            "p50": float(np.percentile(patch, 50) * 1e3) if patch.size else None,
            "p95": float(np.percentile(patch, 95) * 1e3) if patch.size else None,
            "max": float(patch.max() * 1e3) if patch.size else None,
        },
        "rebuild_s": {
            "count": total_rebuilds,
            "mean": float(np.mean(rebuild_walls)) if rebuild_walls else None,
            "max": float(np.max(rebuild_walls)) if rebuild_walls else None,
        },
        "checks": checks,
        "ok": all(checks.values()),
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "generated_unix": time.time(),
    }


def render(record: dict) -> str:
    w = record["workload"]
    pm, rb = record["patch_ms"], record["rebuild_s"]
    lines = [
        f"Streaming mutations — {w['dataset']} (n={w['nodes']}, nnz={w['nnz']}, "
        f"±{w['mutation_edges']} edges/batch, staleness budget "
        f"{w['staleness_budget']}, calibration {record['calibration_rps']:.1f} spmm/s)",
        f"  patch latency: p50 {pm['p50'] or 0:.2f} ms, p95 {pm['p95'] or 0:.2f} ms "
        f"over {pm['count']} batches | rebuild: {rb['count']} x "
        f"{(rb['mean'] or 0) * 1e3:.1f} ms mean wall",
    ]
    for lv in record["levels"]:
        s, b = lv["steady"], lv["batched"]
        ratio = f"{lv['p99_ratio']:.2f}x" if lv["p99_ratio"] else "n/a"
        lines.append(
            f"  {lv['concurrency']:3d} clients: steady {s['rps']:8.1f} rps "
            f"(p99 {s['p99_ms']:7.2f} ms) | storm {b['rps']:8.1f} rps "
            f"(p99 {b['p99_ms']:7.2f} ms, {lv['swaps']} swaps, "
            f"{lv['rebuilds']} rebuilds) | p99 ratio {ratio}"
        )
    for key, ok in record["checks"].items():
        lines.append(f"  [{'ok' if ok else 'FAIL'}] {key}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="tiny CI-sized workload (<60 s)")
    ap.add_argument("--json", type=pathlib.Path, default=None,
                    help=f"where to write the JSON record (default {DEFAULT_JSON})")
    args = ap.parse_args(argv)

    record = run_workload(SMOKE if args.smoke else FULL)
    record["mode"] = "smoke" if args.smoke else "full"
    print(render(record))

    path = args.json or DEFAULT_JSON
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"[written to {path}]")
    return 0 if record["ok"] else 1


# ---------------------------------------------------------------------------
# pytest-benchmark entry points (same harness as the other bench_* modules)
# ---------------------------------------------------------------------------

def test_patch_latency(benchmark, rng):
    """Latency of applying one +-4-edge batch to a Cora-sized CBM."""
    a = load_dataset("Cora")
    mutable = MutableAdjacency.from_graph(a, alpha=0)
    counter = [0]

    def apply_one():
        _, _, src = mutable.snapshot()
        counter[0] += 1
        mutable.apply(
            EdgeBatch.random(src, inserts=4, deletes=4, seed=counter[0])
        )

    benchmark(apply_one)


def test_report_streaming(benchmark):
    from conftest import write_report

    def run():
        record = run_workload(dict(SMOKE))
        write_report("streaming", render(record))
        assert record["ok"], record["checks"]

    benchmark.pedantic(run, rounds=1, iterations=1)


if __name__ == "__main__":
    raise SystemExit(main())
