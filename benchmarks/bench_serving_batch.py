"""Micro-batched serving benchmark — batched vs unbatched throughput.

Drives two :class:`~repro.serving.InferenceService` instances over the
same adjacency and GCN weights — one with the micro-batching stage
(:class:`~repro.serving.BatchConfig`), one without — with closed-loop
concurrent clients at several concurrency levels, and records
requests/sec, p50/p99 latency, and batch-formation counters in
``BENCH_PR6.json``:

* the full workload is the paper's two-layer GCN forward on COLLAB; the
  acceptance bar is **>= 3x requests/sec** for the batched service at 64
  concurrent clients with p99 still inside the request deadline budget;
* every record carries ``calibration_rps`` — the rate of a fixed
  reference SpMM measured on the same machine — so the regression gate
  (``benchmarks/check_regression.py``) can compare *normalized*
  throughput across machines of different speeds.

Run standalone::

    python benchmarks/bench_serving_batch.py            # full (COLLAB GCN)
    python benchmarks/bench_serving_batch.py --smoke    # CI-sized (Cora)

or under pytest-benchmark like the other ``bench_*`` modules.
"""

import argparse
import json
import pathlib
import platform
import threading
import time

import numpy as np

from repro.graphs.datasets import load_dataset
from repro.serving import AdjacencySlot, BatchConfig, InferenceService
from repro.sparse.ops import spmm

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_JSON = REPO_ROOT / "BENCH_PR6.json"

# Per-request feature blocks are narrow (p=2), as in per-entity serving
# lookups: each request pays the fixed cost of streaming the compressed
# sparse structure, which is exactly what stacking amortises (the CBM
# SpMM at 64 columns costs ~9x its 1-column run, not 64x).  The hidden
# width stays small so the second stacked SpMM (members x hidden
# columns) does not swamp the amortisation.  Each mode is driven
# ``passes`` times and the best pass is recorded — the minimum-noise
# estimator (pytest-benchmark's ``min``) applied identically to both
# modes, which matters on single-core CI runners with scheduler jitter.
FULL = dict(
    dataset="COLLAB", alpha=2, concurrency=(4, 16, 64), requests_per_client=10,
    p=2, hidden=2, classes=2, deadline_s=2.0, workers=2, passes=3,
    max_columns=64, speedup_target=3.0,
    target_level=64, seed=11,
)
SMOKE = dict(
    dataset="Cora", alpha=0, concurrency=(4, 16), requests_per_client=6,
    p=2, hidden=2, classes=2, deadline_s=2.0, workers=2, passes=2,
    max_columns=64, speedup_target=None,
    target_level=16, seed=11,
)


def _calibrate(source, *, repeats: int = 20) -> float:
    """Ops/sec of a fixed reference SpMM on this machine.

    The same kernel the degraded tier serves with, at a fixed width, so
    the number moves with the machine, not with the serving code —
    dividing a measured requests/sec by it yields a machine-portable
    throughput the regression gate can compare across runners.  The
    rate comes from the *minimum* observed time (the same minimum-noise
    estimator the level passes use): a mean here would leak scheduler
    jitter straight into the gate's normalised metric.
    """
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
    operands: list[np.ndarray],
    *,
    clients: int,
    requests_per_client: int,
    deadline_s: float,
) -> dict:
    """Closed-loop load: each client submits, waits, repeats."""
    lock = threading.Lock()
    latencies: list[float] = []
    errors = [0]
    # All clients block on the barrier until the last thread has started,
    # so thread-creation time stays out of the measured window.
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


def run_workload(cfg: dict) -> dict:
    cfg = dict(cfg)
    dataset = cfg.pop("dataset")
    a = load_dataset(dataset)
    rng = np.random.default_rng(cfg["seed"])
    n = a.shape[0]
    p, hidden, classes = cfg["p"], cfg["hidden"], cfg["classes"]
    weights = (
        rng.standard_normal((p, hidden)).astype(np.float32) / np.sqrt(p),
        rng.standard_normal((hidden, classes)).astype(np.float32) / np.sqrt(hidden),
    )
    operands = [
        rng.standard_normal((n, p)).astype(np.float32) for _ in range(16)
    ]
    slot_template = AdjacencySlot.from_graph(a, alpha=cfg["alpha"], normalized=True)
    calibration_rps = _calibrate(slot_template.source)

    levels = []
    for clients in cfg["concurrency"]:
        capacity = max(128, 2 * clients)
        results = {}
        for mode in ("unbatched", "batched"):
            slot = AdjacencySlot(
                slot_template.cbm, slot_template.source
            )
            service = InferenceService(
                slot,
                workers=cfg["workers"],
                queue_capacity=capacity,
                default_deadline_s=cfg["deadline_s"],
                weights=weights,
                batch=(
                    BatchConfig(max_columns=cfg["max_columns"])
                    if mode == "batched"
                    else None
                ),
                seed=cfg["seed"],
            )
            with service:
                # Warm the plan + workspace pool (and, batched, the batch
                # formation path) with a concurrent burst outside the timer.
                warm = [service.submit(operands[i % len(operands)]) for i in range(32)]
                for fut in warm:
                    fut.result(60.0)
                passes = [
                    _drive(
                        service,
                        operands,
                        clients=clients,
                        requests_per_client=cfg["requests_per_client"],
                        deadline_s=cfg["deadline_s"],
                    )
                    for _ in range(cfg["passes"])
                ]
                best = max(passes, key=lambda r: r["rps"])
                best["pass_rps"] = [round(r["rps"], 1) for r in passes]
                best["errors"] = sum(r["errors"] for r in passes)
                results[mode] = best
                stats = service.stats.snapshot()
            if mode == "batched":
                results[mode]["batches"] = stats["batches"]
                results[mode]["coalesced"] = stats["coalesced"]
                results[mode]["mean_batch"] = (
                    stats["completed"] / stats["batches"] if stats["batches"] else 0.0
                )
        speedup = (
            results["batched"]["rps"] / results["unbatched"]["rps"]
            if results["unbatched"]["rps"]
            else 0.0
        )
        levels.append(
            {
                "concurrency": clients,
                "unbatched": results["unbatched"],
                "batched": results["batched"],
                "speedup": speedup,
            }
        )

    target = cfg["speedup_target"]
    target_level = next(
        (lv for lv in levels if lv["concurrency"] == cfg["target_level"]),
        levels[-1],
    )
    total_errors = sum(
        lv[m]["errors"] for lv in levels for m in ("unbatched", "batched")
    )
    deadline_ms = cfg["deadline_s"] * 1e3
    p99_ok = all(
        lv["batched"]["p99_ms"] is not None and lv["batched"]["p99_ms"] <= deadline_ms
        for lv in levels
    )
    checks = {
        "zero_errors": total_errors == 0,
        "coalescing_effective": all(
            lv["batched"]["coalesced"] > 0 for lv in levels
        ),
        "p99_within_deadline": p99_ok,
        "speedup_target_met": (
            True if target is None else target_level["speedup"] >= target
        ),
    }
    return {
        "benchmark": "serving_batch",
        "workload": {
            "dataset": dataset,
            "nodes": n,
            "nnz": a.nnz,
            **cfg,
            "concurrency": list(cfg["concurrency"]),
        },
        "calibration_rps": calibration_rps,
        "levels": levels,
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
    lines = [
        f"Micro-batched serving — {w['dataset']} GCN (n={w['nodes']}, "
        f"p={w['p']}->{w['hidden']}->{w['classes']}, "
        f"batch<={w['max_columns']} cols, calibration "
        f"{record['calibration_rps']:.1f} spmm/s)",
    ]
    for lv in record["levels"]:
        u, b = lv["unbatched"], lv["batched"]
        lines.append(
            f"  {lv['concurrency']:3d} clients: unbatched {u['rps']:8.1f} rps "
            f"(p99 {u['p99_ms']:8.2f} ms) | batched {b['rps']:8.1f} rps "
            f"(p99 {b['p99_ms']:8.2f} ms, mean batch {b['mean_batch']:.1f}) "
            f"| speedup {lv['speedup']:.2f}x"
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

def test_batched_round_trip(benchmark, rng):
    """Round-trip latency of one request through a batched service."""
    a = load_dataset("Cora")
    slot = AdjacencySlot.from_graph(a, alpha=2)
    x = rng.random((a.shape[0], 4), dtype=np.float64).astype(np.float32)
    with InferenceService(
        slot, workers=2, batch=BatchConfig()
    ) as svc:
        svc.submit(x).result(10.0)  # warm plan + pool outside the timer
        benchmark(lambda: svc.submit(x).result(10.0))


def test_report_serving_batch(benchmark):
    from conftest import write_report

    def run():
        record = run_workload(dict(SMOKE))
        write_report("serving_batch", render(record))
        assert record["ok"], record["checks"]

    benchmark.pedantic(run, rounds=1, iterations=1)


if __name__ == "__main__":
    raise SystemExit(main())
