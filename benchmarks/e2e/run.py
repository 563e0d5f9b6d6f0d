"""End-to-end benchmark of the CBM reproduction: one command, every workload.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--quick] [--out DIR]

Runs one workload (or all four when ``--workload`` is omitted), prints
every metric by name and unit and ends with one JSON line: ``correct``,
``attempted``, ``failed`` and the metrics declared in ``BENCHMARK.json``
(end-to-end metrics untraced, per-layer metrics with ``--trace 1``).
With ``--out`` it also writes one JSON record per workload there.  A
wrong output shows as ``"correct": false`` on that line; the exit code
is non-zero only when no result could be produced.

BLAS is pinned to one thread before NumPy loads: with two BLAS threads
on a two-core machine, GEMM timings swing by half between processes.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("gcn-collab", "gcn-cora", "serve-collab", "stream-collab")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="run one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=0,
                    help="drives features, weights, request order and edge batches")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per workload (default: run_seconds from "
                         "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                    help="1: traced run reporting the per-layer metrics")
    ap.add_argument("--quick", action="store_true",
                    help="one set-up instead of several (tests)")
    ap.add_argument("--out", type=pathlib.Path,
                    help="directory for the JSON records and spans (default: none written)")
    return ap.parse_args(argv)


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
            # Stop at the checkout: a repository around it is not this code.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def run_workload(name: str, args, declared: dict[str, str], env: dict) -> dict:
    import workloads

    run = workloads.Run(seed=args.seed, seconds=args.seconds, quick=args.quick,
                        trace=bool(args.trace))
    t0 = time.perf_counter()
    workloads.WORKLOADS[name](run)
    wall = time.perf_counter() - t0
    missing = sorted(set(declared) - set(run.metrics))
    if missing:
        raise RuntimeError(f"{name} did not produce declared metrics: {missing}")
    metrics = {k: run.metrics[k] for k in declared}
    for k, m in metrics.items():
        if m["unit"] != declared[k]:
            raise RuntimeError(f"{name}: {k} has unit {m['unit']}, declared {declared[k]}")
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "quick": args.quick,
        "correct": run.failed == 0,
        "ops": {"attempted": run.attempted, "failed": run.failed},
        "failed_frac": run.failed / max(run.attempted, 1),
        "samples": run.samples,
        "wall_s": wall,
        "metrics": metrics,
        "details": run.details,
        "environment": env,
    }
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        stem = f"{name}-s{args.seed}" + (".trace" if args.trace else "")
        (args.out / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
        if run.tracer is not None:
            run.tracer.write(args.out / f"{stem}.spans.jsonl")
    for k, m in {**metrics, **run.details}.items():
        print(f"{name:14s} {k:40s} {m['value']:14.6g} {m['unit']}")
    print(f"{name:14s} ops attempted={run.attempted} failed={run.failed} "
          f"samples={run.samples} wall={wall:.1f}s")
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    env = environment()
    # Metric name -> unit the final line must carry.
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    records = [run_workload(name, args, declared, env) for name in names]
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["ops"]["attempted"] for r in records),
        "failed": sum(r["ops"]["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
